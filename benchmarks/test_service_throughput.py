"""Throughput benchmark: session-pooled service vs naive global lock.

At 8 workers on the synthetic Zipfian workload, the session-pooled
batched :class:`~repro.service.service.DurableTopKService` and the
lock-around-the-engine baseline both answer every request correctly,
and the pool builds each preference's session at most once. The
measured throughput ratio and the p50/p95/p99 latencies of both sides
go to ``results/service_throughput.txt``.

Rounds are interleaved naive/pooled and compared best-vs-best after an
untimed warmup (see :mod:`repro.experiments.service_bench`). The ratio
is a measured figure, not a gate: it once held at >= 3x because the
naive baseline's 8-entry LRU rebuilt evicted preference-bound segment
trees all run long. Sessions are now one scoring pass and narrow
windows scan, so those rebuilds cost little and the ratio fell below
1x (EXPERIMENTS.md, "Scan or descend").
"""

from repro.experiments.service_bench import service_throughput_bench


def test_service_throughput(save_report):
    result = service_throughput_bench()
    save_report(result.name, result.report, result.metrics)

    assert result.data["incorrect"] == 0
    assert result.data["rejected"] == 0
    naive = result.data["naive"]
    pooled = result.data["pooled"]
    # Latency percentiles must be recorded for both sides.
    for side in (naive, pooled):
        for q in ("p50", "p95", "p99"):
            assert side["latency_ms"][q] > 0.0
    # The pool's contract: cold work is bounded by the preference
    # catalogue, never by the request count — each preference's session
    # is built at most once (the naive LRU rebuilds evicted preferences
    # hundreds of times on this stream). Batching soaks up the rest.
    assert result.data["pool"]["misses"] <= 128
    assert result.data["pooled"]["mean_batch_size"] > 1.0
    assert result.data["workers"] == 8
