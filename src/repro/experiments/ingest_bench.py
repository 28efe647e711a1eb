"""Ingest throughput & freshness benchmark (and its CLI/CI entry point).

Measures the live ingestion pipeline end to end: a
:class:`~repro.ingest.live.LiveDataset` (background sealer + compactor)
behind the session-pooled :class:`~repro.service.service.DurableTopKService`
via :class:`~repro.service.backends.LiveBackend`, with writer threads
appending micro-batches flat out *while* closed-loop clients query.

Two rounds run over the same request stream:

* **static** — no writers; the service answers over the seeded prefix.
  This is the static-dataset baseline the live round is compared with.
* **live** — writers ingest for the whole round. The gates compare this
  round's p95 latency against the static round (ingestion may cost at
  most 2x) and require a sustained append rate.

Freshness is measured per response as *staleness*: the number of rows
that landed between the snapshot a query answered over and its
completion (converted to milliseconds via the measured append rate). A
snapshot is always current as of execution start, so staleness ≈ rows
ingested during one query execution — the lag a dashboard tile would
observe.

``verify_sample > 0`` re-derives that many responses serially: because
the dataset is append-only, the snapshot a response served equals the
final dataset's prefix of ``snapshot_n`` rows, so the brute-force oracle
over that prefix must reproduce the concurrent answer exactly. The CI
smoke job runs with every response verified.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.reference import brute_force_durable_topk
from repro.experiments.report import format_table
from repro.experiments.resultstore import BenchMetric
from repro.ingest.live import LiveDataset
from repro.service import (
    DurableTopKService,
    LiveBackend,
    WorkloadGenerator,
    WorkloadSpec,
    percentile,
    run_closed_loop,
)

__all__ = ["IngestBenchResult", "ingest_throughput_bench", "SMOKE_DEFAULTS"]

#: Scaled-down parameters for the CI smoke run (seconds, not minutes).
SMOKE_DEFAULTS = {
    "n0": 6_000,
    "requests": 120,
    "clients": 4,
    "workers": 4,
    "writers": 1,
    "n_preferences": 16,
    "seal_rows": 1_000,
    "verify_sample": None,  # None = verify everything
    "max_ingest_rows": 60_000,
    "target_rate": None,  # burst mode: the smoke also exercises saturation
}


@dataclass
class IngestBenchResult:
    """Report text plus raw numbers (mirrors ``FigureResult``).

    ``metrics`` is the structured telemetry persisted as
    ``BENCH_<name>.json`` for ``repro perf-report`` / ``perf-gate``.
    """

    name: str
    report: str
    data: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.report


def _drive(service, stream, clients: int) -> tuple[list, float]:
    start = time.perf_counter()
    responses = run_closed_loop(service.query, stream, clients=clients)
    return responses, time.perf_counter() - start


def _latency_ms(responses) -> dict[str, float]:
    totals = sorted(r.total_seconds for r in responses)
    return {
        "p50": percentile(totals, 50) * 1e3,
        "p95": percentile(totals, 95) * 1e3,
        "p99": percentile(totals, 99) * 1e3,
    }


def ingest_throughput_bench(
    n0: int = 40_000,
    d: int = 2,
    requests: int = 800,
    clients: int = 4,
    workers: int = 4,
    writers: int = 1,
    batch_rows: int = 64,
    n_preferences: int = 32,
    zipf_s: float = 0.9,
    seal_rows: int = 4096,
    compact_fanout: int = 8,
    seed: int = 7,
    verify_sample: int | None = 0,
    max_ingest_rows: int = 200_000,
    target_rate: float | None = 25_000.0,
) -> IngestBenchResult:
    """Run the static and live rounds; see the module docstring.

    ``verify_sample``: how many live-round responses to re-derive
    serially against the brute-force oracle (``None`` = all, 0 = none).
    ``max_ingest_rows`` caps the volume written during the live round
    (shared across writers): the append path is so much faster than the
    query path that an uncapped writer would grow the dataset — and with
    it compaction and index-rebuild costs — without bound while clients
    drain their requests. ``target_rate`` paces the writers (rows/sec,
    ``None`` = flat out): the gated experiment offers a steady load well
    above the 10k/s bar and checks the pipeline absorbs it without
    falling behind *and* without starving queries; an unpaced writer
    measures burst capacity instead (~400k rows/s on one core) but
    monopolises the GIL, which answers a different question. The append
    rate is measured over the writers' active time only.
    """
    rng = np.random.default_rng(seed)
    seeded = rng.random((n0, d))

    live = LiveDataset(d, seal_rows=seal_rows, compact_fanout=compact_fanout, name="ingest")
    live.extend(seeded)
    live.seal()
    setup_seals = live.seals  # so reported seals are the background sealer's
    live.start_maintenance()

    spec = WorkloadSpec(
        n_preferences=n_preferences,
        d=d,
        zipf_s=zipf_s,
        k_choices=(5, 10),
        tau_fractions=(0.05, 0.10),
        interval_fractions=(0.02, 0.05),
        algorithms=("t-hop", "t-base"),
        seed=seed,
    )
    # Intervals are drawn against the seeded size, so every request stays
    # valid as the dataset grows past it.
    generator = WorkloadGenerator(spec, n0)
    stream = generator.requests(requests)

    with DurableTopKService(
        LiveBackend(live),
        workers=workers,
        max_queue=max(4096, 4 * requests),
        max_batch=16,
        pool_capacity=n_preferences,
    ) as service:
        # Warmup + static round: no writers, fixed dataset.
        run_closed_loop(service.query, stream[: max(8, requests // 10)], clients=clients)
        static_responses, static_wall = _drive(service, stream, clients)

        # Live round: writers ingest micro-batches while clients query.
        stop = threading.Event()
        appended = [0] * writers
        write_walls = [0.0] * writers
        quota = max_ingest_rows // max(1, writers)

        pace = (
            batch_rows * writers / target_rate if target_rate else 0.0
        )  # seconds between one writer's batches

        def writer(w: int) -> None:
            wrng = np.random.default_rng(seed + 1000 + w)
            start = time.perf_counter()
            due = start
            while not stop.is_set() and appended[w] < quota:
                live.extend(wrng.random((batch_rows, d)))
                appended[w] += batch_rows
                if pace:
                    due += pace
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
            write_walls[w] = time.perf_counter() - start

        threads = [
            threading.Thread(target=writer, args=(w,), name=f"ingest-writer-{w}")
            for w in range(writers)
        ]
        for thread in threads:
            thread.start()
        live_responses, live_wall = _drive(service, stream, clients)
        stop.set()
        for thread in threads:
            thread.join()

    total_appended = sum(appended)
    appends_per_sec = total_appended / max(max(write_walls), 1e-9)
    staleness_rows = sorted(
        r.result.extra.get("staleness_rows", 0) for r in live_responses if r.ok
    )
    staleness_p95_rows = percentile(staleness_rows, 95) if staleness_rows else 0.0
    staleness_p95_ms = (
        staleness_p95_rows / appends_per_sec * 1e3 if appends_per_sec else 0.0
    )

    rejected = sum(1 for r in live_responses + static_responses if not r.ok)
    static_lat = _latency_ms(static_responses)
    live_lat = _latency_ms(live_responses)

    # Serial re-derivation: a snapshot of an append-only dataset is a
    # prefix of the final frozen dataset, so each concurrent answer must
    # equal the brute-force oracle over its own prefix.
    verified = incorrect = None
    if verify_sample is None or verify_sample > 0:
        frozen = live.freeze()
        pick = range(len(stream)) if verify_sample is None else range(
            0, len(stream), max(1, len(stream) // verify_sample)
        )
        verified = incorrect = 0
        for i in pick:
            request, response = stream[i], live_responses[i]
            if not response.ok:
                continue  # already counted in `rejected`, not a wrong answer
            n_snap = response.result.extra["snapshot_n"]
            scores = request.scorer.scores(frozen.values[:n_snap])
            lo, hi = request.interval
            expected = brute_force_durable_topk(
                scores, request.k, lo, min(hi, n_snap - 1), request.tau
            )
            if response.result.ids == expected:
                verified += 1
            else:
                incorrect += 1

    pacing = f"paced at {target_rate:.0f} rows/s" if target_rate else "unpaced (burst)"
    header = (
        f"ingest throughput & freshness: {writers} writer(s) x {batch_rows}-row batches "
        f"({pacing}), {clients} clients, {workers} workers, {requests} requests/round\n"
        f"workload: seeded n0={n0} d={d}, {n_preferences} preferences (zipf s={zipf_s}), "
        f"t-hop/t-base, tau~{spec.tau_fractions}, |I|~{spec.interval_fractions}\n"
        f"pipeline: seal_rows={seal_rows}, compact_fanout={compact_fanout}, "
        f"background sealer+compactor"
    )
    rows = [
        {
            "round": "static (no ingest)",
            "req/s": f"{len(static_responses) / static_wall:.0f}",
            "p50 ms": f"{static_lat['p50']:.2f}",
            "p95 ms": f"{static_lat['p95']:.2f}",
            "appends/s": "-",
            "stale p95": "-",
        },
        {
            "round": "live (ingesting)",
            "req/s": f"{len(live_responses) / live_wall:.0f}",
            "p50 ms": f"{live_lat['p50']:.2f}",
            "p95 ms": f"{live_lat['p95']:.2f}",
            "appends/s": f"{appends_per_sec:.0f}",
            "stale p95": f"{staleness_p95_rows:.0f} rows / {staleness_p95_ms:.1f} ms",
        },
    ]
    lines = [
        header,
        format_table(rows),
        (
            f"ingested {total_appended} rows; final n={live.n}, "
            f"segments={live.segment_count}, background seals={live.seals - setup_seals}, "
            f"compactions={live.compactions}; rejected: {rejected}; "
            f"p95 ratio (live/static): {live_lat['p95'] / max(static_lat['p95'], 1e-9):.2f}x"
        ),
    ]
    if verified is not None:
        lines.append(
            f"serial re-derivation: {verified} identical, {incorrect} incorrect"
        )
    report = "\n".join(lines)
    return IngestBenchResult(
        name="ingest_throughput",
        report=report,
        data={
            "appends_per_sec": round(appends_per_sec, 1),
            "total_appended": total_appended,
            "final_n": live.n,
            "segments": live.segment_count,
            "seals": live.seals - setup_seals,  # background sealer only
            "compactions": live.compactions,
            "static_latency_ms": {k: round(v, 3) for k, v in static_lat.items()},
            "live_latency_ms": {k: round(v, 3) for k, v in live_lat.items()},
            "p95_ratio": round(live_lat["p95"] / max(static_lat["p95"], 1e-9), 3),
            "staleness_p95_rows": round(staleness_p95_rows, 1),
            "staleness_p95_ms": round(staleness_p95_ms, 3),
            "rejected": rejected,
            "verified": verified,
            "incorrect": incorrect,
            "requests": requests,
            "clients": clients,
            "workers": workers,
            "writers": writers,
        },
        metrics=[
            BenchMetric(
                "appends_per_sec", round(appends_per_sec, 1), "rows/s", "higher", 0.25
            ),
            # Same-machine ratio: how much ingestion inflates query p95.
            BenchMetric(
                "p95_ratio",
                round(live_lat["p95"] / max(static_lat["p95"], 1e-9), 3),
                "x",
                "lower",
                0.35,
                portable=True,
            ),
            BenchMetric(
                "live_p95_ms", round(live_lat["p95"], 3), "ms", "lower", 0.35
            ),
            BenchMetric(
                "staleness_p95_rows",
                round(staleness_p95_rows, 1),
                "rows",
                "lower",
                0.50,
                abs_noise=200,
            ),
            BenchMetric(
                "rejected", rejected, "", "lower", 0.0, abs_noise=5, portable=True
            ),
        ]
        # Only a verified run can honestly claim an incorrect-count of 0.
        + (
            [BenchMetric("incorrect", incorrect, "", "lower", 0.0, portable=True)]
            if incorrect is not None
            else []
        ),
    )
