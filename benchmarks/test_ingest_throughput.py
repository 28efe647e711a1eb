"""Ingest throughput & freshness gates for the live pipeline.

Asserts the tentpole claims of the ingest subsystem under one sustained
run (writer threads appending micro-batches flat out while closed-loop
clients query the session-pooled service over the LiveBackend):

* the pipeline sustains >= 10k appends/second *while serving*;
* concurrent queries pay at most 2x the static-dataset service p95
  (the baseline round is measured in the same process);
* p95 query staleness — rows landing between a query's snapshot and its
  completion — stays under one second of ingest;
* zero rejected responses, and every sampled response re-derives
  serially against the brute-force oracle over its own prefix.

The report goes to ``results/ingest_throughput.txt``.
"""

from repro.experiments.ingest_bench import ingest_throughput_bench


def test_ingest_throughput(save_report):
    result = ingest_throughput_bench(verify_sample=100)
    save_report(result.name, result.report, result.metrics)

    data = result.data
    assert data["rejected"] == 0
    assert data["incorrect"] == 0
    assert data["verified"] > 0
    # The background sealer/compactor actually ran: the ingested volume
    # ended up in sealed segments, not one ever-growing tail.
    assert data["seals"] > 0
    assert data["segments"] < data["final_n"] // 1000
    # Performance gates (see module docstring).
    assert data["appends_per_sec"] >= 10_000
    assert data["p95_ratio"] <= 2.0
    assert data["staleness_p95_ms"] <= 1_000.0
