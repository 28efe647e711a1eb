"""Shared fixtures for the figure/table benchmarks.

Every benchmark writes its paper-style report to ``<name>.txt`` in the
results directory (stamped with an environment fingerprint and
printed). Benchmarks that carry structured
:class:`~repro.experiments.resultstore.BenchMetric` telemetry pass it as
``save_report``'s third argument and additionally emit
``BENCH_<name>.json`` and a ``BENCH_HISTORY.jsonl`` line — the records
``repro perf-report`` and ``repro perf-gate`` diff against
``benchmarks/baselines/``.

The results directory is a per-session temporary directory, so a plain
``pytest`` run leaves the checkout clean. Set ``REPRO_WRITE_RESULTS=1``
to write into the tracked ``results/`` instead — the way to refresh the
series EXPERIMENTS.md references.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    if os.environ.get("REPRO_WRITE_RESULTS") == "1":
        RESULTS_DIR.mkdir(exist_ok=True)
        return RESULTS_DIR
    return tmp_path_factory.mktemp("results")


@pytest.fixture(scope="session")
def save_report(results_dir):
    from repro.experiments.resultstore import (
        BenchRecord,
        environment_fingerprint,
        fingerprint_header,
        save_bench_record,
    )

    def _save(name: str, report: str, metrics=None) -> None:
        env = environment_fingerprint()
        path = results_dir / f"{name}.txt"
        path.write_text(fingerprint_header(env) + "\n" + report + "\n")
        print(f"\n{report}\n[saved to {path}]")
        if metrics:
            # Named after the artifact (fig8_nba2, table4_dbms_tau, ...)
            # so per-workload records stay distinct in the baseline dir.
            save_bench_record(
                BenchRecord(name=name, metrics=list(metrics), environment=env),
                results_dir,
            )

    return _save


def bench_scale() -> float:
    """Global size multiplier (REPRO_BENCH_SCALE env var, default 1.0)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def nba2():
    from repro.experiments.figures import nba2_dataset

    return nba2_dataset(int(20_000 * bench_scale()))


@pytest.fixture(scope="session")
def network2():
    from repro.experiments.figures import network2_dataset

    return network2_dataset(int(20_000 * bench_scale()))
