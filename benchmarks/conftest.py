"""Shared fixtures for the figure/table benchmarks.

Every benchmark writes its paper-style report to ``<name>.txt`` in the
results directory, stamped with an environment fingerprint, and prints
it.

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
    from repro.experiments.resultstore import fingerprint_header

    def _save(name: str, report: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(fingerprint_header() + "\n" + report + "\n")
        print(f"\n{report}\n[saved to {path}]")

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
