"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.core.record import Dataset
from repro.data import anticorrelated, generate_nba, generate_network, independent_uniform
from repro.scoring import LinearPreference


def leaks_since(threads_before, children_before, grace: float = 2.0) -> list[str]:
    """Threads and child processes started since the snapshots, still alive.

    Waits up to ``grace`` seconds for them to finish before reporting.
    """
    deadline = time.monotonic() + grace
    while True:
        threads = [t for t in threading.enumerate() if t not in threads_before]
        children = [
            p for p in multiprocessing.active_children() if p not in children_before
        ]
        if not (threads or children) or time.monotonic() >= deadline:
            return [f"thread {t.name!r}" for t in threads] + [
                f"process {p.name!r} (pid {p.pid})" for p in children
            ]
        time.sleep(0.02)


@pytest.fixture(scope="session")
def leak_check():
    """The leak guard's check function, for testing the guard itself."""
    return leaks_since


@pytest.fixture(scope="module", autouse=True)
def _no_leaked_threads_or_processes():
    """Fail the module if a thread or child process it started outlives it."""
    threads_before = set(threading.enumerate())
    children_before = set(multiprocessing.active_children())
    yield
    leaks = leaks_since(threads_before, children_before)
    if leaks:
        pytest.fail(f"left running after the module: {', '.join(leaks)}")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_ind() -> Dataset:
    """600 independent uniform 2-D records."""
    return independent_uniform(600, 2, seed=42)


@pytest.fixture(scope="session")
def small_anti() -> Dataset:
    """400 anti-correlated 2-D records (large skybands)."""
    return anticorrelated(400, 2, seed=43)


@pytest.fixture(scope="session")
def small_nba() -> Dataset:
    """2000 synthetic NBA box scores (15 attributes, many ties)."""
    return generate_nba(2000, seed=5)


@pytest.fixture(scope="session")
def small_network() -> Dataset:
    """1500 synthetic network records (37 attributes)."""
    return generate_network(1500, seed=6)


@pytest.fixture(scope="session")
def linear_2d() -> LinearPreference:
    return LinearPreference([0.7, 0.3])


@pytest.fixture()
def tie_heavy_dataset() -> Dataset:
    """Small-integer attributes: scores collide constantly."""
    rng = np.random.default_rng(99)
    return Dataset(rng.integers(0, 4, size=(300, 2)).astype(float), name="ties")
