"""The benchmark's own tests: its arithmetic, its wrappers, its repeatability.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import bootstrap  # noqa: E402

bootstrap.require_source()

import layers  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402
from repro.core.engine import DurableTopKEngine  # noqa: E402
from repro.core.record import Dataset  # noqa: E402
from repro.scoring import LinearPreference, random_preference  # noqa: E402
from repro.service import QueryRequest  # noqa: E402


# -- percentile and lateness arithmetic --------------------------------------
def test_percentile_is_nearest_rank():
    sample = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(sample, 50) == 3.0
    assert stats.percentile(sample, 90) == 5.0
    assert stats.percentile(sample, 20) == 1.0
    assert stats.percentile(sample, 100) == 5.0
    assert stats.percentile(list(range(1, 101)), 90) == 90


def test_failures_push_percentiles_to_infinity():
    sample = [1.0] * 8 + [stats.INF] * 2
    assert stats.percentile(sample, 80) == 1.0
    assert stats.percentile(sample, 90) == math.inf


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_lateness_and_backlog():
    intended = [0.0, 1.0, 2.0, 3.0]
    sent = [0.001, 1.0, 2.004, 3.002]
    late = stats.lateness(intended, sent)
    assert late["p50_ms"] == pytest.approx(1.0)
    assert late["p99_ms"] == pytest.approx(4.0)
    # Answered after the schedule's end (t=3), or never: outstanding.
    assert stats.backlog(intended, [0.5, 3.5, None, 2.9]) == 2
    assert stats.backlog(intended, [0.5, 1.5, 2.5, 3.0]) == 0


def test_steal_share():
    # (stolen ticks, total ticks) readings of /proc/stat.
    assert stats.steal_share((10, 1000), (60, 1100)) == 0.5
    assert stats.steal_share((10, 1000), (10, 1000)) == 0.0


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert stats.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# -- injection wrappers forward unchanged ------------------------------------
class _Recorder:
    name = "fake"

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def method(*args):
            self.calls.append((name, args))
            return (name, args)

        return method


def test_backend_wrapper_forwards_every_call():
    inner, clock = _Recorder(), layers.LayerClock()
    backend = layers.TimedBackend(inner, clock)
    assert backend.make_session("scorer") == ("make_session", ("scorer",))
    assert backend.execute("s", "r") == ("execute", ("s", "r"))
    assert backend.execute_batch("s", ["a", "b"]) == ("execute_batch", ("s", ["a", "b"]))
    assert backend.dataset_version() == ("dataset_version", ())
    assert backend.name == "fake"
    assert [name for name, _ in inner.calls] == [
        "make_session", "execute", "execute_batch", "dataset_version",
    ]
    totals = clock.snapshot()
    assert totals["session_build"][0] == 1
    assert totals["execute"][:2] == [2, 3]
    assert totals["backend_wait"][1] == 3


def test_backend_wrapper_hides_nothing_the_service_probes_for():
    class Bare:
        def dataset_version(self):
            return 7

    backend = layers.TimedBackend(Bare(), layers.LayerClock())
    assert backend.dataset_version() == 7
    assert getattr(backend, "metrics_source", None) is None


def test_cache_wrapper_forwards_every_call():
    inner, clock = _Recorder(), layers.LayerClock()
    cache = layers.TimedCache(inner, clock)
    assert cache.get("q", 3) == ("get", ("q", 3))
    assert cache.put("q", 3, "r") == ("put", ("q", 3, "r"))
    assert cache.stats() == ("stats", ())
    assert [name for name, _ in inner.calls] == ["get", "put", "stats"]
    totals = clock.snapshot()
    assert totals["cache_get"][0] == totals["cache_put"][0] == 1


def test_idle_spinners_never_outrank_the_sut_and_stop():
    import run

    cpu = min(os.sched_getaffinity(0))
    with run.sut_cpus_awake({cpu}) as spinners:
        deadline = time.monotonic() + 10.0
        while os.sched_getaffinity(spinners[0].pid) != {cpu} or (
            os.sched_getscheduler(spinners[0].pid) != os.SCHED_IDLE
        ):
            assert spinners[0].poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
    assert all(spinner.poll() is not None for spinner in spinners)


# -- the correctness check itself --------------------------------------------
def test_reference_slice_matches_full_prefix_engine():
    rng = np.random.default_rng(3)
    values = rng.random((6_000, 2))
    for _ in range(12):
        n = int(rng.integers(3_000, 6_000))
        tau = int(rng.integers(1, 800))
        lo = int(rng.integers(0, n - 10))
        request = QueryRequest(
            scorer=LinearPreference(random_preference(rng, 2)),
            k=int(rng.integers(1, 8)),
            tau=tau,
            interval=(lo, lo + int(rng.choice([500, 10_000]))),
            algorithm=str(rng.choice(["t-hop", "t-base"])),
        )
        full = DurableTopKEngine(Dataset(values[:n])).query(
            request.as_query(), request.scorer, algorithm=request.algorithm
        )
        assert wl.reference_answer(values, n, request) == full.ids


def test_streams_repeat_on_a_seed():
    a = wl.draw_streams("wire_fresh_prefs", 4, 2.0)
    b = wl.draw_streams("wire_fresh_prefs", 4, 2.0)
    assert a.arrivals == b.arrivals
    assert [tuple(r.scorer.u) for r in a.latency] == [tuple(r.scorer.u) for r in b.latency]
    preferences = {tuple(r.scorer.u) for r in a.warmup + a.capacity + a.latency}
    assert len(preferences) == len(a.warmup) + len(a.capacity) + len(a.latency)
    assert len(a.arrivals) == round(wl.WIRE["wire_fresh_prefs"].rate * wl.phase_seconds(2.0)[1])


# -- counts that must repeat exactly on a fixed seed -------------------------
def test_paper_sweep_counts_repeat(monkeypatch):
    import sweep

    monkeypatch.setattr(sweep, "PREFERENCES", 1)
    keys = (
        "index.topk_probes_per_query", "index.candidates_vs_lemma5",
        "core.answer_vs_lemma4", "minidb.pages_physical", "minidb.pages_logical",
    )
    runs = [sweep.run(seed, 0.0) for seed in (11, 11, 12)]
    for run in runs:
        assert run["failed"] == 0
        assert run["attempted"] == len(sweep.grid()) * 7
        assert len(run["latencies_s"]) == run["attempted"]
    counts = [{k: run["layers"][k] for k in keys} for run in runs]
    # The seed only orders the pass, so counts repeat across seeds too.
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["minidb.pages_physical"] > 0


def test_hot_tile_hit_rate_repeats():
    import sut as sut_module
    from loadgen import Generator, Phase

    def hit_rate() -> float:
        sut = sut_module.WireSUT("wire_hot_tiles", 5, 2.0, trace=False)
        streams = wl.draw_streams("wire_hot_tiles", 5, 2.0)
        generator = Generator(sut.setup()["port"], wl.API_KEY)
        try:
            generator.run(Phase("warmup", list(streams.warmup)), window=32)
            sut.warm_done()
            sut.phase_start("capacity")
            phase = generator.run(Phase("capacity", streams.capacity[:3000]), window=32)
            report = sut.phase_end()
        finally:
            generator.close()
            sut.stop()
        assert all(frame and frame.get("ok") for frame in phase.frames)
        cache = report["cache"]
        return cache["hits"] / (cache["hits"] + cache["misses"])

    assert hit_rate() == hit_rate() == 1.0


# -- the command's contract ---------------------------------------------------
def test_benchmark_json_names_every_reported_metric():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wire_hot_tiles",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
