"""Planner validation: does `algorithm="auto"` pick a near-best algorithm?

The planner prices algorithms with the Lemma 4/5 expectations. Across a
grid of query shapes (selectivity x dimensionality), the planner's pick
must stay within a small factor of the fastest measured algorithm — the
executable version of the paper's Section VI guidance.

The same cost model also decides, per top-k call, whether to scan a
window or descend the segment tree. The report gives the window width
where a scan starts to cost more than a descent, as measured and as the
default and freshly calibrated models price it.
"""

import math
import time
from unittest import mock

from repro.data import generate_network, network_variant
from repro.experiments.harness import run_algorithm_suite
from repro.experiments.report import format_table
from repro.core.engine import DurableTopKEngine
from repro.core.planner import CostModel
from repro.core.query import DurableTopKQuery
from repro.experiments.calibration import calibrate_cost_model
from repro.index import range_topk
from repro.index.range_topk import ScoreArrayTopKIndex
from repro.scoring import LinearPreference
import numpy as np

CROSSOVER_WIDTHS = [250 * 2**i for i in range(10)]


def _measure():
    full = generate_network(12_000, seed=11)
    rows = []
    for d in (2, 20):
        dataset = network_variant(full, d)
        n = dataset.n
        engine = DurableTopKEngine(dataset, skyband_k_max=16)
        engine.prepare(["s-band"])
        for tau_frac in (0.02, 0.25):
            tau = int(n * tau_frac)
            suite = run_algorithm_suite(
                dataset,
                algorithms=["t-base", "s-base", "t-hop", "s-band", "s-hop"],
                tau=tau,
                n_preferences=2,
                engine=engine,
            )
            rng = np.random.default_rng(0)
            scorer = LinearPreference(rng.random(d) + 0.01)
            decision = engine.plan(DurableTopKQuery(k=10, tau=tau), scorer)
            best = min(suite.values(), key=lambda r: r.mean_ms)
            chosen = suite[decision.algorithm]
            rows.append(
                {
                    "d": d,
                    "tau": f"{tau_frac:.0%}",
                    "planner": decision.algorithm,
                    "planner_ms": round(chosen.mean_ms, 2),
                    "best": best.algorithm,
                    "best_ms": round(best.mean_ms, 2),
                    "overhead": round(chosen.mean_ms / max(best.mean_ms, 1e-9), 2),
                }
            )
    return rows


def _per_call_us(call, starts, width):
    for lo in starts:  # untimed: first touches build tree blocks
        call(int(lo), int(lo) + width - 1)
    start = time.perf_counter()
    for lo in starts:
        call(int(lo), int(lo) + width - 1)
    return (time.perf_counter() - start) / len(starts) * 1e6


def _crossovers():
    """Per call shape: the narrowest width where scanning costs more than
    descending, measured with each path forced, next to the models'."""
    n = 130_000
    rng = np.random.default_rng(5)
    uniform = rng.random(n)
    # Eight distinct values: the k-th score is tied thousands of times.
    tied = rng.integers(0, 8, n).astype(float)
    default, calibrated = CostModel(), calibrate_cost_model()
    scan, descend = CostModel(scan_per_row=0.0), CostModel(scan_per_row=math.inf)
    rows = []
    for label, scores, k in [
        ("top1", uniform, 1),
        ("topk", uniform, 1),
        ("topk", uniform, 5),
        ("topk", uniform, 10),
        ("topk", uniform, 50),
        ("topk, tied", tied, 5),
        ("topk, tied", tied, 10),
    ]:
        index = ScoreArrayTopKIndex(scores)
        if label == "top1":
            call = index.top1
        else:
            def call(lo, hi, k=k):
                return index.topk(k, lo, hi)
        measured, narrower = f"> {CROSSOVER_WIDTHS[-1]:,}", 0
        for width in CROSSOVER_WIDTHS:
            starts = rng.integers(0, n - width, 100)
            with mock.patch.object(range_topk, "COST_MODEL", scan):
                scan_us = _per_call_us(call, starts, width)
            with mock.patch.object(range_topk, "COST_MODEL", descend):
                descend_us = _per_call_us(call, starts, width)
            if scan_us > descend_us:
                measured = f"{narrower:,}-{width:,}"
                break
            narrower = width
        rows.append(
            {
                "call": label,
                "k": k,
                "measured": measured,
                "default_model": f"{(k - 1) * default.topk_per_rank / default.scan_per_row:,.0f}",
                "calibrated_model": f"{(k - 1) * calibrated.topk_per_rank / calibrated.scan_per_row:,.0f}",
            }
        )
    return rows


def test_planner_validation(benchmark, save_report):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    crossovers = _crossovers()
    save_report(
        "planner_validation",
        format_table(rows, title="Planner validation — auto choice vs measured best")
        + "\n\n"
        + format_table(crossovers, title="Scan/descend crossover width per top-k call (rows)"),
    )
    for row in rows:
        assert row["overhead"] <= 3.0, row