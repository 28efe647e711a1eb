"""Measuring machine constants for the cost-based planner.

The planner's :class:`~repro.core.planner.CostModel` ships with defaults
calibrated on one machine. This module re-measures the ratios that
matter on *your* machine — the cost of a rank-1 top-k building-block
query by segment-tree descent and of each further rank, versus one
sequential per-record step, the per-record sort cost, and the per-row
cost of scanning a window's scores — by running micro-benchmarks on a
provided (or synthetic) dataset.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.planner import CostModel
from repro.core.record import Dataset
from repro.index.range_topk import ScoreArrayTopKIndex
from repro.index.topk import window_topk

__all__ = ["calibrate_cost_model"]


def _time_per_call(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def calibrate_cost_model(
    dataset: Dataset | None = None,
    k: int = 10,
    repeats: int = 200,
    seed: int = 0,
) -> CostModel:
    """Measure a :class:`CostModel` from micro-benchmarks.

    Parameters
    ----------
    dataset:
        Workload to calibrate on (default: 20k IND records, 2-D).
    k:
        Representative top-k parameter.
    repeats:
        Micro-benchmark repetitions per primitive.

    The returned model preserves the planner's contract: only ratios
    matter, and ``per_record`` is normalised to 1. Pass it to
    :func:`~repro.core.planner.choose_algorithm` as ``cost_model``; to
    have every top-k call scan or descend by it, assign it to
    ``repro.index.range_topk.COST_MODEL``, which each call reads.
    """
    if dataset is None:
        rng = np.random.default_rng(seed)
        dataset = Dataset(rng.random((20_000, 2)), name="calibration")
    rng = np.random.default_rng(seed)
    scores = dataset.values @ (rng.random(dataset.d) + 0.01)
    index = ScoreArrayTopKIndex(scores)
    n = dataset.n

    # Primitive 1: one top-k descent on a random tau-sized window, at rank
    # 1 (the price of a query) and at rank k (the difference prices the
    # further ranks).
    windows = rng.integers(0, max(1, n - n // 10), size=repeats)

    def descents(rank: int):
        def one_descent():
            lo = int(windows[one_descent.i % repeats])
            one_descent.i += 1
            index.descend(rank, lo, lo + n // 10)

        one_descent.i = 0
        return one_descent

    # One untimed pass first: each window's first touch builds segment-tree
    # blocks, which is index set-up, not the cost of a top-k query.
    warm = descents(k)
    for _ in range(repeats):
        warm()
    rank1_s = _time_per_call(descents(1), repeats)
    rankk_s = _time_per_call(descents(k), repeats)
    per_rank_s = max(rankk_s - rank1_s, 0.0) / max(k - 1, 1)

    # Primitive 2: one per-record step (score lookup + compare + append),
    # the body of T-Base's slide loop.
    sink: list[float] = []

    def per_record():
        i = per_record.i % n
        per_record.i += 1
        s = index.score(i)
        if s > 0.5:
            sink.append(s)
        if len(sink) > 64:
            sink.clear()

    per_record.i = 0
    record_s = _time_per_call(per_record, repeats * 50)

    # Primitive 3: per-record cost inside a large sort.
    block = min(n, 8_192)

    def one_sort():
        ids = np.arange(block)
        np.lexsort((ids, scores[:block]))

    sort_s = _time_per_call(one_sort, max(1, repeats // 20)) / block

    # Primitive 4: scanning a window's scores, per row. Windows span half
    # the data, so the per-call overhead is a small share of the time.
    width = max(1, n // 2)
    scan_windows = rng.integers(0, n - width + 1, size=repeats)

    def one_scan():
        lo = int(scan_windows[one_scan.i % repeats])
        one_scan.i += 1
        window_topk(scores, k, lo, lo + width - 1)

    # Untimed pass first, like the descent's.
    one_scan.i = 0
    for _ in range(repeats):
        one_scan()
    scan_s = _time_per_call(one_scan, repeats) / width

    per_record_unit = max(record_s, 1e-9)
    return CostModel(
        topk_query=rank1_s / per_record_unit,
        per_record=1.0,
        per_candidate=3.0,
        sort_per_record=max(sort_s / per_record_unit, 0.1),
        topk_per_rank=per_rank_s / per_record_unit,
        scan_per_row=scan_s / per_record_unit,
    )
