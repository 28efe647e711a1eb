"""Scan and descent give the same answers as the brute-force oracle.

The score-array block answers each top-k call by scanning the window or
by descending its segment tree, whichever the cost model prices lower.
These properties pin both paths to :mod:`repro.core.reference`, on a
single index and on the stitched live index, with each path forced in
turn by a cost model that always scans or never does.
"""

import math
import sys
import threading
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import CostModel
from repro.core.reference import brute_force_topk
from repro.index import range_topk
from repro.index.range_topk import ScoreArrayTopKIndex
from repro.ingest.segments import SegmentedTopKIndex, score_index
from repro.scoring import LinearPreference

ALWAYS_SCAN = CostModel(scan_per_row=0.0)
ALWAYS_DESCEND = CostModel(scan_per_row=math.inf)


def forced(model):
    return mock.patch.object(range_topk, "COST_MODEL", model)


@st.composite
def case(draw):
    """Scores (distinct-ish floats or tie-heavy small ints, maybe reversed),
    a rank that may exceed the data, and windows that may lie partly or
    wholly outside it."""
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, 3), min_size=1, max_size=90))
    else:
        values = draw(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=90))
    scores = np.asarray(values, dtype=float)
    if draw(st.booleans()):
        scores = scores[::-1]
    n = len(scores)
    k = draw(st.integers(1, n + 3))
    bound = st.integers(-5, n + 5)
    windows = draw(st.lists(st.tuples(bound, bound), min_size=1, max_size=6))
    return scores, k, windows


def oracle_top1(scores, lo, hi):
    top = brute_force_topk(scores, 1, lo, hi)
    return top[0] if top else None


def check(index, scores, k, windows):
    for lo, hi in windows:
        want = brute_force_topk(scores, k, lo, hi)
        answers = {}
        for name, model in (("scan", ALWAYS_SCAN), ("descend", ALWAYS_DESCEND)):
            with forced(model):
                answers[name] = (index.topk(k, lo, hi), index.top1(lo, hi))
        assert answers["scan"] == answers["descend"] == (want, oracle_top1(scores, lo, hi))
    assert index.topk_batch(k, windows) == [brute_force_topk(scores, k, lo, hi) for lo, hi in windows]


@given(case())
@settings(max_examples=150, deadline=None)
def test_score_array_index_scan_and_descent_match_oracle(drawn):
    scores, k, windows = drawn
    check(ScoreArrayTopKIndex(scores), scores, k, windows)
    check(ScoreArrayTopKIndex.adopt(scores.copy()), scores, k, windows)


@given(case(), st.data())
@settings(max_examples=150, deadline=None)
def test_segmented_index_scan_and_descent_match_oracle(drawn, data):
    scores, k, windows = drawn
    n = len(scores)
    cuts = sorted(set(data.draw(st.lists(st.integers(1, max(1, n - 1)), max_size=4))) - {n})
    bounds = [0, *cuts, n]
    parts = [
        (lo, hi - lo, lambda lo=lo, hi=hi: ScoreArrayTopKIndex(scores[lo:hi]))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    # One window straddles the first cut whenever there is one.
    straddle = [(cuts[0] - 1, cuts[0])] if cuts else []
    check(SegmentedTopKIndex(parts), scores, k, windows + straddle)


@given(case(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_score_index_reversed_matches_oracle(drawn, reverse):
    scores, k, windows = drawn
    index = score_index(LinearPreference([1.0]), scores[:, None], reverse)
    check(index, scores[::-1] if reverse else scores, k, windows)


def test_adopt_keeps_a_contiguous_array_and_straightens_a_reversed_one():
    scores = np.arange(10, dtype=float)
    assert ScoreArrayTopKIndex.adopt(scores)._scores is scores
    reversed_index = ScoreArrayTopKIndex.adopt(np.arange(10, dtype=float)[::-1])
    assert reversed_index._scores.flags.c_contiguous
    assert reversed_index.topk(3, 0, 9) == [0, 1, 2]


def test_scanning_builds_no_tree_and_descending_builds_one():
    index = ScoreArrayTopKIndex(np.random.default_rng(1).random(5_000))
    with forced(ALWAYS_SCAN):
        index.topk(5, 0, 4_999)
        index.top1(0, 4_999)
    assert index._tree is None
    with forced(ALWAYS_DESCEND):
        index.topk(5, 0, 4_999)
    assert index._tree is not None and index.blocks_built > 0


def test_racing_first_descents_get_reference_answers():
    rng = np.random.default_rng(2)
    scores = rng.integers(0, 40, 30_000).astype(float)
    windows = [tuple(sorted(int(x) for x in rng.integers(0, 30_000, 2))) for _ in range(40)]
    expected = [brute_force_topk(scores, 5, lo, hi) for lo, hi in windows]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced(ALWAYS_DESCEND):
            for _ in range(5):  # each round races on a fresh index with no tree
                index = ScoreArrayTopKIndex(scores)
                start = threading.Barrier(8)
                answers: list = [None] * 8

                def probe(slot):
                    start.wait()
                    answers[slot] = [index.topk(5, lo, hi) for lo, hi in windows]

                threads = [threading.Thread(target=probe, args=(slot,)) for slot in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert answers == [expected] * 8
    finally:
        sys.setswitchinterval(interval)
