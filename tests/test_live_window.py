"""The live window block answers exactly as the stitched block does.

A lone live T-Hop/T-Base query whose every probe would scan runs over one
score-array block holding only rows ``[lo - tau, hi]``
(:meth:`SegmentedTopKIndex.window`) instead of the stitched block over
the whole snapshot. These properties pin that path to the stitched path
(forced by a cost model that never scans, which also keeps every query
off the window block) and to the brute-force oracle of
:mod:`repro.core.reference`: ids, durations and ``QueryStats`` alike,
over random seal/compact cuts, windows straddling part boundaries,
``lo - tau < 0``, intervals clamped at the snapshot end, look-ahead
queries, tie-heavy scores and ``k`` at or above the window width.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import CostModel
from repro.core.query import Direction, DurableTopKQuery
from repro.core.reference import brute_force_durable_topk, strictly_better_counts
from repro.index import range_topk
from repro.ingest import LiveDataset, SegmentedTopKIndex
from repro.scoring import LinearPreference

NEVER_SCAN = CostModel(scan_per_row=math.inf)
SCORER = LinearPreference([1.0])


def oracle(scores, query):
    """Reference ids and max durations, look-ahead mirrored onto reversed scores."""
    n = len(scores)
    lo, hi = query.resolve_interval(n)
    if query.direction is Direction.FUTURE:
        scores, lo, hi = scores[::-1], n - 1 - hi, n - 1 - lo
    ids = brute_force_durable_topk(scores, query.k, lo, hi, query.tau)
    durations = {}
    for t in ids:
        # The largest look-back the record survives; the whole history
        # reports n, as the binary search does.
        if strictly_better_counts(scores, t, t, t)[0] < query.k:
            durations[t] = n
        else:
            durations[t] = max(
                tau for tau in range(query.tau, t + 1)
                if strictly_better_counts(scores, tau, t, t)[0] < query.k
            )
    if query.direction is Direction.FUTURE:
        ids = sorted(n - 1 - t for t in ids)
        durations = {n - 1 - t: d for t, d in durations.items()}
    return ids, durations


@st.composite
def live_case(draw):
    """A live dataset cut into segments (maybe compacted, maybe with a
    tail) and a query over it."""
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, 2), min_size=1, max_size=80))
    else:
        values = draw(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=80))
    scores = np.asarray(values, dtype=float)
    n = len(scores)
    cuts = sorted(set(draw(st.lists(st.integers(1, n), max_size=5))))
    live = LiveDataset(d=1, seal_rows=10_000, compact_fanout=2)
    start = 0
    for cut in cuts:
        live.extend(scores[start:cut, None])
        live.seal()
        start = cut
    if start < n:
        live.extend(scores[start:, None])  # the rows after the last cut stay in the tail
    if draw(st.booleans()):
        live.compact()
    k = draw(st.integers(1, n + 3))
    tau = draw(st.integers(1, n + 3))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n + 5))  # may run past the snapshot end
    direction = draw(st.sampled_from([Direction.PAST, Direction.FUTURE]))
    query = DurableTopKQuery(k=k, tau=tau, interval=(lo, hi), direction=direction)
    algorithm = draw(st.sampled_from(["t-hop", "t-base"]))
    return live, scores, query, algorithm


def windows_built(live, query, algorithm, model=None):
    """The query's result and how many window blocks answering it built."""
    spy = mock.patch.object(
        SegmentedTopKIndex, "window", autospec=True, side_effect=SegmentedTopKIndex.window
    )
    forced = mock.patch.object(range_topk, "COST_MODEL", model or range_topk.COST_MODEL)
    with spy as window, forced:
        result = live.query(query, SCORER, algorithm=algorithm, with_durations=True)
    return result, window.call_count


@given(live_case())
@settings(max_examples=300, deadline=None)
def test_window_path_matches_stitched_path_and_oracle(case):
    live, scores, query, algorithm = case
    windowed, built = windows_built(live, query, algorithm)
    stitched, built_forced = windows_built(live, query, algorithm, NEVER_SCAN)
    # k = 1 never scans, so it stays on the stitched block.
    assert built == (query.k > 1) and built_forced == 0
    ids, durations = oracle(scores, query)
    assert windowed.ids == stitched.ids == ids
    assert windowed.durations == stitched.durations == durations
    assert windowed.stats == stitched.stats
    assert windowed.extra == stitched.extra


def test_batch_of_distinct_queries_stays_on_the_stitched_block():
    rng = np.random.default_rng(3)
    live = LiveDataset(d=1, seal_rows=10_000)
    live.extend(rng.random((300, 1)))
    live.seal()
    live.extend(rng.random((40, 1)))
    queries = [DurableTopKQuery(k=3, tau=30, interval=(200, 339)),
               DurableTopKQuery(k=2, tau=50, interval=(100, 320))]
    with mock.patch.object(
        SegmentedTopKIndex, "window", autospec=True, side_effect=SegmentedTopKIndex.window
    ) as window:
        batch = live.query_batch(queries, SCORER)
    assert window.call_count == 0
    alone = [live.query(query, SCORER) for query in queries]
    assert [r.ids for r in batch] == [r.ids for r in alone]
    assert [r.stats for r in batch] == [r.stats for r in alone]


@pytest.mark.parametrize("lo, hi", [(10, 40), (0, 99), (95, 180), (60, 259), (200, 259)])
def test_window_block_views_one_part_and_concatenates_several(lo, hi):
    scores = np.random.default_rng(4).random(260)
    bounds = [0, 100, 200, 260]
    parts = [(a, b - a, lambda a=a, b=b: range_topk.ScoreArrayTopKIndex(scores[a:b]))
             for a, b in zip(bounds, bounds[1:])]
    stitched = SegmentedTopKIndex(parts)
    block = stitched.window(lo, hi)
    assert block.scores.tolist() == scores[lo : hi + 1].tolist()
    touched = {p for p, (a, b) in enumerate(zip(bounds, bounds[1:])) if a <= hi and lo < b}
    assert stitched.parts_resolved == len(touched)
    if len(touched) == 1:
        (p,) = touched
        assert np.shares_memory(block.scores, stitched._part(p).scores)
