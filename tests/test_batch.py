"""Byte-identity of batched query execution across every layer.

The tentpole contract of ``query_batch`` is *not* "approximately the
same answers, faster" — it is byte-identity with a serial ``query``
loop: same ids, same durations, same per-query :class:`QueryStats`
(and, for MiniDB, the same logical/physical page counts). These
randomized property tests pin that contract for the vectorised window
kernel, the engine, the MiniDB batch procedures, the live dataset
(including tail-straddling windows and FUTURE-direction queries).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchPlan, clone_result
from repro.core.engine import DurableTopKEngine
from repro.core.query import Direction, DurableTopKQuery
from repro.data import independent_uniform
from repro.index.range_topk import ScoreArrayTopKIndex
from repro.index.topk import BatchTopKMemo, batched_window_topk
from repro.ingest import LiveDataset
from repro.minidb import MiniDB
from repro.minidb.procedures import (
    t_base_batch_procedure,
    t_base_procedure,
    t_hop_batch_procedure,
    t_hop_procedure,
)
from repro.scoring import LinearPreference


@pytest.fixture(scope="module")
def scorer():
    return LinearPreference([0.55, 0.45])


def random_queries(rng, n, count, future_fraction=0.3, tau_max=60):
    """Random (query, algorithm) pairs, interval widths down to one row."""
    queries, algorithms = [], []
    for _ in range(count):
        k = int(rng.integers(1, 8))
        tau = int(rng.integers(1, tau_max))
        lo = int(rng.integers(0, max(1, n - 50)))
        hi = int(lo + rng.integers(0, 49))
        direction = (
            Direction.FUTURE if rng.random() < future_fraction else Direction.PAST
        )
        queries.append(
            DurableTopKQuery(k=k, tau=tau, interval=(lo, hi), direction=direction)
        )
        algorithms.append(str(rng.choice(["t-hop", "t-base", "s-hop", "auto"])))
    return queries, algorithms


class _WindowCounter:
    """Forwards a top-k block, counting the windows it is asked."""

    def __init__(self, inner):
        self._inner = inner
        self.windows = 0

    def topk(self, k, lo, hi):
        self.windows += 1
        return self._inner.topk(k, lo, hi)

    def top1(self, lo, hi):
        self.windows += 1
        return self._inner.top1(lo, hi)

    def topk_batch(self, k, windows):
        self.windows += len(windows)
        return self._inner.topk_batch(k, windows)

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
# The vectorised kernel
# ----------------------------------------------------------------------
class TestBatchedWindowKernel:
    def test_matches_serial_topk_on_random_windows(self):
        rng = np.random.default_rng(0)
        scores = rng.random(800)
        index = ScoreArrayTopKIndex(scores)
        windows = [
            (int(lo), int(lo + rng.integers(0, 90)))
            for lo in rng.integers(0, 750, size=64)
        ]
        # Clamping edge cases: negative lo, hi past the end, full range.
        windows += [(-7, 25), (780, 900), (0, 799)]
        for k in (1, 2, 5, 11):
            batched = batched_window_topk(scores, k, windows)
            serial = [index.topk(k, lo, hi) for lo, hi in windows]
            assert batched == serial, k

    def test_tie_heavy_scores_keep_canonical_order(self):
        """Ties must break toward larger id, exactly as the heap does."""
        rng = np.random.default_rng(3)
        scores = rng.integers(0, 4, size=300).astype(float)
        index = ScoreArrayTopKIndex(scores)
        windows = [(int(lo), int(lo + w)) for lo in range(0, 280, 7) for w in (0, 3, 40)]
        for k in (1, 3, 6):
            assert batched_window_topk(scores, k, windows) == [
                index.topk(k, lo, hi) for lo, hi in windows
            ]

    def test_degenerate_inputs(self):
        scores = np.array([0.4, 0.9, 0.1])
        assert batched_window_topk(scores, 3, []) == []
        assert batched_window_topk(scores, 0, [(0, 2)]) == [[]]
        assert batched_window_topk(scores, 2, [(2, 1), (5, 9)]) == [[], []]
        assert batched_window_topk(np.array([]), 2, [(0, 1)]) == [[]]

    def test_memo_primes_and_replays(self):
        scores = np.random.default_rng(1).random(200)
        plain = ScoreArrayTopKIndex(scores)
        memo = BatchTopKMemo(ScoreArrayTopKIndex(scores))
        memo.prime(3, [(0, 50), (40, 90)])
        assert memo.topk(3, 0, 50) == plain.topk(3, 0, 50)
        assert memo.topk(3, 40, 90) == plain.topk(3, 40, 90)
        assert memo.top1(10, 60) == plain.top1(10, 60)
        assert memo.n == plain.n


# ----------------------------------------------------------------------
# Batch planning
# ----------------------------------------------------------------------
class TestBatchPlan:
    def test_duplicates_map_to_first_occurrence(self):
        q = DurableTopKQuery(k=3, tau=10, interval=(5, 50))
        twin = DurableTopKQuery(k=3, tau=10, interval=(5, 50))
        other = DurableTopKQuery(k=4, tau=10, interval=(5, 50))
        plan = BatchPlan([(0, q, "t-hop"), (1, twin, "t-hop"), (2, other, "t-hop")], 100)
        assert plan.duplicates == {1: 0}
        assert [e.position for e in plan.unique] != []
        assert len(plan) == 3

    def test_equal_resolved_intervals_dedupe(self):
        """Raw intervals differing only past the clamp are one query."""
        a = DurableTopKQuery(k=2, tau=5, interval=(0, 99))
        b = DurableTopKQuery(k=2, tau=5, interval=None)
        plan = BatchPlan([(0, a, "t-hop"), (1, b, "t-hop")], 100)
        assert plan.duplicates == {1: 0}

    def test_clone_result_is_independent(self):
        engine = DurableTopKEngine(independent_uniform(120, 2, seed=9))
        scorer = LinearPreference([0.5, 0.5])
        query = DurableTopKQuery(k=3, tau=15, interval=(10, 100))
        result = engine.query(query, scorer, algorithm="t-hop", with_durations=True)
        copy = clone_result(result)
        assert copy.ids == result.ids and copy.ids is not result.ids
        assert copy.stats.as_dict() == result.stats.as_dict()
        assert copy.durations == result.durations
        copy.ids.append(-1)
        copy.stats.durability_topk_queries += 1
        assert copy.ids != result.ids
        assert copy.stats.as_dict() != result.stats.as_dict()


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class TestEngineBatchEquivalence:
    def test_random_batches_match_serial(self, small_ind, scorer):
        engine = DurableTopKEngine(small_ind)
        rng = np.random.default_rng(11)
        queries, algorithms = random_queries(rng, small_ind.n, 36)
        queries += queries[:6]  # force duplicates through the dedupe path
        algorithms += algorithms[:6]
        batch = engine.query_batch(
            queries, scorer, algorithm=algorithms, with_durations=True
        )
        for query, name, got in zip(queries, algorithms, batch):
            want = engine.query(query, scorer, algorithm=name, with_durations=True)
            assert got.ids == want.ids, (query, name)
            assert got.stats.as_dict() == want.stats.as_dict(), (query, name)
            assert got.durations == want.durations, (query, name)
            assert got.algorithm == want.algorithm

    def test_batch_through_session_and_broadcast_algorithm(self, small_ind, scorer):
        engine = DurableTopKEngine(small_ind)
        rng = np.random.default_rng(13)
        queries, _ = random_queries(rng, small_ind.n, 12, future_fraction=0.0)
        with engine.session(scorer) as session:
            batch = session.query_batch(queries, algorithm="t-hop")
        for query, got in zip(queries, batch):
            want = engine.query(query, scorer, algorithm="t-hop")
            assert got.ids == want.ids
            assert got.stats.as_dict() == want.stats.as_dict()

    def test_future_only_batch(self, small_ind, scorer):
        engine = DurableTopKEngine(small_ind)
        rng = np.random.default_rng(17)
        queries, algorithms = random_queries(
            rng, small_ind.n, 10, future_fraction=1.0
        )
        batch = engine.query_batch(
            queries, scorer, algorithm=algorithms, with_durations=True
        )
        for query, name, got in zip(queries, algorithms, batch):
            want = engine.query(query, scorer, algorithm=name, with_durations=True)
            assert got.ids == want.ids
            assert got.durations == want.durations
            assert got.stats.as_dict() == want.stats.as_dict()

    def test_overlapping_batch_makes_fewer_raw_index_calls(self, scorer):
        """16 overlapping same-preference T-Hop queries share windows: as
        one batch they ask the raw top-k block fewer windows than one at
        a time, and every query's stats stay identical."""
        engine = DurableTopKEngine(independent_uniform(3000, 2, seed=7))
        queries = [
            DurableTopKQuery(k=(5, 10)[i % 2], tau=60, interval=(hi - 600, hi))
            for i, hi in enumerate(range(2000, 2400, 25))
        ]
        assert len(queries) == 16
        with engine.session(scorer) as session:
            counter = _WindowCounter(session.index)
            session.index = counter
            serial = [session.query(query, algorithm="t-hop") for query in queries]
            serial_windows, counter.windows = counter.windows, 0
            batched = session.query_batch(queries, algorithm="t-hop")
        # One at a time, the raw block answers every probe the stats count.
        assert serial_windows == sum(r.stats.topk_queries for r in serial)
        assert counter.windows < serial_windows
        for got, want in zip(batched, serial):
            assert got.ids == want.ids
            assert got.stats.as_dict() == want.stats.as_dict()

    def test_algorithm_list_length_mismatch_raises(self, small_ind, scorer):
        engine = DurableTopKEngine(small_ind)
        query = DurableTopKQuery(k=3, tau=10)
        with pytest.raises(ValueError, match="algorithms for"):
            engine.query_batch([query, query], scorer, algorithm=["t-hop"])

    def test_empty_batch(self, small_ind, scorer):
        assert DurableTopKEngine(small_ind).query_batch([], scorer) == []


# ----------------------------------------------------------------------
# MiniDB stored procedures
# ----------------------------------------------------------------------
class TestMiniDBBatchEquivalence:
    PAIRS = (
        (t_hop_procedure, t_hop_batch_procedure),
        (t_base_procedure, t_base_batch_procedure),
    )

    def test_batch_reports_match_serial_including_pages(self, small_ind):
        u = np.array([0.55, 0.45])
        rng = np.random.default_rng(19)
        queries = [
            (
                int(rng.integers(1, 6)),
                int(rng.integers(0, 50)),
                int(rng.integers(0, small_ind.n - 60)),
                int(rng.integers(0, 49)),
            )
            for _ in range(16)
        ]
        queries = [(k, tau, lo, lo + w) for k, tau, lo, w in queries]
        queries += queries[:4]  # duplicates execute once, clone their report
        with MiniDB(small_ind, buffer_pages=16, block_rows=64) as db:
            for procedure, batch_procedure in self.PAIRS:
                reports = batch_procedure(db, u, queries, cold=True)
                for (k, tau, lo, hi), got in zip(queries, reports):
                    want = procedure(db, u, k, tau, lo, hi, cold=True)
                    assert got.ids == want.ids, (k, tau, lo, hi)
                    assert got.topk_queries == want.topk_queries
                    assert got.logical_reads == want.logical_reads
                    assert got.physical_reads == want.physical_reads

    def test_cloned_duplicate_reports_are_independent(self, small_ind):
        u = np.array([0.55, 0.45])
        with MiniDB(small_ind, buffer_pages=16, block_rows=64) as db:
            twin = (3, 20, 50, 200)
            first, second = t_hop_batch_procedure(db, u, [twin, twin], cold=True)
            assert first.ids == second.ids and first.ids is not second.ids


# ----------------------------------------------------------------------
# Live dataset (segments + mutable tail)
# ----------------------------------------------------------------------
class TestLiveBatchEquivalence:
    def make_live(self, rng, n=400, seal_every=90):
        live = LiveDataset(d=2, seal_rows=10_000)
        for i, row in enumerate(rng.random((n, 2))):
            live.append(row)
            if (i + 1) % seal_every == 0:
                live.seal()
        return live

    def test_batch_matches_serial_over_one_snapshot(self, scorer):
        rng = np.random.default_rng(23)
        live = self.make_live(rng)
        try:
            snap = live.snapshot()
            queries, algorithms = random_queries(rng, snap.n, 24)
            algorithms = [
                "t-hop" if name in ("s-hop", "auto") else name for name in algorithms
            ]
            # Tail-straddling windows: the interval ends in the mutable
            # tail while tau reaches back across sealed segments.
            queries += [
                DurableTopKQuery(k=3, tau=150, interval=(snap.n - 40, snap.n - 1)),
                DurableTopKQuery(
                    k=2,
                    tau=120,
                    interval=(snap.n - 30, snap.n - 1),
                    direction=Direction.FUTURE,
                ),
            ]
            algorithms += ["t-hop", "t-base"]
            queries += queries[:5]
            algorithms += algorithms[:5]
            batch = live.query_batch(
                queries, scorer, algorithm=algorithms, with_durations=True,
                snapshot=snap,
            )
            for query, name, got in zip(queries, algorithms, batch):
                want = live.query(
                    query, scorer, algorithm=name, with_durations=True, snapshot=snap
                )
                assert got.ids == want.ids, (query, name)
                assert got.stats.as_dict() == want.stats.as_dict(), (query, name)
                assert got.durations == want.durations
                assert got.extra["snapshot_n"] == want.extra["snapshot_n"]
                assert got.extra["snapshot_version"] == want.extra["snapshot_version"]
        finally:
            live.close()

    def test_index_only_algorithms_enforced(self, scorer):
        rng = np.random.default_rng(29)
        live = self.make_live(rng, n=120, seal_every=60)
        try:
            with pytest.raises(ValueError, match="freeze"):
                live.query_batch(
                    [DurableTopKQuery(k=2, tau=10)], scorer, algorithm="s-hop"
                )
        finally:
            live.close()
