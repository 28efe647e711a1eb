"""Tests for the live ingestion pipeline (WAL, segments, LiveDataset,
LiveMiniDB, service backend, versioned caches)."""

import threading

import numpy as np
import pytest

from repro.core.engine import DurableTopKEngine
from repro.core.query import Direction, DurableTopKQuery
from repro.core.record import Dataset
from repro.core.reference import brute_force_durable_topk, brute_force_topk
from repro.index.range_topk import ScoreArrayTopKIndex
from repro.ingest import LiveDataset, SegmentedTopKIndex, TailBuffer, WriteAheadLog
from repro.minidb import LiveMiniDB
from repro.minidb.procedures import t_base_procedure, t_hop_procedure
from repro.scoring import LinearPreference
from repro.service import DurableTopKService, LiveBackend, QueryRequest


@pytest.fixture()
def scorer():
    return LinearPreference([0.6, 0.4])


def make_live(rows, seal_every=None, seal_rows=10_000):
    """A LiveDataset fed row by row, sealed every ``seal_every`` rows."""
    live = LiveDataset(d=rows.shape[1], seal_rows=seal_rows)
    for i, row in enumerate(rows):
        live.append(row)
        if seal_every and (i + 1) % seal_every == 0:
            live.seal()
    return live


def eager_part(base, index):
    """A ``SegmentedTopKIndex`` part whose index already exists."""
    return (base, index.n, lambda: index)


class TestWriteAheadLog:
    def test_roundtrip(self, tmp_path):
        rows = np.arange(12, dtype=float).reshape(4, 3)
        with WriteAheadLog(tmp_path / "wal.log", 3) as wal:
            for row in rows:
                wal.append(row)
            wal.flush(sync=True)
        reopened = WriteAheadLog(tmp_path / "wal.log", 3)
        assert np.array_equal(reopened.recovered.rows, rows)
        assert reopened.recovered.torn_bytes == 0
        reopened.close()

    def test_torn_tail_is_dropped_and_log_stays_appendable(self, tmp_path):
        path = tmp_path / "wal.log"
        rows = np.random.default_rng(0).random((5, 2))
        with WriteAheadLog(path, 2) as wal:
            for row in rows:
                wal.append(row)
            wal.flush()
        with open(path, "ab") as f:
            f.write(b"\x07" * 11)  # a torn partial entry
        reopened = WriteAheadLog(path, 2)
        assert np.array_equal(reopened.recovered.rows, rows)
        assert reopened.recovered.torn_bytes == 11
        reopened.append([1.0, 2.0])
        reopened.flush()
        reopened.close()
        final = WriteAheadLog(path, 2)
        assert len(final.recovered.rows) == 6
        final.close()

    def test_reset_clears_entries(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", 1)
        wal.append([1.0])
        wal.flush()
        wal.reset()
        wal.close()
        assert len(WriteAheadLog(tmp_path / "wal.log", 1).recovered.rows) == 0

    def test_dimension_mismatch_rejected(self, tmp_path):
        WriteAheadLog(tmp_path / "wal.log", 2).close()
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal.log", 3)


class TestSegmentedTopKIndex:
    @pytest.mark.parametrize("cuts", [[], [100], [37, 110, 200], [1, 2, 3, 250]])
    def test_matches_monolithic_index(self, cuts):
        rng = np.random.default_rng(42)
        scores = rng.random(300)
        bounds = [0, *cuts, 300]
        parts = [
            eager_part(lo, ScoreArrayTopKIndex(scores[lo:hi]))
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]
        stitched = SegmentedTopKIndex(parts)
        whole = ScoreArrayTopKIndex(scores)
        assert stitched.n == whole.n
        for t in [0, 50, 150, 299]:
            assert stitched.score(t) == whole.score(t)
        for k, lo, hi in [(1, 0, 299), (5, 90, 210), (3, 36, 38), (300, 0, 299), (4, -5, 400)]:
            assert stitched.topk(k, lo, hi) == whole.topk(k, lo, hi)
            assert stitched.top1(lo, hi) == whole.top1(lo, hi)

    def test_ties_break_toward_later_arrival_across_parts(self):
        scores = np.array([1.0, 5.0, 5.0, 1.0, 5.0, 0.0])
        parts = [
            eager_part(0, ScoreArrayTopKIndex(scores[:2])),
            eager_part(2, ScoreArrayTopKIndex(scores[2:4])),
            eager_part(4, ScoreArrayTopKIndex(scores[4:])),
        ]
        stitched = SegmentedTopKIndex(parts)
        assert stitched.topk(3, 0, 5) == [4, 2, 1]

    def test_rejects_gaps(self):
        with pytest.raises(ValueError):
            SegmentedTopKIndex([eager_part(0, ScoreArrayTopKIndex(np.ones(3))),
                                eager_part(5, ScoreArrayTopKIndex(np.ones(3)))])


class TestTailBuffer:
    def test_growth_preserves_published_rows(self):
        tail = TailBuffer(2, capacity=2)
        for i in range(20):
            tail.append([float(i), float(-i)])
        buf, count = tail.published
        assert count == 20
        assert np.array_equal(buf[:count, 0], np.arange(20, dtype=float))

    def test_extend_across_growth_matches_row_appends(self):
        rows = np.random.default_rng(3).random((13, 2))
        by_row, by_block = TailBuffer(2, capacity=4), TailBuffer(2, capacity=4)
        for tail in (by_row, by_block):
            tail.append([9.0, 9.0], timestamp=5, label="first")
        for row in rows:
            by_row.append(row)
        assert by_block.extend(rows) == 1  # grows 4 -> 16 in one step
        assert by_block.count == by_row.count == 14
        assert np.array_equal(by_block.values_view(), by_row.values_view())
        assert len(by_block.published[0]) == len(by_row.published[0])
        assert by_block.timestamps == by_row.timestamps
        assert by_block.labels == by_row.labels


class CountingPreference(LinearPreference):
    """A linear preference that records how many rows each call scores."""

    def __init__(self, u) -> None:
        super().__init__(u)
        self.scored: list[int] = []

    def scores(self, values):
        self.scored.append(len(values))
        return super().scores(values)


class TestLazyStitching:
    def test_tail_anchored_query_never_indexes_older_segments(self):
        rng = np.random.default_rng(21)
        live = make_live(rng.random((650, 2)), seal_every=200)  # 3 x 200 + 50-row tail
        old, last = live._state.segments[:2], live._state.segments[2]
        engine = DurableTopKEngine(live.freeze())
        scorer, reference = CountingPreference([0.6, 0.4]), LinearPreference([0.6, 0.4])
        past = DurableTopKQuery(k=2, tau=60, interval=(610, 649))
        future = DurableTopKQuery(k=2, tau=30, interval=(580, 620), direction=Direction.FUTURE)
        for query in (past, future):
            got = live.query(query, scorer, with_durations=True)
            want = engine.query(query, reference, algorithm="t-hop", with_durations=True)
            assert got.ids == want.ids and got.durations == want.durations
        live.query_batch([past, future], scorer, with_durations=True)
        assert set(scorer.scored) <= {len(last), 50}
        assert all(not seg._cache for seg in old)
        assert len(last._cache) == 2  # forward and reversed, built once each

    def test_parts_resolved_counts_only_touched_parts(self, scorer):
        live = make_live(np.random.default_rng(22).random((650, 2)), seal_every=200)
        stitched = live.snapshot().stitched_index(scorer)
        assert stitched.n == 650 and stitched.parts_resolved == 0
        stitched.topk(3, 620, 649)
        assert stitched.parts_resolved == 1
        stitched.topk_batch(2, [(590, 610), (0, 5)])
        assert stitched.parts_resolved == 3
        assert stitched.score(250) == scorer.scores(live.freeze().values)[250]
        assert stitched.parts_resolved == 4


class TestLiveDatasetEquivalence:
    @pytest.mark.parametrize("algorithm", ["t-base", "t-hop"])
    def test_exact_vs_offline_rebuild(self, scorer, algorithm):
        rng = np.random.default_rng(7)
        live = make_live(rng.random((500, 2)), seal_every=120)
        engine = DurableTopKEngine(live.freeze())
        for k, tau, interval in [(2, 60, None), (1, 30, (100, 450)), (4, 500, (0, 499))]:
            query = DurableTopKQuery(k=k, tau=tau, interval=interval)
            got = live.query(query, scorer, algorithm=algorithm, with_durations=True)
            want = engine.query(query, scorer, algorithm=algorithm, with_durations=True)
            assert got.ids == want.ids
            assert got.durations == want.durations
            assert got.stats.topk_queries == want.stats.topk_queries

    def test_tail_straddling_window(self, scorer):
        rng = np.random.default_rng(8)
        live = make_live(rng.random((240, 2)), seal_every=100)
        assert live.segment_count == 2 and live.n == 240  # 40-row tail
        scores = scorer.scores(live.freeze().values)
        # Interval and windows straddle the sealed/tail boundary at 200.
        query = DurableTopKQuery(k=2, tau=70, interval=(150, 239))
        got = live.query(query, scorer)
        assert got.ids == brute_force_durable_topk(scores, 2, 150, 239, 70)

    def test_future_direction_matches_engine(self, scorer):
        rng = np.random.default_rng(9)
        live = make_live(rng.random((300, 2)), seal_every=90)
        engine = DurableTopKEngine(live.freeze())
        query = DurableTopKQuery(k=2, tau=45, interval=(80, 260), direction=Direction.FUTURE)
        got = live.query(query, scorer, with_durations=True)
        want = engine.query(query, scorer, algorithm="t-hop", with_durations=True)
        assert got.ids == want.ids
        assert got.durations == want.durations

    def test_compaction_preserves_answers(self, scorer):
        rng = np.random.default_rng(10)
        live = make_live(rng.random((400, 2)), seal_every=50)
        query = DurableTopKQuery(k=3, tau=80)
        before = live.query(query, scorer).ids
        assert live.compact(force=True) > 0
        assert live.segment_count == 1
        assert live.query(query, scorer).ids == before

    def test_compaction_bounds_the_segment_count(self, scorer):
        """Sealing each full tail and compacting after every seal, as the
        maintenance thread does, keeps fewer than one segment per 1,000
        rows (128 seals of 512 rows would leave 128 segments unmerged)."""
        rng = np.random.default_rng(16)
        live = LiveDataset(d=2, seal_rows=512, compact_fanout=8)
        for chunk in rng.random((1_024, 64, 2)):
            live.extend(chunk)
            if live.seal(min_rows=live.seal_rows):
                live.compact()
        assert live.seals == 128 and live.compactions > 0
        assert live.segment_count < live.n // 1_000
        query = DurableTopKQuery(k=3, tau=2_000, interval=(60_000, 65_535))
        scores = scorer.scores(live.freeze().values)
        want = brute_force_durable_topk(scores, 3, 60_000, 65_535, 2_000)
        assert live.query(query, scorer).ids == want

    def test_snapshot_is_stable_under_later_appends(self, scorer):
        rng = np.random.default_rng(11)
        live = make_live(rng.random((200, 2)), seal_every=80)
        snap = live.snapshot()
        frozen = live.freeze()
        live.extend(rng.random((100, 2)))
        live.seal()
        query = DurableTopKQuery(k=2, tau=40)
        pinned = live.query(query, scorer, snapshot=snap)
        assert pinned.extra["snapshot_n"] == 200
        want = DurableTopKEngine(frozen).query(query, scorer, algorithm="t-hop")
        assert pinned.ids == want.ids

    def test_sort_based_algorithms_are_refused(self, scorer):
        live = make_live(np.random.default_rng(0).random((50, 2)))
        with pytest.raises(ValueError, match="freeze"):
            live.query(DurableTopKQuery(k=1, tau=5), scorer, algorithm="s-hop")

    def test_append_validation(self):
        live = LiveDataset(d=2)
        with pytest.raises(ValueError):
            live.append([1.0])
        with pytest.raises(ValueError):
            live.append([np.nan, 1.0])

    def test_extend_rejects_non_finite_block_without_appending(self, scorer):
        live = make_live(np.random.default_rng(4).random((8, 2)), seal_every=4)
        for bad in ([[np.nan, 1.0]], [[0.5, 0.5], [1.0, np.inf]], [[-np.inf, 0.0]]):
            with pytest.raises(ValueError, match="finite"):
                live.extend(bad)
            assert live.n == 8
        scores = scorer.scores(live.freeze().values)
        got = live.query(DurableTopKQuery(k=1, tau=2, interval=(0, 5)), scorer)
        assert got.ids == brute_force_durable_topk(scores, 1, 0, 5, 2)
        assert live.extend([[0.2, 0.3]]) == 8 and live.n == 9

    @pytest.mark.parametrize("direction", [Direction.PAST, Direction.FUTURE])
    def test_empty_dataset_query_raises_dataset_is_empty(self, scorer, direction):
        live = LiveDataset(d=2)
        query = DurableTopKQuery(k=2, tau=5, direction=direction)
        with pytest.raises(ValueError, match="dataset is empty"):
            live.query(query, scorer)
        with pytest.raises(ValueError, match="dataset is empty"):
            DurableTopKEngine(live.freeze()).query(query, scorer, algorithm="t-hop")

    def test_background_maintenance_seals_and_stays_exact(self, scorer):
        rng = np.random.default_rng(12)
        with LiveDataset(d=2, seal_rows=64, compact_fanout=3) as live:
            live.start_maintenance(poll_seconds=0.005)
            for chunk in rng.random((40, 25, 2)):
                live.extend(chunk)
            deadline = threading.Event()
            for _ in range(200):  # wait for the sealer to catch up
                if live.seals > 0 and live._state.tail.count < 64:
                    break
                deadline.wait(0.01)
            assert live.seals > 0
            scores = scorer.scores(live.freeze().values)
            got = live.query(DurableTopKQuery(k=2, tau=100), scorer)
            n = got.extra["snapshot_n"]
            assert got.ids == brute_force_durable_topk(scores[:n], 2, 0, n - 1, 100)


class TestVersionedCaches:
    def test_freeze_stamps_version_and_epochs_differ(self, scorer):
        live = make_live(np.random.default_rng(1).random((60, 2)), seal_every=30)
        a = live.freeze()
        live.append([0.5, 0.5])
        b = live.freeze()
        assert a.version != b.version
        assert b.n == a.n + 1

    def test_derived_views_inherit_version(self):
        data = Dataset(np.random.default_rng(2).random((20, 3)), version=5)
        assert data.prefix(10).version == 5
        assert data.select_attributes([0, 1]).version == 5
        assert data.reversed().version == 5

    def test_engine_index_cache_keys_on_version(self, scorer):
        """An engine whose dataset advances an epoch must not serve the
        stale preference-bound index (the growing-dataset hazard)."""
        rng = np.random.default_rng(3)
        values = rng.random((80, 2))
        data = Dataset(values[:60], version=1)
        engine = DurableTopKEngine(data)
        session = engine.session(scorer)
        old = session.query(DurableTopKQuery(k=1, tau=10))
        # The dataset object is swapped for a grown epoch (what a naive
        # live wrapper would do); the session must rebind, not reuse.
        engine.dataset = Dataset(values, version=2)
        new = session.query(DurableTopKQuery(k=1, tau=10))
        assert session.dataset_version == 2
        scores = scorer.scores(values)
        assert new.ids == brute_force_durable_topk(scores, 1, 0, 79, 10)
        assert old.ids == brute_force_durable_topk(scores[:60], 1, 0, 59, 10)


class TestLiveServiceBackend:
    def test_concurrent_reads_and_writes_are_exact(self, scorer):
        rng = np.random.default_rng(13)
        live = LiveDataset(d=2, seal_rows=500)
        live.extend(rng.random((2_000, 2)))
        live.seal()
        live.start_maintenance(poll_seconds=0.001)

        stop = threading.Event()

        def writer():
            wrng = np.random.default_rng(99)
            while not stop.is_set():
                live.extend(wrng.random((50, 2)))

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            with DurableTopKService(LiveBackend(live), workers=4) as service:
                requests = [
                    QueryRequest(
                        scorer=scorer, k=2, tau=100, interval=(0, 1_500),
                        algorithm="t-hop",
                    )
                    for _ in range(40)
                ]
                responses = [service.submit(r) for r in requests]
                results = [r.result() for r in responses]
        finally:
            stop.set()
            thread.join()
        frozen = live.freeze()
        scores = scorer.scores(frozen.values)
        for response in results:
            assert response.ok
            n_snap = response.result.extra["snapshot_n"]
            expected = brute_force_durable_topk(scores[:n_snap], 2, 0, 1_500, 100)
            assert response.result.ids == expected
            assert response.result.extra["staleness_rows"] >= 0


    @pytest.mark.parametrize("direction", [Direction.PAST, Direction.FUTURE])
    def test_empty_dataset_fails_the_request_and_the_worker_keeps_serving(
        self, scorer, direction
    ):
        live = LiveDataset(d=2)
        request = QueryRequest(
            scorer=scorer, k=2, tau=5, direction=direction, algorithm="t-hop"
        )
        with DurableTopKService(LiveBackend(live), workers=1) as service:
            with pytest.raises(ValueError, match="dataset is empty"):
                service.submit(request).result()
            rows = np.random.default_rng(14).random((40, 2))
            live.extend(rows)
            response = service.submit(request).result()
        assert response.ok
        query = request.as_query()
        want = DurableTopKEngine(Dataset(rows)).query(query, scorer, algorithm="t-hop")
        assert response.result.ids == want.ids


class TestLiveMiniDB:
    def test_topk_matches_brute_force_across_segments_and_tail(self, tmp_path):
        rng = np.random.default_rng(21)
        rows = rng.random((900, 2))
        store = LiveMiniDB(tmp_path / "db", d=2, seal_rows=250, buffer_pages=16)
        for row in rows:
            store.append(row)
        u = np.array([0.3, 0.7])
        scores = rows @ u
        for k, lo, hi in [(3, 0, 899), (2, 700, 820), (5, 740, 760), (1, 0, 10)]:
            assert store.topk(u, k, lo, hi) == brute_force_topk(scores, k, lo, hi)
        store.close()

    @pytest.mark.parametrize("procedure", [t_hop_procedure, t_base_procedure])
    def test_procedures_run_unchanged_over_live_store(self, tmp_path, procedure):
        rng = np.random.default_rng(22)
        rows = rng.random((600, 2))
        store = LiveMiniDB(tmp_path / "db", d=2, seal_rows=200, buffer_pages=16)
        for row in rows:
            store.append(row)
        u = np.array([0.5, 0.5])
        report = procedure(store, u, 2, 75)
        assert report.ids == brute_force_durable_topk(rows @ u, 2, 0, 599, 75)
        store.close()

    def test_page_accounting_exact_across_reopen(self, tmp_path):
        """Sealed segments come back with identical page placement, so a
        cold query costs exactly the same pages before and after reopen."""
        rng = np.random.default_rng(23)
        store = LiveMiniDB(tmp_path / "db", d=2, seal_rows=150, buffer_pages=16)
        for row in rng.random((700, 2)):
            store.append(row)
        store.seal()
        u = np.array([0.8, 0.2])
        before = t_hop_procedure(store, u, 2, 90, cold=True)
        store.close()
        reopened = LiveMiniDB(tmp_path / "db")
        after = t_hop_procedure(reopened, u, 2, 90, cold=True)
        assert after.ids == before.ids
        assert after.logical_reads == before.logical_reads
        assert after.physical_reads == before.physical_reads
        reopened.close()

    def test_appends_visible_before_seal_and_durable_after_flush(self, tmp_path):
        store = LiveMiniDB(tmp_path / "db", d=1, seal_rows=None)
        store.append([3.0])
        store.append([1.0], flush=True)
        assert store.n == 2 and store.sealed_rows == 0
        assert store.topk(np.array([1.0]), 1, 0, 1) == [0]
        store.close()
        reopened = LiveMiniDB(tmp_path / "db")
        assert reopened.n == 2
        reopened.close()
