"""Failure-injection tests: malformed queries, degenerate data, bad
input, and crashes of the live MiniDB writer."""

import numpy as np
import pytest

from repro.core.engine import DurableTopKEngine, durable_topk
from repro.core.query import DurableTopKQuery
from repro.core.record import Dataset
from repro.core.reference import brute_force_durable_topk
from repro.minidb import LiveMiniDB
from repro.minidb.procedures import t_hop_procedure
from repro.scoring import LinearPreference


@pytest.fixture()
def tiny():
    return Dataset(np.array([[1.0], [3.0], [2.0]]), name="tiny")


class TestDegenerateData:
    def test_single_record_dataset(self):
        data = Dataset(np.array([[5.0]]))
        res = durable_topk(data, LinearPreference([1.0]), k=1, tau=1)
        assert res.ids == [0]

    def test_two_records_all_algorithms(self):
        data = Dataset(np.array([[1.0], [2.0]]))
        engine = DurableTopKEngine(data, skyband_k_max=2)
        results = engine.compare(DurableTopKQuery(k=1, tau=1), LinearPreference([1.0]))
        assert all(r.ids == [0, 1] for r in results.values())

    def test_identical_records(self):
        data = Dataset(np.ones((20, 2)))
        engine = DurableTopKEngine(data, skyband_k_max=2)
        results = engine.compare(
            DurableTopKQuery(k=1, tau=5), LinearPreference([0.5, 0.5])
        )
        # Nothing strictly better anywhere: every record durable.
        assert all(r.ids == list(range(20)) for r in results.values())

    def test_strictly_decreasing_scores(self, tiny):
        data = Dataset(np.arange(50, 0, -1, dtype=float)[:, None])
        res = durable_topk(data, LinearPreference([1.0]), k=1, tau=10)
        assert res.ids == [0]  # only the first record is ever on top

    def test_strictly_increasing_scores(self):
        data = Dataset(np.arange(50, dtype=float)[:, None])
        res = durable_topk(data, LinearPreference([1.0]), k=1, tau=10)
        assert res.ids == list(range(50))  # every record tops its window


class TestMalformedQueries:
    def test_k_larger_than_dataset(self, tiny):
        res = durable_topk(tiny, LinearPreference([1.0]), k=100, tau=1)
        assert res.ids == [0, 1, 2]

    def test_tau_larger_than_dataset(self, tiny):
        res = durable_topk(tiny, LinearPreference([1.0]), k=1, tau=1_000_000)
        assert res.ids == [0, 1]  # record 2 (score 2) is beaten by record 1

    def test_interval_entirely_outside(self, tiny):
        with pytest.raises(ValueError):
            durable_topk(tiny, LinearPreference([1.0]), k=1, tau=1, interval=(10, 20))

    def test_interval_partially_outside_is_clamped(self, tiny):
        res = durable_topk(tiny, LinearPreference([1.0]), k=1, tau=1, interval=(1, 99))
        assert all(1 <= t <= 2 for t in res.ids)


class TestBadScorers:
    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError):
            LinearPreference([np.nan])

    def test_inf_weights_rejected(self):
        with pytest.raises(ValueError):
            LinearPreference([np.inf, 1.0])

    def test_dimension_mismatch_fails_fast(self, tiny):
        with pytest.raises(ValueError):
            durable_topk(tiny, LinearPreference([1.0, 2.0]), k=1, tau=1)


class TestWriterCrash:
    """Kill the LiveMiniDB writer mid-append; reopen must recover a
    consistent table: every sealed segment intact, every flushed WAL row
    replayed, the torn in-flight entry dropped."""

    def _populate(self, directory, rows, seal_at):
        store = LiveMiniDB(directory, d=2, seal_rows=None, buffer_pages=16)
        for i, row in enumerate(rows):
            store.append(row)
            if i + 1 == seal_at:
                store.seal()
        store.flush()
        return store

    def test_kill_mid_append_replays_wal_losslessly(self, tmp_path):
        rng = np.random.default_rng(17)
        rows = rng.random((500, 2))
        store = self._populate(tmp_path / "db", rows, seal_at=300)
        # The writer dies halfway through the next append's WAL write:
        # a partial entry reaches the file, the process never returns.
        store.wal._file.write(b"\x42" * 13)
        store.wal._file.flush()
        del store  # no close(): the crash

        recovered = LiveMiniDB(tmp_path / "db")
        assert recovered.sealed_rows == 300  # no lost sealed segments
        assert recovered.n == 500  # all flushed tail rows replayed
        assert recovered.wal.recovered.torn_bytes == 13
        u = np.array([0.6, 0.4])
        report = t_hop_procedure(recovered, u, 2, 60)
        assert report.ids == brute_force_durable_topk(rows @ u, 2, 0, 499, 60)
        recovered.close()

    def test_unflushed_appends_are_lost_but_store_is_consistent(self, tmp_path):
        rng = np.random.default_rng(18)
        rows = rng.random((200, 2))
        store = self._populate(tmp_path / "db2", rows, seal_at=150)
        store.append(rng.random(2))  # buffered only, never flushed
        del store

        recovered = LiveMiniDB(tmp_path / "db2")
        assert recovered.n == 200  # the unflushed row is gone, rest intact
        assert recovered.sealed_rows == 150
        recovered.close()

    def test_crash_between_manifest_and_wal_truncate_does_not_duplicate(self, tmp_path):
        """A seal that died after committing the manifest but before
        truncating the WAL must not replay the sealed rows a second time
        (the manifest records the sealed WAL generation)."""
        rng = np.random.default_rng(20)
        rows = rng.random((120, 2))
        store = self._populate(tmp_path / "db4", rows, seal_at=0)
        # Replay seal() by hand, stopping right before wal.reset().
        values = np.asarray(store._tail, dtype=float)
        from repro.minidb.blockindex import BlockSkylineIndex

        store.table.append_rows(values)
        store.segments.append(
            BlockSkylineIndex(
                values, store.pager, store.buffer,
                block_rows=store.block_rows, fanout=store.fanout, row_base=0,
            )
        )
        store.pager.sync()
        store._sealed_generation = store.wal.generation
        store._write_manifest()
        del store  # crash before wal.reset() / _tail.clear()

        recovered = LiveMiniDB(tmp_path / "db4")
        assert recovered.n == 120  # not 240: sealed rows not replayed
        assert recovered.sealed_rows == 120
        u = np.array([0.4, 0.6])
        report = t_hop_procedure(recovered, u, 2, 30)
        assert report.ids == brute_force_durable_topk(rows @ u, 2, 0, 119, 30)
        # The recovered store keeps working: append, seal, reopen again.
        recovered.append(rng.random(2), flush=True)
        recovered.seal()
        recovered.close()
        again = LiveMiniDB(tmp_path / "db4")
        assert again.n == 121 and again.sealed_rows == 121
        again.close()

    def test_pooled_session_survives_partial_page_top_up(self, tmp_path):
        """A session that scored a page before a seal topped it up must
        re-score the page, not read stale or out-of-range scores."""
        store = LiveMiniDB(tmp_path / "db5", d=2, seal_rows=None, buffer_pages=16)
        rng = np.random.default_rng(30)
        first = rng.random((5, 2))  # far fewer rows than fit on a page
        for row in first:
            store.append(row)
        store.seal()
        u = np.array([0.5, 0.5])
        session = store.session(u)
        assert store.score_of(u, 2, session=session) == pytest.approx(first[2] @ u)
        later = rng.random((20, 2))  # lands on the same (topped-up) page
        for row in later:
            store.append(row)
        store.seal()
        every = np.vstack([first, later])
        for row_id in (2, 7, 19):  # old slot, new slots on the same page
            assert store.score_of(u, row_id, session=session) == pytest.approx(
                every[row_id] @ u
            )
        store.close()

    def test_crash_between_pages_and_manifest_rolls_back(self, tmp_path):
        """A seal that died after writing pages but before committing the
        manifest must roll back to the WAL copy on reopen."""
        rng = np.random.default_rng(19)
        rows = rng.random((400, 2))
        store = self._populate(tmp_path / "db3", rows, seal_at=250)
        # Simulate the torn seal: pages + index written, manifest not.
        values = np.asarray(store._tail, dtype=float)
        store.table.append_rows(values)
        store.pager.sync()
        del store  # crash before _write_manifest / wal.reset

        recovered = LiveMiniDB(tmp_path / "db3")
        assert recovered.sealed_rows == 250  # uncommitted pages discarded
        assert recovered.n == 400  # rows still recovered via the WAL
        u = np.array([0.5, 0.5])
        report = t_hop_procedure(recovered, u, 1, 40)
        assert report.ids == brute_force_durable_topk(rows @ u, 1, 0, 399, 40)
        recovered.close()


class TestBadDatasets:
    def test_empty_dataset_query_fails(self):
        data = Dataset(np.zeros((0, 2)).reshape(0, 2))
        engine = DurableTopKEngine(data)
        with pytest.raises(ValueError):
            engine.query(DurableTopKQuery(k=1, tau=1), LinearPreference([1.0, 1.0]))

    def test_values_coerced_to_float(self):
        data = Dataset(np.array([[1], [2]], dtype=int))
        assert data.values.dtype == np.float64
