"""Tests for the MiniDB storage engine and its stored procedures."""

import numpy as np
import pytest

from repro.core.record import Dataset
from repro.core.reference import brute_force_durable_topk, brute_force_topk
from repro.minidb import (
    BufferPool,
    HeapTable,
    MiniDB,
    Pager,
    t_base_procedure,
    t_hop_procedure,
)


class TestPager:
    def test_page_roundtrip(self):
        with Pager(page_size=256) as pager:
            pid = pager.allocate()
            pager.write_page(pid, b"hello")
            data = pager.read_page(pid)
            assert data[:5] == b"hello"
            assert len(data) == 256

    def test_short_writes_zero_padded(self):
        with Pager(page_size=128) as pager:
            pager.write_page(0, b"x")
            assert pager.read_page(0)[1:] == b"\x00" * 127

    def test_oversized_write_rejected(self):
        with Pager(page_size=64) as pager:
            with pytest.raises(ValueError):
                pager.write_page(0, b"y" * 65)

    def test_read_unallocated_rejected(self):
        with Pager() as pager:
            with pytest.raises(IndexError):
                pager.read_page(0)

    def test_counters(self):
        with Pager(page_size=64) as pager:
            pager.write_page(0, b"a")
            pager.write_page(1, b"b")
            pager.read_page(0)
            assert pager.physical_writes == 2
            assert pager.physical_reads == 1

    def test_tiny_page_size_rejected(self):
        with pytest.raises(ValueError):
            Pager(page_size=16)


class TestBufferPool:
    def test_caches_repeated_reads(self):
        with Pager(page_size=64) as pager:
            pager.write_page(0, b"a")
            pool = BufferPool(pager, capacity=2)
            pool.get(0)
            pool.get(0)
            assert pool.logical_reads == 2
            assert pool.physical_reads == 1
            assert pool.hit_rate == 0.5

    def test_lru_eviction(self):
        with Pager(page_size=64) as pager:
            for i in range(3):
                pager.write_page(i, bytes([i]))
            pool = BufferPool(pager, capacity=2)
            pool.get(0)
            pool.get(1)
            pool.get(2)  # evicts 0
            pool.get(0)  # miss again
            assert pool.physical_reads == 4

    def test_reset_and_clear(self):
        with Pager(page_size=64) as pager:
            pager.write_page(0, b"a")
            pool = BufferPool(pager, capacity=2)
            pool.get(0)
            pool.reset_counters()
            assert pool.logical_reads == 0
            pool.clear()
            pool.get(0)
            assert pool.physical_reads == 1

    def test_capacity_validation(self):
        with Pager() as pager:
            with pytest.raises(ValueError):
                BufferPool(pager, capacity=0)

    def test_repeated_read_of_newest_page_counts_and_keeps_lru_order(self):
        with Pager(page_size=64) as pager:
            for i in range(3):
                pager.write_page(i, bytes([i]))
            pool = BufferPool(pager, capacity=2)
            pool.get(0)
            pool.get(1)
            pool.get(1)
            pool.get(1)
            assert (pool.logical_reads, pool.physical_reads) == (4, 2)
            pool.get(2)  # evicts 0, the least recently used
            pool.get(1)
            assert pool.physical_reads == 3
            pool.get(0)
            assert pool.physical_reads == 4

    @pytest.mark.parametrize("drop", ["invalidate", "clear"])
    def test_dropping_the_newest_page_rereads_it(self, drop):
        with Pager(page_size=64) as pager:
            pager.write_page(0, b"a")
            pool = BufferPool(pager, capacity=2)
            assert pool.get(0)[:1] == b"a"
            pager.write_page(0, b"b")
            if drop == "invalidate":
                pool.invalidate(0)
            else:
                pool.clear()
            assert pool.get(0)[:1] == b"b"
            assert pool.physical_reads == 2


class TestHeapTable:
    @pytest.fixture()
    def loaded(self):
        pager = Pager(page_size=512)
        pool = BufferPool(pager, capacity=8)
        rng = np.random.default_rng(1)
        values = rng.random((100, 3))
        table = HeapTable.from_values(values, pager, pool)
        yield table, values
        pager.close()

    def test_row_roundtrip(self, loaded):
        table, values = loaded
        for row_id in (0, 1, 50, 99):
            assert np.allclose(table.read_row(row_id), values[row_id])

    def test_read_page_rows(self, loaded):
        table, values = loaded
        pages = [table.read_page_rows(i) for i in range(table.n_pages)]
        assert len(pages[-1]) < table.rows_per_page  # a partial last page
        assert np.array_equal(np.concatenate(pages), values)
        assert table.buffer.logical_reads == table.n_pages
        for page_index in (-1, table.n_pages):
            with pytest.raises(IndexError):
                table.read_page_rows(page_index)

    def test_out_of_range_row(self, loaded):
        table, _ = loaded
        with pytest.raises(IndexError):
            table.read_row(100)

    def test_tuple_header_reduces_density(self):
        pager = Pager(page_size=512)
        pool = BufferPool(pager, capacity=4)
        values = np.ones((10, 2))
        dense = HeapTable.from_values(values, pager, pool, tuple_header_bytes=0)
        padded_pager = Pager(page_size=512)
        padded = HeapTable.from_values(
            values, padded_pager, BufferPool(padded_pager, capacity=4), tuple_header_bytes=48
        )
        assert dense.rows_per_page > padded.rows_per_page
        pager.close()
        padded_pager.close()

    def test_row_too_wide_rejected(self):
        pager = Pager(page_size=64)
        pool = BufferPool(pager, capacity=2)
        with pytest.raises(ValueError):
            HeapTable(pager, pool, d=64)
        pager.close()


class TestBlockIndexTopK:
    @pytest.fixture(scope="class")
    def db(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.random((3000, 2)), name="minidb-test")
        db = MiniDB(data, buffer_pages=32, block_rows=64, fanout=4)
        yield db
        db.close()

    def test_matches_brute_force(self, db):
        rng = np.random.default_rng(3)
        scores_u = np.array([0.3, 0.7])
        scores = db.dataset.values @ scores_u
        for _ in range(60):
            lo, hi = sorted(rng.integers(0, 3000, 2))
            k = int(rng.integers(1, 12))
            assert db.topk(scores_u, k, int(lo), int(hi)) == brute_force_topk(
                scores, k, int(lo), int(hi)
            )

    def test_ub_cache_gives_same_answers(self, db):
        u = np.array([0.5, 0.5])
        scores = db.dataset.values @ u
        cache: dict = {}
        for lo, hi, k in ((0, 2999, 5), (100, 900, 3), (2000, 2500, 8)):
            assert db.topk(u, k, lo, hi, ub_cache=cache) == brute_force_topk(scores, k, lo, hi)

    def test_session_gives_same_answers_and_accounting(self, db):
        """A session changes neither answers nor page accounting."""
        u = np.array([0.2, 0.8])
        scores = db.dataset.values @ u
        windows = ((0, 2999, 5), (100, 900, 3), (2000, 2500, 8), (1500, 2400, 5))
        ub_cache: dict = {}  # the seed-era caching baseline
        db.reset_io(cold=True)
        plain = [db.topk(u, k, lo, hi, ub_cache=ub_cache) for lo, hi, k in windows]
        plain_io = db.io_stats()
        session = db.session(u)
        db.reset_io(cold=True)
        cached = [db.topk(u, k, lo, hi, session=session) for lo, hi, k in windows]
        session_io = db.io_stats()
        assert plain == cached
        for (lo, hi, k), ids in zip(windows, plain):
            assert ids == brute_force_topk(scores, k, lo, hi)
        # The session's extra caches replay their page reads on every hit,
        # so logical/physical accounting is identical to ub-cache-only.
        assert session_io == plain_io

    def test_large_k_finalization(self, db):
        """Regression for the O(n^2) finalization: a large ``k`` collects
        thousands of candidates and must still match brute force."""
        u = np.array([0.6, 0.4])
        scores = db.dataset.values @ u
        for k in (500, 1000, 2500):
            assert db.topk(u, k, 0, 2999) == brute_force_topk(scores, k, 0, 2999)

    def test_session_bound_to_one_preference(self, db):
        session = db.session(np.array([0.5, 0.5]))
        other = np.array([0.9, 0.1])
        with pytest.raises(ValueError):
            db.topk(other, 5, 0, 100, session=session)
        with pytest.raises(ValueError):
            db.score_of(other, 7, session=session)

    def test_session_score_of_matches_plain(self, db):
        u = np.array([0.45, 0.55])
        session = db.session(u)
        for row in (0, 63, 64, 1234, 2999):
            assert db.score_of(u, row, session=session) == pytest.approx(
                db.score_of(u, row)
            )

    def test_empty_and_degenerate(self, db):
        u = np.array([1.0, 0.0])
        assert db.topk(u, 0, 0, 100) == []
        assert db.topk(u, 5, 500, 400) == []
        assert db.topk(u, 5, -10, -1) == []

    def test_pages_counted(self, db):
        db.reset_io(cold=True)
        db.topk(np.array([0.9, 0.1]), 5, 0, 2999)
        stats = db.io_stats()
        assert stats["logical_reads"] > 0
        assert stats["physical_reads"] > 0


class TestStoredProcedures:
    @pytest.fixture(scope="class")
    def db(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.random((4000, 2)), name="proc-test")
        db = MiniDB(data, buffer_pages=16, block_rows=64)
        yield db
        db.close()

    @pytest.mark.parametrize("k,tau", [(1, 100), (5, 400), (10, 2000)])
    def test_procedures_match_oracle(self, db, k, tau):
        u = np.array([0.6, 0.4])
        scores = db.dataset.values @ u
        expected = brute_force_durable_topk(scores, k, 1000, 3999, tau)
        hop = t_hop_procedure(db, u, k, tau, 1000, 3999)
        base = t_base_procedure(db, u, k, tau, 1000, 3999)
        assert hop.ids == expected
        assert base.ids == expected

    def test_hop_reads_fewer_pages_on_selective_query(self, db):
        u = np.array([0.5, 0.5])
        hop = t_hop_procedure(db, u, 5, 2000, 0, 3999)
        base = t_base_procedure(db, u, 5, 2000, 0, 3999)
        assert hop.logical_reads < base.logical_reads

    def test_report_dict(self, db):
        u = np.array([0.5, 0.5])
        rep = t_hop_procedure(db, u, 2, 500, 1000, 2000)
        d = rep.as_dict()
        assert d["algorithm"] == "t-hop"
        assert d["answer_size"] == len(rep.ids)
        assert d["physical_reads"] >= 0

    @pytest.mark.parametrize("proc", [t_hop_procedure, t_base_procedure])
    def test_empty_interval_returns_empty_report(self, db, proc):
        """``lo > hi`` answers with an empty report, like the in-memory
        engine's empty-window semantics — not an error."""
        rep = proc(db, np.array([1.0, 0.0]), 1, 10, 100, 50)
        assert rep.ids == []
        assert rep.topk_queries == 0
        assert rep.logical_reads == 0 and rep.physical_reads == 0

    @pytest.mark.parametrize("proc", [t_hop_procedure, t_base_procedure])
    def test_interval_beyond_data_is_empty(self, db, proc):
        rep = proc(db, np.array([1.0, 0.0]), 2, 10, 4000, 5000)
        assert rep.ids == []

    @pytest.mark.parametrize("proc", [t_hop_procedure, t_base_procedure])
    @pytest.mark.parametrize("k,tau", [(0, 10), (-1, 10), (3, -1)])
    def test_unsatisfiable_parameters_rejected(self, db, proc, k, tau):
        with pytest.raises(ValueError):
            proc(db, np.array([1.0, 0.0]), k, tau, 0, 100)

    @pytest.mark.parametrize("proc", [t_hop_procedure, t_base_procedure])
    def test_tau_zero_makes_every_record_durable(self, db, proc):
        """With ``tau = 0`` every window holds only its own record."""
        u = np.array([0.3, 0.7])
        scores = db.dataset.values @ u
        expected = brute_force_durable_topk(scores, 3, 3900, 3999, 0)
        rep = proc(db, u, 3, 0, 3900, 3999)
        assert rep.ids == expected == list(range(3900, 4000))

    def test_storage_accounting(self, db):
        assert db.storage_pages() > 0
        assert db.storage_bytes() == db.storage_pages() * db.pager.page_size
        assert db.n == 4000


class TestSessionMemory:
    """A session's score cache is bounded by the table, not the workload."""

    @staticmethod
    def cached_scores(session) -> int:
        """Float scores the session's caches hold (decoded points aside)."""
        total = 0
        for cls in type(session).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if name in ("u", "points"):
                    continue
                value = getattr(session, name, None)
                values = value.values() if isinstance(value, dict) else [value]
                total += sum(
                    v.size for v in values if isinstance(v, np.ndarray) and v.dtype.kind == "f"
                )
        return total

    def test_many_queries_hold_at_most_one_score_per_row(self):
        n = 10_000
        rng = np.random.default_rng(9)
        with MiniDB(Dataset(rng.random((n, 2)), name="session-memory")) as db:
            u = np.array([0.35, 0.65])
            session = db.session(u)
            for k in (5, 10, 25):
                for tau_fraction in (0.01, 0.05, 0.10, 0.25):
                    for length_fraction in (0.1, 0.3, 0.5, 0.8):
                        lo = n - int(n * length_fraction)
                        tau = int(n * tau_fraction)
                        for procedure in (t_hop_procedure, t_base_procedure):
                            procedure(db, u, k, tau, lo, n - 1, cold=False, session=session)
            assert 0 < self.cached_scores(session) <= db.table.n_rows
