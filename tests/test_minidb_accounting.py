"""MiniDB page accounting, pinned to fixed digests.

The session caches above the buffer pool save decode and scoring CPU
only: every cached read still issues the ``BufferPool.get`` calls of an
uncached read, for the same pages in the same ascending order. These
tests run a seeded grid of stored-procedure invocations and direct
top-k calls and hash each case's ``(ids, topk_queries, logical_reads,
physical_reads)``. The digests were recorded with the uncached-read
accounting; a cache that skips, adds or reorders a page read (with a
2–4 page buffer pool, reordering changes which pages get evicted) moves
a digest.

The grid covers both procedures, both batch procedures (``cold`` on and
off), one warm session reused across procedures and windows, two
table/index geometries, ``tau = 0``, and a live store whose partial last
page is topped up while a session stays warm.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.record import Dataset
from repro.minidb import (
    LiveMiniDB,
    MiniDB,
    t_base_batch_procedure,
    t_base_procedure,
    t_hop_batch_procedure,
    t_hop_procedure,
)

N = 2500

#: ``(d, tuple_header_bytes, block_rows, fanout)``: the default row
#: layout with 64-row leaves, and header-free rows whose 37-row leaves
#: straddle page boundaries.
GEOMETRIES = {
    "wide-rows": (2, 40, 64, 4),
    "packed-rows": (3, 0, 37, 3),
}

DIGESTS = {
    "procedures-wide-rows-2": "04bf6377bf2edca5",
    "procedures-wide-rows-3": "2afd6c4ce31196e8",
    "procedures-wide-rows-4": "4217a55cbfb29062",
    "procedures-packed-rows-2": "f76bb0fab84c2c59",
    "procedures-packed-rows-3": "3ae7bf26aefc0785",
    "procedures-packed-rows-4": "5e1280c138c5e1ca",
    "batch-wide-rows-cold": "2c375e6ed2100e32",
    "batch-wide-rows-warm": "7b1c0ad785464ecd",
    "batch-packed-rows-cold": "1e2fa156495723c8",
    "batch-packed-rows-warm": "1e2fa156495723c8",
    "warm-session-wide-rows": "51c1855424a70c2c",
    "warm-session-packed-rows": "c1dc2a77868c90d4",
    "live-top-up": "accdf5831daf04a3",
}


def _digest(records: list) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def _report(report) -> tuple:
    return (
        report.algorithm,
        tuple(report.ids),
        report.topk_queries,
        report.logical_reads,
        report.physical_reads,
    )


def _queries(seed: int, n: int) -> list[tuple]:
    """Seeded ``(k, tau, lo, hi)`` points, ``tau = 0`` and open ends included."""
    rng = np.random.default_rng(seed)
    queries: list[tuple] = [(3, 0, n // 3, n // 3 + 120), (4, 50, None, None)]
    for _ in range(6):
        k = int(rng.integers(1, 12))
        tau = int(rng.choice([0, 7, 60, 300, 1200]))
        lo, hi = sorted(int(x) for x in rng.integers(0, n, 2))
        queries.append((k, tau, lo, hi))
    return queries


def _database(geometry: str, buffer_pages: int) -> MiniDB:
    d, header, block_rows, fanout = GEOMETRIES[geometry]
    values = np.random.default_rng([d, header, block_rows]).random((N, d))
    return MiniDB(
        Dataset(values, name=geometry),
        buffer_pages=buffer_pages,
        block_rows=block_rows,
        fanout=fanout,
        tuple_header_bytes=header,
    )


def _preference(d: int, seed: int) -> np.ndarray:
    u = np.random.default_rng(seed).random(d) + 0.05
    return u / u.sum()


def _procedures_case(geometry: str, buffer_pages: int) -> list:
    records = []
    with _database(geometry, buffer_pages) as db:
        u = _preference(db.dataset.d, 1)
        for k, tau, lo, hi in _queries(buffer_pages, N):
            for procedure in (t_hop_procedure, t_base_procedure):
                for cold in (True, False):
                    records.append(_report(procedure(db, u, k, tau, lo, hi, cold=cold)))
    return records


def _batch_case(geometry: str, cold: bool) -> list:
    records = []
    with _database(geometry, 3) as db:
        u = _preference(db.dataset.d, 2)
        queries = _queries(17, N)
        queries = queries + queries[:3]  # duplicates: deduplicated when cold
        for batch in (t_hop_batch_procedure, t_base_batch_procedure):
            records.extend(_report(r) for r in batch(db, u, queries, cold=cold))
    return records


def _warm_session_case(geometry: str) -> list:
    records = []
    with _database(geometry, 4) as db:
        u = _preference(db.dataset.d, 3)
        session = db.session(u)
        for i, (k, tau, lo, hi) in enumerate(_queries(29, N)):
            procedure = (t_hop_procedure, t_base_procedure)[i % 2]
            records.append(_report(procedure(db, u, k, tau, lo, hi, cold=False, session=session)))
            db.reset_io()
            ids = db.topk(u, k, lo or 0, hi or N - 1, session=session)
            db.score_of(u, hi or N - 1, session=session)
            io = db.io_stats()
            records.append((tuple(ids), io["logical_reads"], io["physical_reads"]))
    return records


def _live_case(directory) -> list:
    records = []
    rng = np.random.default_rng(41)
    store = LiveMiniDB(
        directory, d=2, seal_rows=None, buffer_pages=3, block_rows=32, fanout=3
    )
    u = _preference(2, 4)
    session = store.session(u)

    def grow(rows: int, seal: bool) -> None:
        for row in rng.random((rows, 2)):
            store.append(row)
        if seal:
            store.seal()

    def probe() -> None:
        n = store.n
        for k, tau, lo, hi in ((5, 90, n // 2, n - 1), (2, 0, 0, n - 1), (7, 400, None, None)):
            for procedure in (t_hop_procedure, t_base_procedure):
                records.append(
                    _report(procedure(store, u, k, tau, lo, hi, cold=False, session=session))
                )
        store.reset_io()
        ids = store.topk(u, 6, n - 300, n - 1, session=session)
        io = store.io_stats()
        records.append((tuple(ids), io["logical_reads"], io["physical_reads"]))

    try:
        grow(1000, seal=True)  # 1000 rows: the last 73-row page holds 51
        probe()
        grow(40, seal=True)  # tops that page up, then opens a new one
        grow(7, seal=False)  # an unsealed tail
        probe()
        grow(500, seal=True)
        probe()
    finally:
        store.close()
    return records


CASES = (
    [(f"procedures-{g}-{b}", _procedures_case, (g, b)) for g in GEOMETRIES for b in (2, 3, 4)]
    + [
        (f"batch-{g}-{'cold' if cold else 'warm'}", _batch_case, (g, cold))
        for g in GEOMETRIES
        for cold in (True, False)
    ]
    + [(f"warm-session-{g}", _warm_session_case, (g,)) for g in GEOMETRIES]
)


@pytest.mark.parametrize("name,case,args", CASES, ids=[name for name, _, _ in CASES])
def test_page_accounting_is_pinned(name, case, args):
    assert _digest(case(*args)) == DIGESTS[name]


def test_live_top_up_accounting_is_pinned(tmp_path):
    assert _digest(_live_case(tmp_path / "live")) == DIGESTS["live-top-up"]
