"""The MiniDB facade: one dataset loaded as a table + index table."""

from __future__ import annotations

import numpy as np

from repro.core.record import Dataset
from repro.minidb.blockindex import BlockSkylineIndex
from repro.minidb.buffer import BufferPool
from repro.minidb.pager import PAGE_SIZE, Pager
from repro.minidb.session import MiniDBSession
from repro.minidb.table import HeapTable

__all__ = ["MiniDB", "buffered_score_of"]


def buffered_score_of(
    table: HeapTable,
    u: np.ndarray,
    row_id: int,
    session: MiniDBSession | None = None,
) -> float:
    """One row's preference score via one buffered page read.

    With a ``session`` the score comes from its per-row store (the page
    is decoded and scored on the session's first read of it). Shared by
    the bulk-loaded :class:`MiniDB` and the live append store.
    """
    if session is None:
        return float(np.dot(table.read_row(row_id), u))
    if u is not session.u and not np.array_equal(u, session.u):
        raise ValueError(
            "session was opened for a different preference vector; "
            "open one per preference via MiniDB.session()"
        )
    return session.row_score(table, row_id)


class MiniDB:
    """A dataset loaded into page storage with a block-skyline index.

    Parameters
    ----------
    dataset:
        The dataset to load (bulk insert, clustered on arrival time).
    page_size:
        Bytes per page.
    buffer_pages:
        LRU buffer pool capacity, in pages. Deliberately much smaller than
        the table so that full scans actually pay physical reads.
    block_rows / fanout:
        Index-table granularity (see
        :class:`~repro.minidb.blockindex.BlockSkylineIndex`).
    """

    def __init__(
        self,
        dataset: Dataset,
        page_size: int = PAGE_SIZE,
        buffer_pages: int = 64,
        block_rows: int = 256,
        fanout: int = 8,
        tuple_header_bytes: int | None = None,
    ) -> None:
        from repro.minidb.table import TUPLE_HEADER_BYTES

        self.dataset = dataset
        self.pager = Pager(page_size)
        self.buffer = BufferPool(self.pager, capacity=buffer_pages)
        header = TUPLE_HEADER_BYTES if tuple_header_bytes is None else tuple_header_bytes
        self.table = HeapTable.from_values(
            dataset.values, self.pager, self.buffer, tuple_header_bytes=header
        )
        self.index = BlockSkylineIndex(
            dataset.values, self.pager, self.buffer, block_rows=block_rows, fanout=fanout
        )

    @property
    def n(self) -> int:
        """Number of loaded rows."""
        return self.table.n_rows

    def storage_pages(self) -> int:
        """Total allocated pages (data + index)."""
        return self.pager.n_pages

    def storage_bytes(self) -> int:
        """Total on-disk footprint in bytes."""
        return self.pager.n_pages * self.pager.page_size

    def session(self, u: np.ndarray) -> MiniDBSession:
        """Open a query session bound to preference ``u``.

        The session memoises per-preference CPU work (block upper bounds,
        decoded skyline points, per-row scores) across consecutive top-k
        calls while the page accounting stays exactly as without it — see
        :mod:`repro.minidb.session`.
        """
        return MiniDBSession(u)

    def topk(
        self,
        u: np.ndarray,
        k: int,
        lo: int,
        hi: int,
        ub_cache: dict | None = None,
        session: MiniDBSession | None = None,
    ) -> list[int]:
        """Range top-k through the index table (page-accounted)."""
        return self.index.topk(self.table, u, k, lo, hi, ub_cache=ub_cache, session=session)

    def score_of(
        self, u: np.ndarray, row_id: int, session: MiniDBSession | None = None
    ) -> float:
        """One row's preference score (a buffered row read); see
        :func:`buffered_score_of`."""
        return buffered_score_of(self.table, u, row_id, session)

    def reset_io(self, cold: bool = False) -> None:
        """Zero the I/O counters; with ``cold`` also empty the buffer pool."""
        if cold:
            self.buffer.clear()
        self.buffer.reset_counters()

    def io_stats(self) -> dict[str, int | float]:
        """Current buffer-pool counters."""
        return {
            "logical_reads": self.buffer.logical_reads,
            "physical_reads": self.buffer.physical_reads,
            "hit_rate": round(self.buffer.hit_rate, 4),
        }

    def close(self) -> None:
        """Release the backing storage."""
        self.pager.close()

    def __enter__(self) -> "MiniDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
