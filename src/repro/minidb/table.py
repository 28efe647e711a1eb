"""Heap table of fixed-width float rows.

Rows are the records' ``d`` float64 attributes; the row id *is* the
normalised arrival time, so the table is clustered on time — exactly how
the paper loads its temporal tables ("an additional column representing
arriving time instant", primary-key ordered).

Each row carries ``tuple_header_bytes`` of per-tuple overhead, modelling a
real DBMS (PostgreSQL spends ~23 bytes of tuple header plus item pointer
and alignment per row). Without it, narrow laptop-scale tables would fit
entirely inside the buffer pool and the paged experiments would measure
nothing.

The table keeps a page table (``row page index -> page id``) rather than
assuming its pages are contiguous in the file: the live append path
interleaves heap pages with per-segment index pages, so a bulk-loaded
run and later appended runs may sit apart. Bulk loads still produce the
same dense layout as before.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.minidb.buffer import BufferPool
from repro.minidb.pager import Pager

__all__ = ["HeapTable", "TUPLE_HEADER_BYTES"]

#: Default per-tuple overhead (header + item pointer + alignment).
TUPLE_HEADER_BYTES = 40


class HeapTable:
    """Fixed-width rows packed into pages, addressed by row id.

    Row layout: ``d`` little-endian float64 attributes followed by
    ``tuple_header_bytes`` of padding.
    """

    def __init__(
        self,
        pager: Pager,
        buffer_pool: BufferPool,
        d: int,
        tuple_header_bytes: int = TUPLE_HEADER_BYTES,
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if tuple_header_bytes < 0:
            raise ValueError(f"tuple_header_bytes must be >= 0, got {tuple_header_bytes}")
        self._pager = pager
        self.buffer = buffer_pool
        self.d = d
        self.payload_bytes = 8 * d
        self.row_bytes = self.payload_bytes + tuple_header_bytes
        self.rows_per_page = pager.page_size // self.row_bytes
        if self.rows_per_page < 1:
            raise ValueError(
                f"a {pager.page_size}-byte page cannot hold a {self.row_bytes}-byte row"
            )
        self.n_rows = 0
        self.page_ids: list[int] = []  # row page index -> page id (read-only)
        self._fmt = f"<{d}d"

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        pager: Pager,
        buffer_pool: BufferPool,
        tuple_header_bytes: int = TUPLE_HEADER_BYTES,
    ) -> "HeapTable":
        """Bulk-load an ``(n, d)`` matrix into a fresh table."""
        values = np.ascontiguousarray(values, dtype="<f8")
        table = cls(pager, buffer_pool, values.shape[1], tuple_header_bytes)
        table.append_rows(values)
        return table

    @classmethod
    def attach(
        cls,
        pager: Pager,
        buffer_pool: BufferPool,
        d: int,
        pages: list[int],
        n_rows: int,
        tuple_header_bytes: int = TUPLE_HEADER_BYTES,
    ) -> "HeapTable":
        """Re-attach a table whose pages already exist (recovery path)."""
        table = cls(pager, buffer_pool, d, tuple_header_bytes)
        if n_rows > len(pages) * table.rows_per_page:
            raise ValueError(f"{n_rows} rows cannot fit in {len(pages)} pages")
        table.n_rows = n_rows
        table.page_ids = list(pages)
        return table

    def append_rows(self, values: np.ndarray) -> int:
        """Append ``(m, d)`` rows; returns the first new row id.

        Fills the trailing partial page in place (read-modify-write
        through the pager, with the stale buffered copy invalidated),
        then packs the remainder into freshly allocated pages — the
        append pages of the live ingest path.
        """
        values = np.ascontiguousarray(values, dtype="<f8")
        if values.ndim != 2 or values.shape[1] != self.d:
            raise ValueError(f"values must be (m, {self.d}), got {values.shape}")
        first_new = self.n_rows
        if len(values) == 0:
            return first_new
        rpp = self.rows_per_page
        start = 0
        slot = self.n_rows % rpp
        if slot:
            # Top up the partial last page.
            page_id = self.page_ids[-1]
            take = min(rpp - slot, len(values))
            data = bytearray(self._pager.read_page(page_id))
            chunk = values[:take]
            packed = np.zeros((take, self.row_bytes), dtype=np.uint8)
            packed[:, : self.payload_bytes] = chunk.view(np.uint8).reshape(
                take, self.payload_bytes
            )
            data[slot * self.row_bytes : (slot + take) * self.row_bytes] = packed.tobytes()
            self._pager.write_page(page_id, bytes(data))
            self.buffer.invalidate(page_id)
            start = take
        while start < len(values):
            chunk = values[start : start + rpp]
            packed = np.zeros((len(chunk), self.row_bytes), dtype=np.uint8)
            packed[:, : self.payload_bytes] = chunk.view(np.uint8).reshape(
                len(chunk), self.payload_bytes
            )
            page_id = self._pager.n_pages
            self._pager.write_page(page_id, packed.tobytes())
            self.page_ids.append(page_id)
            start += len(chunk)
        self.n_rows += len(values)
        return first_new

    @property
    def n_pages(self) -> int:
        """Number of data pages the table occupies."""
        return len(self.page_ids)

    @property
    def pages(self) -> list[int]:
        """Page ids in row order (manifest serialisation)."""
        return list(self.page_ids)

    def read_row(self, row_id: int) -> tuple[float, ...]:
        """One row's attribute values (a buffered page read)."""
        if not 0 <= row_id < self.n_rows:
            raise IndexError(f"row {row_id} out of range [0, {self.n_rows})")
        page_index, slot = divmod(row_id, self.rows_per_page)
        data = self.buffer.get(self.page_ids[page_index])
        return struct.unpack_from(self._fmt, data, slot * self.row_bytes)

    def read_page_rows(self, page_index: int) -> np.ndarray:
        """All rows on the table's ``page_index``-th data page, ``(m, d)``.

        One buffered page read — the same cost as a single ``read_row`` —
        decoded in bulk, so a session can score the whole page at once.
        """
        start_row = page_index * self.rows_per_page
        if not 0 <= start_row < self.n_rows:
            raise IndexError(f"page index {page_index} holds no rows of this table")
        count = min(self.rows_per_page, self.n_rows - start_row)
        data = self.buffer.get(self.page_ids[page_index])
        raw = np.frombuffer(data, dtype=np.uint8, count=count * self.row_bytes)
        payload = raw.reshape(count, self.row_bytes)[:, : self.payload_bytes]
        return np.ascontiguousarray(payload).view("<f8").reshape(count, self.d)
