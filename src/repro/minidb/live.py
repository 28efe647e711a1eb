"""LiveMiniDB: the paged store with an append path and crash recovery.

The bulk-loaded :class:`~repro.minidb.database.MiniDB` freezes its table
and index at construction; this store grows:

* ``append`` logs the row to a checksummed
  :class:`~repro.ingest.wal.WriteAheadLog` and keeps it in an in-memory
  tail — queryable immediately, durable once the WAL is flushed;
* ``seal`` packs the tail into heap **append pages**
  (:meth:`~repro.minidb.table.HeapTable.append_rows`), builds a
  per-segment :class:`~repro.minidb.blockindex.BlockSkylineIndex`
  addressing the *global* row space (``row_base``), fsyncs the data
  file, atomically replaces the JSON manifest, and only then truncates
  the WAL — the standard commit order, so a crash at any point loses at
  most unflushed tail rows;
* reopening a directory replays the manifest (pages + index catalogs —
  sealed segments come back with the exact same page placement, so page
  accounting for queries against sealed segments is identical before
  and after a crash) and then the WAL (tail rows, dropping a torn final
  entry).

``topk``/``score_of``/``n``/``session``/``reset_io``/``io_stats`` match
the :class:`MiniDB` surface, so the T-Base/T-Hop stored procedures and
the service's MiniDB backend run unchanged over a growing database.
Cross-segment top-k answers merge per-segment index answers with the
in-memory tail under the canonical order — exactly the stitched-index
construction of :mod:`repro.ingest.segments`, here with page accounting.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.ingest.wal import WriteAheadLog
from repro.minidb.blockindex import BlockSkylineIndex
from repro.minidb.buffer import BufferPool
from repro.minidb.database import buffered_score_of
from repro.minidb.pager import PAGE_SIZE, Pager
from repro.minidb.session import MiniDBSession
from repro.minidb.table import TUPLE_HEADER_BYTES, HeapTable

__all__ = ["LiveMiniDB"]

_MANIFEST = "MANIFEST.json"
_DATA = "data.pages"
_WAL = "wal.log"


class LiveMiniDB:
    """A directory-backed, append-able MiniDB with WAL recovery.

    Parameters
    ----------
    directory:
        Store location. An existing manifest triggers recovery (in which
        case ``d`` may be omitted); otherwise a fresh store is created.
    seal_rows:
        Tail size at which :meth:`append` auto-seals (``None`` disables;
        :meth:`seal` is always available explicitly).
    """

    def __init__(
        self,
        directory: str | Path,
        d: int | None = None,
        page_size: int = PAGE_SIZE,
        buffer_pages: int = 64,
        block_rows: int = 256,
        fanout: int = 8,
        tuple_header_bytes: int = TUPLE_HEADER_BYTES,
        seal_rows: int | None = 2048,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.seal_rows = seal_rows
        manifest_path = self.directory / _MANIFEST
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            if d is not None and d != manifest["d"]:
                raise ValueError(f"store holds d={manifest['d']}, requested d={d}")
            self.d = manifest["d"]
            self.page_size = manifest["page_size"]
            self.block_rows = manifest["block_rows"]
            self.fanout = manifest["fanout"]
            self.tuple_header_bytes = manifest["tuple_header_bytes"]
        else:
            if d is None:
                raise ValueError("a fresh store needs d")
            manifest = None
            self.d = d
            self.page_size = page_size
            self.block_rows = block_rows
            self.fanout = fanout
            self.tuple_header_bytes = tuple_header_bytes

        self.pager = Pager(self.page_size, path=self.directory / _DATA)
        self.buffer = BufferPool(self.pager, capacity=buffer_pages)
        self.segments: list[BlockSkylineIndex] = []
        if manifest is None:
            self.table = HeapTable(
                self.pager, self.buffer, self.d, tuple_header_bytes=self.tuple_header_bytes
            )
        else:
            # Roll back pages the crashed writer allocated but never
            # committed to the manifest, then re-attach table and indexes.
            if manifest["n_pages"] > self.pager.n_pages:
                raise ValueError(
                    f"data file holds {self.pager.n_pages} pages, "
                    f"manifest expects {manifest['n_pages']}"
                )
            self.pager.truncate(manifest["n_pages"])
            self.table = HeapTable.attach(
                self.pager,
                self.buffer,
                self.d,
                pages=manifest["table_pages"],
                n_rows=manifest["n_rows"],
                tuple_header_bytes=self.tuple_header_bytes,
            )
            self.segments = [
                BlockSkylineIndex.from_catalog(catalog, self.pager, self.buffer)
                for catalog in manifest["segments"]
            ]
        self.wal = WriteAheadLog(self.directory / _WAL, self.d)
        # Entries of generations <= _sealed_generation are already in
        # sealed pages; the WAL invariant is generation == sealed + 1.
        self._sealed_generation = (
            -1 if manifest is None else manifest.get("wal_generation_sealed", -1)
        )
        if self.wal.generation <= self._sealed_generation:
            # The crash hit between the manifest commit and the WAL
            # truncate: every logged entry is already in sealed pages.
            # Drop them and restore the generation invariant.
            self._tail: list[np.ndarray] = []
            self.wal.reset(generation=self._sealed_generation + 1)
        else:
            self._tail = [row for row in self.wal.recovered.rows]
            self._sealed_generation = self.wal.generation - 1
        if manifest is None:
            self._write_manifest()  # a fresh store is recoverable from t=0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Rows visible to queries (sealed + tail)."""
        return self.table.n_rows + len(self._tail)

    @property
    def sealed_rows(self) -> int:
        """Rows made durable in heap pages."""
        return self.table.n_rows

    def append(self, row, flush: bool = False) -> int:
        """Append one row; returns its global row id.

        The row is immediately queryable; it is *recoverable* once the
        WAL is flushed (``flush=True``, or group-commit via
        :meth:`flush`, or the next seal).
        """
        row = np.asarray(row, dtype=float).reshape(-1)
        if len(row) != self.d:
            raise ValueError(f"row has {len(row)} attributes, store has d={self.d}")
        self.wal.append(row)
        self._tail.append(row)
        t = self.table.n_rows + len(self._tail) - 1
        if flush:
            self.wal.flush()
        if self.seal_rows is not None and len(self._tail) >= self.seal_rows:
            self.seal()
        return t

    def flush(self, sync: bool = False) -> None:
        """Group-commit: make every appended row recoverable."""
        self.wal.flush(sync=sync)

    def seal(self) -> int:
        """Freeze the tail into heap pages + a segment index; rows sealed.

        Commit order: data pages -> fsync -> manifest (atomic rename,
        recording the sealed WAL generation) -> WAL truncate (bumping
        the generation). A crash before the manifest rename recovers the
        rows from the WAL; after it, from the pages — and the recorded
        generation stops recovery from replaying them a second time when
        the crash lands between the rename and the truncate.
        """
        if not self._tail:
            return 0
        values = np.asarray(self._tail, dtype=float)
        lo = self.table.n_rows
        self.table.append_rows(values)
        index = BlockSkylineIndex(
            values,
            self.pager,
            self.buffer,
            block_rows=self.block_rows,
            fanout=self.fanout,
            row_base=lo,
        )
        self.segments.append(index)
        self.pager.sync()
        self._sealed_generation = self.wal.generation
        self._write_manifest()
        self.wal.reset()
        self._tail.clear()
        return len(values)

    def _write_manifest(self) -> None:
        manifest = {
            "d": self.d,
            "page_size": self.page_size,
            "block_rows": self.block_rows,
            "fanout": self.fanout,
            "tuple_header_bytes": self.tuple_header_bytes,
            "n_pages": self.pager.n_pages,
            "n_rows": self.table.n_rows,
            "table_pages": self.table.pages,
            # Entries of these WAL generations are in pages; recovery
            # must not replay them even if the truncate is lost.
            "wal_generation_sealed": self._sealed_generation,
            "segments": [segment.to_catalog() for segment in self.segments],
        }
        tmp = self.directory / (_MANIFEST + ".tmp")
        with open(tmp, "w") as f:
            f.write(json.dumps(manifest))
            f.flush()
            os.fsync(f.fileno())  # the rename must not beat the content
        os.replace(tmp, self.directory / _MANIFEST)

    # ------------------------------------------------------------------
    # Read path (MiniDB-compatible surface)
    # ------------------------------------------------------------------
    def session(self, u: np.ndarray) -> MiniDBSession:
        """Open a query session bound to preference ``u``."""
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
        """Exact top-k row ids in ``[lo, hi]`` across segments and tail.

        Sealed candidates come from the per-segment index tables (page
        accounted, upper-bound pruned); tail candidates are in-memory
        (WAL-backed rows cost no page reads, as in any memtable). The
        merge under the canonical ``(score, id)`` descending order makes
        the stitched answer equal a single index over all rows.
        """
        if k <= 0:
            return []
        u = np.asarray(u, dtype=float)
        lo = max(lo, 0)
        hi = min(hi, self.n - 1)
        if hi < lo:
            return []
        if session is None:
            session = MiniDBSession(u)
            if ub_cache is not None:
                session.ub = ub_cache
        candidates: list[tuple[float, int]] = []
        for segment in self.segments:
            if segment.root is None or segment.root.hi < lo or segment.root.lo > hi:
                continue
            ids, scores = segment.topk_with_scores(
                self.table, u, k, lo, hi, session=session
            )
            candidates.extend(zip(scores, ids))
        first_tail = self.table.n_rows
        if self._tail and hi >= first_tail:
            a = max(lo, first_tail) - first_tail
            b = hi - first_tail
            tail_scores = np.asarray(self._tail[a : b + 1], dtype=float) @ u
            order = np.lexsort((np.arange(a, b + 1), tail_scores))[::-1][:k]
            for i in order:
                candidates.append((float(tail_scores[i]), first_tail + a + int(i)))
        candidates.sort(reverse=True)
        return [gid for _, gid in candidates[:k]]

    def score_of(
        self, u: np.ndarray, row_id: int, session: MiniDBSession | None = None
    ) -> float:
        """One row's preference score (buffered page read, or tail memory)."""
        first_tail = self.table.n_rows
        if row_id >= first_tail:
            if row_id >= self.n:
                raise IndexError(f"row {row_id} out of range [0, {self.n})")
            return float(np.dot(self._tail[row_id - first_tail], np.asarray(u, dtype=float)))
        return buffered_score_of(self.table, u, row_id, session)

    def storage_pages(self) -> int:
        """Total allocated pages (data + index)."""
        return self.pager.n_pages

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
        """Flush the WAL and release the files (the store stays on disk)."""
        self.wal.close()
        self.pager.close()

    def __enter__(self) -> "LiveMiniDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
