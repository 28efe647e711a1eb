"""The paper's "index table": hierarchical per-block skylines in pages.

Section VI-C: "we also create corresponding index tables to support
efficient top-k records retrieval. The index table is similar to the
tree-based index [of Appendix A], providing sufficient data reduction for
answering range top-k queries."

Level 0 partitions the row space into blocks of ``block_rows`` consecutive
rows and stores each block's skyline; level ``i+1`` groups ``fanout``
level-``i`` blocks and stores the skyline of their union. All skyline
points — ``(row_id, attributes)`` tuples — live in index *pages*, read
through the buffer pool, so every upper-bound evaluation has a page cost,
just as in a real DBMS.

A range top-k query runs best-first search over blocks (upper bound = max
preference score over the block's skyline), descending levels, and reads
the data pages of chosen level-0 blocks to produce the exact result.
"""

from __future__ import annotations

import heapq
import struct

import numpy as np

from repro.index.skyline import skyline_indices
from repro.minidb.buffer import BufferPool
from repro.minidb.pager import Pager
from repro.minidb.session import MiniDBSession
from repro.minidb.table import HeapTable

__all__ = ["BlockSkylineIndex"]


class _Block:
    """Catalog entry (in-memory metadata, as a DBMS keeps in its catalog)."""

    __slots__ = ("lo", "hi", "point_offset", "n_points", "children")

    def __init__(self, lo: int, hi: int, point_offset: int, n_points: int, children) -> None:
        self.lo = lo
        self.hi = hi
        self.point_offset = point_offset
        self.n_points = n_points
        self.children = children  # list[_Block] | None for level 0


class BlockSkylineIndex:
    """Hierarchical skyline summaries with page-level access accounting.

    ``row_base`` offsets every stored row id: a live segment's index is
    built over the segment's values only but addresses the global row
    space, so cross-segment queries merge per-segment answers without
    translation. Bulk builds keep the default base 0.
    """

    def __init__(
        self,
        values: np.ndarray,
        pager: Pager,
        buffer_pool: BufferPool,
        block_rows: int = 256,
        fanout: int = 8,
        row_base: int = 0,
    ) -> None:
        if block_rows < 1 or fanout < 2:
            raise ValueError("need block_rows >= 1 and fanout >= 2")
        if row_base < 0:
            raise ValueError(f"row_base must be >= 0, got {row_base}")
        values = np.asarray(values, dtype=float)
        self.d = values.shape[1]
        self.block_rows = block_rows
        self.fanout = fanout
        self.row_base = row_base
        self._buffer = buffer_pool
        self._pager = pager
        self._point_bytes = 8 * (self.d + 1)  # row id (as float) + attributes
        self._points_per_page = pager.page_size // self._point_bytes
        self._first_page = pager.n_pages
        self._next_point = 0
        self._page_buffer = bytearray()
        self._fmt = f"<{self.d + 1}d"
        self._cached_rows: dict[tuple[int, int], np.ndarray] = {}

        n = len(values)
        level: list[_Block] = [
            self._make_block(values, lo, min(lo + block_rows - 1, n - 1), None)
            for lo in range(0, n, block_rows)
        ]
        self.n_levels = 1
        while len(level) > 1:
            parents: list[_Block] = []
            for i in range(0, len(level), fanout):
                group = level[i : i + fanout]
                parents.append(
                    self._make_block(
                        values, group[0].lo - row_base, group[-1].hi - row_base, group
                    )
                )
            level = parents
            self.n_levels += 1
        self._flush_page_buffer()
        self.root = level[0] if level else None
        self._cached_rows.clear()  # build-time scratch only

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _make_block(self, values: np.ndarray, lo: int, hi: int, children) -> _Block:
        """Build one block; ``lo``/``hi`` are *local* (pre-offset) rows."""
        if children is None:
            rows = np.arange(lo, hi + 1)
        else:
            # The union of children's skylines contains the group skyline;
            # recomputing over it keeps build cost near-linear.
            rows = np.concatenate(
                [self._cached_rows[(c.lo - self.row_base, c.hi - self.row_base)] for c in children]
            )
        sky = rows[skyline_indices(values[rows])]
        self._cached_rows[(lo, hi)] = sky
        offset = self._next_point
        for row in sky:
            self._append_point(int(row) + self.row_base, values[row])
        return _Block(lo + self.row_base, hi + self.row_base, offset, len(sky), children)

    def _append_point(self, row_id: int, attrs: np.ndarray) -> None:
        self._page_buffer += struct.pack(self._fmt, float(row_id), *attrs)
        self._next_point += 1
        if len(self._page_buffer) + self._point_bytes > self._pager.page_size:
            self._flush_page_buffer()

    def _flush_page_buffer(self) -> None:
        if self._page_buffer:
            self._pager.write_page(self._pager.n_pages, bytes(self._page_buffer))
            self._page_buffer = bytearray()

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _read_points(self, block: _Block) -> np.ndarray:
        """A block's skyline points as an ``(m, d+1)`` array.

        Points are contiguous in the index file; each touched page is read
        once through the buffer pool and decoded in bulk — page-granular
        access, as in a real DBMS.
        """
        ppp = self._points_per_page
        first = block.point_offset
        last = first + block.n_points - 1
        if block.n_points == 0:
            return np.empty((0, self.d + 1))
        chunks: list[np.ndarray] = []
        point = first
        while point <= last:
            page_index, slot = divmod(point, ppp)
            data = self._buffer.get(self._first_page + page_index)
            take = min(ppp - slot, last - point + 1)
            raw = np.frombuffer(
                data,
                dtype="<f8",
                count=take * (self.d + 1),
                offset=slot * self._point_bytes,
            )
            chunks.append(raw.reshape(take, self.d + 1))
            point += take
        return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]

    def _touch_point_pages(self, block: _Block) -> None:
        """Replay the buffered page reads of ``_read_points``.

        Called on a session cache hit so the buffer-pool counters and LRU
        state evolve exactly as an uncached read would have made them
        (same pages, same ascending order).
        """
        if block.n_points == 0:
            return
        ppp = self._points_per_page
        first_page = block.point_offset // ppp
        last_page = (block.point_offset + block.n_points - 1) // ppp
        for page in range(first_page, last_page + 1):
            self._buffer.get(self._first_page + page)

    def _block_points(self, block: _Block, session: MiniDBSession) -> np.ndarray:
        """A block's decoded skyline points, decoded once per session."""
        points = session.points.get(id(block))
        if points is not None:
            self._touch_point_pages(block)
            return points
        points = self._read_points(block)
        session.points[id(block)] = points
        return points

    def _ensure_upper_bounds(self, blocks: list[_Block], session: MiniDBSession) -> None:
        """Fill ``session.ub`` for every block in ``blocks`` (one matvec).

        A block's upper bound is the max preference score over its skyline
        — valid for partially-overlapped blocks too, since the skyline max
        bounds every in-range row.

        Blocks already bounded are skipped; the rest have their skyline
        points decoded (in block order, preserving the page access
        sequence) and scored with a single batched matrix-vector product,
        then segment maxima via ``np.maximum.reduceat``.
        """
        ub_cache = session.ub
        missing = [blk for blk in blocks if id(blk) not in ub_cache]
        if not missing:
            return
        points = [self._block_points(blk, session) for blk in missing]
        nonempty = [(blk, pts) for blk, pts in zip(missing, points) if len(pts)]
        for blk, pts in zip(missing, points):
            if len(pts) == 0:
                ub_cache[id(blk)] = float("-inf")
        if not nonempty:
            return
        stacked = (
            np.concatenate([pts[:, 1:] for _, pts in nonempty])
            if len(nonempty) > 1
            else nonempty[0][1][:, 1:]
        )
        scores = stacked @ session.u
        counts = np.fromiter((len(pts) for _, pts in nonempty), dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        maxima = np.maximum.reduceat(scores, starts)
        for (blk, _), ub in zip(nonempty, maxima):
            ub_cache[id(blk)] = float(ub)

    def topk(
        self,
        table: HeapTable,
        u: np.ndarray,
        k: int,
        lo: int,
        hi: int,
        ub_cache: dict | None = None,
        session: MiniDBSession | None = None,
    ) -> list[int]:
        """Exact top-k row ids in ``[lo, hi]`` under preference ``u``.

        Canonical order (score desc, later row wins ties), identical to the
        in-memory building blocks.

        ``session`` (optional) carries the per-preference caches across the
        many top-k calls a durable query makes *with the same preference
        vector* — the analogue of the hot buffer cache the paper's
        PostgreSQL procedures enjoy (see
        :class:`~repro.minidb.session.MiniDBSession`). ``ub_cache`` is the
        legacy form: a bare dict holding only the upper-bound cache. Pass a
        fresh session/dict per durable query; never reuse across
        preference vectors.
        """
        ids, _ = self.topk_with_scores(table, u, k, lo, hi, ub_cache=ub_cache, session=session)
        return ids

    def topk_with_scores(
        self,
        table: HeapTable,
        u: np.ndarray,
        k: int,
        lo: int,
        hi: int,
        ub_cache: dict | None = None,
        session: MiniDBSession | None = None,
    ) -> tuple[list[int], list[float]]:
        """:meth:`topk` plus each winner's score (no extra page reads).

        The scores come from the candidates the search already scored, so
        callers merging answers across segment indexes (the live MiniDB
        read path) pay no additional accounting.

        A leaf's rows are read through the session's per-row score store
        (each page read as an uncached read would, decoded at most once
        per session). Only rows scoring at or above the running k-th score
        stay candidates, so the final sort covers ``k`` rows plus ties.
        """
        if self.root is None or k <= 0:
            return [], []
        lo = max(lo, 0, self.root.lo)
        hi = min(hi, table.n_rows - 1, self.root.hi)
        if hi < lo:
            return [], []
        if session is None:
            session = MiniDBSession(u)
            if ub_cache is not None:
                session.ub = ub_cache
        elif u is not session.u and not np.array_equal(u, session.u):
            raise ValueError(
                "session was opened for a different preference vector; "
                "open one per preference via MiniDB.session()"
            )
        ub = session.ub
        self._ensure_upper_bounds([self.root], session)
        counter = 0  # heap tie-breaker
        heap: list[tuple[float, int, _Block]] = [(-ub[id(self.root)], counter, self.root)]
        # Ties with the k-th score stay: the final order breaks them by id.
        cand_ids = cand_scores = None
        kth_score: float | None = None
        while heap:
            neg_ub, _, block = heapq.heappop(heap)
            if kth_score is not None and -neg_ub < kth_score:
                break
            if block.children is not None:
                overlapping = [
                    child for child in block.children if child.hi >= lo and child.lo <= hi
                ]
                self._ensure_upper_bounds(overlapping, session)
                for child in overlapping:
                    counter += 1
                    heapq.heappush(heap, (-ub[id(child)], counter, child))
                continue
            a, b = max(block.lo, lo), min(block.hi, hi)
            scores = session.row_scores(table, a, b)
            if kth_score is None:
                ids = np.arange(a, b + 1)
            else:
                ids = (scores >= kth_score).nonzero()[0]
                if not len(ids):
                    continue
                scores = scores[ids]
                ids += a
            if cand_ids is None:
                cand_ids, cand_scores = ids, scores
            else:
                cand_ids = np.concatenate((cand_ids, ids))
                cand_scores = np.concatenate((cand_scores, scores))
            m = len(cand_scores)
            if m >= k:
                kth_score = float(np.partition(cand_scores, m - k)[m - k])
                keep = (cand_scores >= kth_score).nonzero()[0]
                if len(keep) < m:
                    cand_ids, cand_scores = cand_ids[keep], cand_scores[keep]
        order = np.lexsort((cand_ids, cand_scores))[::-1][:k]
        return cand_ids[order].tolist(), cand_scores[order].tolist()

    # ------------------------------------------------------------------
    # Catalog (de)serialisation — the recovery path
    # ------------------------------------------------------------------
    def to_catalog(self) -> dict:
        """JSON-safe description of the block tree and page placement.

        The skyline *points* live in pages and survive in the data file;
        this catalog is the in-memory metadata needed to address them
        again, persisted in the live store's manifest so a reopened
        database serves the exact same index (same pages, same block
        structure, same accounting) without a rebuild.
        """

        def encode(block: _Block) -> list:
            children = None
            if block.children is not None:
                children = [encode(child) for child in block.children]
            return [block.lo, block.hi, block.point_offset, block.n_points, children]

        return {
            "d": self.d,
            "block_rows": self.block_rows,
            "fanout": self.fanout,
            "row_base": self.row_base,
            "first_page": self._first_page,
            "n_levels": self.n_levels,
            "root": None if self.root is None else encode(self.root),
        }

    @classmethod
    def from_catalog(
        cls, catalog: dict, pager: Pager, buffer_pool: BufferPool
    ) -> "BlockSkylineIndex":
        """Re-attach an index whose pages already exist (recovery path)."""
        index = cls.__new__(cls)
        index.d = catalog["d"]
        index.block_rows = catalog["block_rows"]
        index.fanout = catalog["fanout"]
        index.row_base = catalog["row_base"]
        index._buffer = buffer_pool
        index._pager = pager
        index._point_bytes = 8 * (index.d + 1)
        index._points_per_page = pager.page_size // index._point_bytes
        index._first_page = catalog["first_page"]
        index._next_point = 0
        index._page_buffer = bytearray()
        index._fmt = f"<{index.d + 1}d"
        index._cached_rows = {}
        index.n_levels = catalog["n_levels"]

        def decode(encoded) -> _Block:
            lo, hi, point_offset, n_points, children = encoded
            decoded = None if children is None else [decode(child) for child in children]
            return _Block(lo, hi, point_offset, n_points, decoded)

        index.root = None if catalog["root"] is None else decode(catalog["root"])
        return index
