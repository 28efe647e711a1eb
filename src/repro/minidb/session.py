"""MiniDB query sessions: CPU caches layered *above* the buffer pool.

The paper's PostgreSQL procedures enjoy a hot buffer cache: consecutive
top-k calls inside one durable query hit the same index and data pages.
MiniDB's buffer pool reproduces the page-level caching; what it cannot
reproduce is PostgreSQL's compiled execution — every page MiniDB touches
is re-decoded and re-scored in Python, and at laptop scale that CPU cost
swamps the I/O the algorithms are designed to save.

:class:`MiniDBSession` fixes the imbalance without distorting the I/O
accounting. It caches *derived* values, all bound to one preference
vector: block upper bounds, decoded skyline points, and one score per
table row. Each data page is decoded and scored the first time the
session reads it; after that a range read is a view of the score vector
and a point read one indexed load. Every read still issues the
``BufferPool.get`` calls of an uncached read (the same pages, in the same
ascending order), so ``logical_reads``, ``physical_reads`` and the LRU
eviction state evolve *identically* to a session-free run: the session
saves decode/matvec CPU, never counted page work. Table IV–VI page
numbers are therefore byte-for-byte stable across this optimisation,
while wall time drops to where the paper's page-count ordering also
holds on seconds. The score store is at most one float per row, however
many windows the session answers.

Sessions are cheap; create one per stored-procedure invocation (both
procedures do when not handed one) and never reuse across preference
vectors. Like every :class:`~repro.core.session.QuerySession` they are
context managers — ``with db.session(u) as s: ...`` drops the cached
state on exit — and the service layer's session pool closes evicted
sessions eagerly through the same :meth:`close` hook.
"""

from __future__ import annotations

import numpy as np

from repro.core.session import QuerySession
from repro.minidb.table import HeapTable

__all__ = ["MiniDBSession"]


class MiniDBSession(QuerySession):
    """Per-invocation cache bundle for one preference vector over MiniDB.

    Cache layout:

    * ``ub`` — ``id(block) -> float`` upper bound of the block's skyline
      under ``u`` (inherited; what the seed implementation kept in
      ``ub_cache``);
    * ``points`` — ``id(block) -> (m, d+1) ndarray`` decoded skyline
      points (inherited), so a block is decoded once per session, not
      once per upper-bound computation;
    * ``scores`` — the ``(n_rows,)`` score vector of ``table``, valid on
      each data page for its first ``scored[page]`` rows.

    The score store binds to the first table it reads; a live store's
    table only grows, and a page topped up after it was scored is
    re-scored when a read reaches past its count.
    """

    __slots__ = ("table", "scores", "scored")

    def __init__(self, u: np.ndarray) -> None:
        if u is None:
            raise ValueError("a MiniDB session must be bound to a preference vector")
        super().__init__(u)
        self.table: HeapTable | None = None
        self.scores = np.empty(0)
        self.scored: list[int] = []

    def clear(self) -> None:
        super().clear()
        self.table = None
        self.scores = np.empty(0)
        self.scored = []

    def row_scores(self, table: HeapTable, lo: int, hi: int) -> np.ndarray:
        """Scores of rows ``[lo, hi]`` (in range), reading each of their pages."""
        if table is not self.table or table.n_rows > len(self.scores):
            self._fit(table)
        rpp = table.rows_per_page
        page_ids = table.page_ids
        get = table.buffer.get
        scored = self.scored
        last = hi // rpp
        for page in range(lo // rpp, last):  # full pages: the table goes on
            if scored[page] < rpp:
                self._score_page(table, page)
            else:
                get(page_ids[page])
        if scored[last] <= hi - last * rpp:
            self._score_page(table, last)
        else:
            get(page_ids[last])
        return self.scores[lo : hi + 1]

    def row_score(self, table: HeapTable, row_id: int) -> float:
        """One row's score, reading its page."""
        if not 0 <= row_id < table.n_rows:
            raise IndexError(f"row {row_id} out of range [0, {table.n_rows})")
        if table is not self.table or table.n_rows > len(self.scores):
            self._fit(table)
        page, slot = divmod(row_id, table.rows_per_page)
        if self.scored[page] <= slot:
            self._score_page(table, page)
        else:
            table.buffer.get(table.page_ids[page])
        return float(self.scores[row_id])

    def _fit(self, table: HeapTable) -> None:
        """Bind the store to ``table`` and size it to its rows."""
        if table is not self.table:
            self.table = table
            self.scores = np.empty(table.n_rows)
            self.scored = [0] * table.n_pages
            return
        grown = np.empty(table.n_rows)
        grown[: len(self.scores)] = self.scores
        self.scores = grown
        self.scored.extend([0] * (table.n_pages - len(self.scored)))

    def _score_page(self, table: HeapTable, page: int) -> None:
        """Read and score every row on the table's ``page``-th page."""
        rows = table.read_page_rows(page)
        start = page * table.rows_per_page
        self.scores[start : start + len(rows)] = rows @ self.u
        self.scored[page] = len(rows)
