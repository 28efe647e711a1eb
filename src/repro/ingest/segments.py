"""Segments, the append tail, and the cross-segment top-k building block.

The live dataset stores its history as contiguous immutable **segments**
plus one mutable **tail**; queries see a *stitched* top-k index over the
lot. Exactness rests on one composition property of the canonical total
order (score descending, later arrival wins ties): the top-k of a union
of disjoint id ranges is contained in the union of the per-range top-k's,
so merging per-part answers under the global comparator reproduces the
answer one monolithic index would give — byte for byte, ties included.
That is what lets the unmodified T-Base/T-Hop algorithms run over a
growing dataset and stay exactly equal to an offline rebuild.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from typing import Any, Callable, Sequence

import numpy as np

from repro.index.range_topk import ScoreArrayTopKIndex
from repro.service.request import preference_key

__all__ = ["Segment", "TailBuffer", "SegmentedTopKIndex"]


def score_index(scorer, values: np.ndarray, reverse: bool = False) -> ScoreArrayTopKIndex:
    """A top-k index over ``scorer``'s scores of ``values``.

    ``reverse`` indexes the scores in reversed arrival order, the
    time-reversed domain look-ahead queries run over. The build is one
    scoring pass, and the index adopts the scored array without copying
    it (a reversed one is made contiguous once). Narrow windows are then
    answered by scanning that array; a segment tree is built only if a
    call's window is wide enough to descend (see
    :mod:`repro.index.range_topk`).
    """
    scores = scorer.scores(values)
    return ScoreArrayTopKIndex.adopt(scores[::-1] if reverse else scores)


class Segment:
    """An immutable run of rows ``[lo, lo + len - 1]`` of the live dataset.

    Carries its own per-preference top-k index, built the first time a
    query's probe lands in the segment under that preference (the
    stitched index resolves parts on demand, so a query never builds an
    index for a segment its windows do not read) and LRU-cached
    (segments are immutable, so a cached index is valid forever).
    ``reverse=True`` variants serve look-ahead queries, which run over
    the time-reversed domain.
    """

    #: Per-segment preference-bound indexes retained (forward + reversed
    #: variants count separately).
    INDEX_CACHE_SIZE = 8

    __slots__ = ("lo", "values", "timestamps", "labels", "_cache", "_lock")

    def __init__(
        self,
        lo: int,
        values: np.ndarray,
        timestamps: list | None = None,
        labels: list | None = None,
    ) -> None:
        values = np.ascontiguousarray(values, dtype=float)
        if values.ndim != 2 or len(values) == 0:
            raise ValueError(f"segment values must be non-empty (n, d), got {values.shape}")
        self.lo = lo
        self.values = values
        self.timestamps = timestamps
        self.labels = labels
        self._cache: "OrderedDict[Any, ScoreArrayTopKIndex]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.values)

    @property
    def hi(self) -> int:
        """Last (inclusive) global row id of the segment."""
        return self.lo + len(self.values) - 1

    def index_for(self, scorer, reverse: bool = False) -> ScoreArrayTopKIndex:
        """The segment's top-k index under ``scorer`` (cached).

        The build is a single vectorised scoring pass; the index scans
        narrow windows and builds a segment tree only when a wide window
        descends (:func:`score_index`). Racing first-touchers may build
        duplicates (last one is cached) — harmless, unlike the engine's
        expensive index builds, so no single-flighting here. ``reverse``
        indexes the scores in reversed arrival order for look-ahead
        queries.
        """
        key = (preference_key(scorer), reverse)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                return cached
        index = score_index(scorer, self.values, reverse)
        with self._lock:
            self._cache[key] = index
            if len(self._cache) > self.INDEX_CACHE_SIZE:
                self._cache.popitem(last=False)
        return index


class TailBuffer:
    """Append-only growable row buffer with atomic snapshot reads.

    Appends are single-writer (the live dataset serialises them); reads
    take no lock: :attr:`published` returns ``(buffer, count)`` where the
    first ``count`` rows are immutable. Ordering makes this safe under
    the GIL — the writer copies into a fresh buffer *before* swapping it
    in, and bumps the count only after the row is written, while readers
    load the count before the buffer, so the buffer they see always holds
    at least ``count`` valid rows.
    """

    __slots__ = ("d", "_buf", "_count", "timestamps", "labels")

    def __init__(self, d: int, capacity: int = 1024) -> None:
        if d < 1 or capacity < 1:
            raise ValueError(f"need d >= 1 and capacity >= 1, got d={d}, capacity={capacity}")
        self.d = d
        self._buf = np.empty((capacity, d))
        self._count = 0
        self.timestamps: list = []
        self.labels: list = []

    @property
    def count(self) -> int:
        """Number of appended rows."""
        return self._count

    @property
    def published(self) -> tuple[np.ndarray, int]:
        """A consistent ``(buffer, count)`` snapshot (count read first)."""
        count = self._count
        return self._buf, count

    def append(self, row: np.ndarray, timestamp=None, label: str | None = None) -> int:
        """Write one row; returns its tail-local index. Writer-side only."""
        count = self._count
        buf = self._buf
        if count == len(buf):
            grown = np.empty((2 * len(buf), self.d))
            grown[:count] = buf[:count]
            self._buf = buf = grown
        buf[count] = row
        self.timestamps.append(timestamp)
        self.labels.append(label)
        self._count = count + 1
        return count

    def extend(self, rows: np.ndarray) -> int:
        """Write an ``(m, d)`` block; returns the first row's tail-local index.

        Writer-side only. Grows the buffer at most once (to the capacity
        the same rows appended one at a time would reach) and copies the
        block in one slice assignment; the count is bumped last, so the
        :attr:`published` ordering contract holds as for :meth:`append`.
        """
        count = self._count
        end = count + len(rows)
        buf = self._buf
        if end > len(buf):
            capacity = len(buf)
            while capacity < end:
                capacity *= 2
            grown = np.empty((capacity, self.d))
            grown[:count] = buf[:count]
            self._buf = buf = grown
        buf[count:end] = rows
        self.timestamps.extend([None] * len(rows))
        self.labels.extend([None] * len(rows))
        self._count = end
        return count

    def values_view(self, count: int | None = None) -> np.ndarray:
        """The first ``count`` rows (do not mutate)."""
        buf, published = self.published
        count = published if count is None else count
        return buf[:count]


class SegmentedTopKIndex:
    """Top-k building block stitched over contiguous, lazily built parts.

    Parts are ``(base, length, build)`` triples covering adjacent global
    id ranges ``[base, base + length)``; ``build()`` returns the part's
    :class:`~repro.index.range_topk.ScoreArrayTopKIndex` and is called
    only the first time a ``topk``/``topk_batch``/``top1``/``score`` call
    lands in that part, so a query pays index builds (one scoring pass
    each) only for the parts its windows read. Each per-part answer
    scans or descends as that part's index chooses for the clipped
    window, so a window that straddles parts scans each piece and no
    part builds a segment tree for narrow windows. Ids returned are
    global. Implements the
    :class:`~repro.index.topk.TopKIndex` protocol, so the engine-side
    algorithms (and the counting wrapper) use it unchanged.
    """

    def __init__(
        self, parts: Sequence[tuple[int, int, Callable[[], ScoreArrayTopKIndex]]]
    ) -> None:
        if not parts:
            raise ValueError("need at least one part")
        self._bases = [base for base, _, _ in parts]
        self._builds = [build for _, _, build in parts]
        self._parts: list[ScoreArrayTopKIndex | None] = [None] * len(parts)
        expected = self._bases[0]
        for base, length, _ in parts:
            if base != expected:
                raise ValueError(f"parts must be contiguous; expected base {expected}, got {base}")
            expected = base + length
        self._n = expected - self._bases[0]
        if self._bases[0] != 0:
            raise ValueError(f"first part must start at 0, got {self._bases[0]}")

    @property
    def parts_resolved(self) -> int:
        """Parts whose index a probe has fetched so far."""
        return sum(part is not None for part in self._parts)

    def _part(self, p: int) -> ScoreArrayTopKIndex:
        part = self._parts[p]
        if part is None:
            part = self._parts[p] = self._builds[p]()
        return part

    @property
    def n(self) -> int:
        """Total number of indexed records."""
        return self._n

    def _part_of(self, record_id: int) -> int:
        return bisect.bisect_right(self._bases, record_id) - 1

    def score(self, record_id: int) -> float:
        """Score of one record (delegated to its part)."""
        p = self._part_of(record_id)
        return self._part(p).score(record_id - self._bases[p])

    def top1(self, lo: int, hi: int) -> int | None:
        """Best global id in ``[lo, hi]`` under the canonical order."""
        top = self.topk(1, lo, hi)
        return top[0] if top else None

    def topk(self, k: int, lo: int, hi: int) -> list[int]:
        """Exact global top-k of ``[lo, hi]``, canonical order, best first.

        Single-part windows (the common case: a durability window inside
        one big segment) delegate without merging; multi-part windows
        merge the per-part top-k candidates under the global
        ``(score, id)`` descending comparator, which equals the order a
        monolithic index would produce because ids within a part are
        translated monotonically.
        """
        if k <= 0:
            return []
        lo = max(lo, 0)
        hi = min(hi, self._n - 1)
        if hi < lo:
            return []
        first = self._part_of(lo)
        last = self._part_of(hi)
        if first == last:
            base = self._bases[first]
            return [base + t for t in self._part(first).topk(k, lo - base, hi - base)]
        candidates: list[tuple[float, int]] = []
        for p in range(first, last + 1):
            base, part = self._bases[p], self._part(p)
            a = max(lo, base) - base
            b = min(hi, base + part.n - 1) - base
            for t in part.topk(k, a, b):
                candidates.append((part.score(t), base + t))
        candidates.sort(reverse=True)
        return [gid for _, gid in candidates[:k]]

    def window(self, lo: int, hi: int) -> ScoreArrayTopKIndex:
        """One score-array block over global rows ``[lo, hi]`` (in bounds).

        The block is in the window's coordinates: its id ``i`` is global
        row ``lo + i``. Inside one part it adopts a view of that part's
        scores, so nothing is copied; a range that straddles parts gets
        one concatenation of the touched parts' score slices. Only the
        touched parts are resolved.
        """
        slices = []
        for p in range(self._part_of(lo), self._part_of(hi) + 1):
            base = self._bases[p]
            slices.append(self._part(p).scores[max(lo - base, 0) : hi - base + 1])
        return ScoreArrayTopKIndex.adopt(slices[0] if len(slices) == 1 else np.concatenate(slices))

    def topk_batch(self, k: int, windows) -> list[list[int]]:
        """Answer many ``topk`` windows, batching per-part answers.

        Windows contained in a single part (the common case: durability
        windows inside one big segment) are grouped by part and answered
        with that part's vectorised ``topk_batch`` in one pass each;
        part-straddling windows fall back to the per-window merge. The
        answers equal a ``topk`` loop exactly.
        """
        out: list[list[int] | None] = [None] * len(windows)
        per_part: dict[int, list[tuple[int, int, int]]] = {}
        for i, (lo, hi) in enumerate(windows):
            if k <= 0:
                out[i] = []
                continue
            lo = max(lo, 0)
            hi = min(hi, self._n - 1)
            if hi < lo:
                out[i] = []
                continue
            first = self._part_of(lo)
            if first == self._part_of(hi):
                base = self._bases[first]
                per_part.setdefault(first, []).append((i, lo - base, hi - base))
            else:
                out[i] = self.topk(k, lo, hi)
        for p, entries in per_part.items():
            base = self._bases[p]
            answers = self._part(p).topk_batch(k, [(lo, hi) for _, lo, hi in entries])
            for (i, _, _), local_ids in zip(entries, answers):
                out[i] = [base + t for t in local_ids]
        return out  # type: ignore[return-value]
