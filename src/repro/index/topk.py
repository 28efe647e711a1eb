"""The top-k building-block protocol and its counting adapter.

Section II of the paper deliberately treats the top-k query as a pluggable
"building block": the contribution of the durable top-k algorithms is to
*bound the number of invocations* of that block. This module pins the
contract down as a :class:`typing.Protocol`, provides a factory over the two
shipped implementations, and a counting wrapper so experiments can report
the exact invocation counts shown in the paper's figures.

Two batching primitives live here as well:

* :func:`batched_window_topk` — answer many window top-k queries over one
  score array in a single vectorised pass (`np.partition` thresholding
  over the stacked candidate matrix). Index implementations expose it as
  ``topk_batch(k, windows)``.
* :class:`BatchTopKMemo` — a batch-scoped wrapper that shares identical
  ``topk``/``top1`` calls across the queries of one batch. It sits *under*
  each query's :class:`CountingTopKIndex`, so per-query ``QueryStats`` are
  charged exactly as in a serial run while the underlying traversal work
  is paid once per distinct window.
"""

from __future__ import annotations

from time import perf_counter
from typing import Literal, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.query import QueryStats

__all__ = [
    "TopKIndex",
    "CountingTopKIndex",
    "BatchTopKMemo",
    "batched_window_topk",
    "build_topk_index",
    "window_topk",
    "TopKKind",
]

#: Categories of top-k invocations, matching the decomposition in the
#: paper's figure panels: durability checks versus queries issued to find
#: the next highest-score record (S-Hop) or candidate sets.
TopKKind = Literal["durability", "candidate"]


@runtime_checkable
class TopKIndex(Protocol):
    """Contract every top-k building block implements.

    Record ids equal normalised arrival times; ranges are inclusive and may
    exceed the data bounds (implementations clamp).
    """

    @property
    def n(self) -> int:
        """Number of indexed records."""

    def score(self, record_id: int) -> float:
        """Score of one record under the bound preference."""

    def top1(self, lo: int, hi: int) -> int | None:
        """Best record id in ``[lo, hi]`` or ``None`` when empty."""

    def topk(self, k: int, lo: int, hi: int) -> list[int]:
        """Top-k record ids in ``[lo, hi]``, canonical order, best first."""


class CountingTopKIndex:
    """Wrap a :class:`TopKIndex`, tallying invocations into ``QueryStats``.

    The wrapper distinguishes *durability checks* (Line 4 of Algorithm 1 /
    Line 8 of Algorithm 3) from *candidate queries* (partition seeding and
    interval splits in S-Hop), mirroring the shaded/unshaded bar split of
    Figures 8–10.

    With ``timed=True`` (the engine passes ``obs.tracing_active()``) each
    invocation is also wall-clocked, accumulating ``elapsed``/``calls``/
    ``scanned`` so the engine can attach one aggregated ``index.topk``
    span per query instead of one span per probe. Timing never alters the
    counts charged to ``QueryStats`` — the byte-identity contract.
    """

    def __init__(self, inner: TopKIndex, stats: QueryStats, timed: bool = False) -> None:
        self._inner = inner
        self.stats = stats
        self.timed = timed
        self.elapsed = 0.0
        self.calls = 0
        self.scanned = 0
        self.first_start: float | None = None

    @property
    def n(self) -> int:
        return self._inner.n

    def score(self, record_id: int) -> float:
        return self._inner.score(record_id)

    def top1(self, lo: int, hi: int, kind: TopKKind = "candidate") -> int | None:
        self._count(kind)
        if not self.timed:
            return self._inner.top1(lo, hi)
        start = perf_counter()
        found = self._inner.top1(lo, hi)
        self._clock(start, 1 if found is not None else 0)
        return found

    def topk(self, k: int, lo: int, hi: int, kind: TopKKind = "durability") -> list[int]:
        self._count(kind)
        if not self.timed:
            return self._inner.topk(k, lo, hi)
        start = perf_counter()
        found = self._inner.topk(k, lo, hi)
        self._clock(start, len(found))
        return found

    def _clock(self, start: float, scanned: int) -> None:
        if self.first_start is None:
            self.first_start = start
        self.elapsed += perf_counter() - start
        self.calls += 1
        self.scanned += scanned

    def _count(self, kind: TopKKind) -> None:
        if kind == "durability":
            self.stats.durability_topk_queries += 1
        else:
            self.stats.candidate_topk_queries += 1


def batched_window_topk(
    scores: np.ndarray, k: int, windows: Sequence[tuple[int, int]]
) -> list[list[int]]:
    """Top-``k`` ids of many ``[lo, hi]`` windows in one vectorised pass.

    Windows are stacked into one padded ``(rows, max_width)`` candidate
    matrix (out-of-range cells hold ``-inf``), each row's k-th-largest
    score is found with a single ``np.partition``, and the per-row answer
    is every strictly-greater cell plus the *rightmost* threshold ties —
    which reproduces the canonical total order (descending score, later
    arrival wins ties) of a heap-driven ``topk`` loop exactly. Windows may
    exceed the array bounds (they are clamped, like ``topk``); empty
    windows answer ``[]``.

    The pass is ``O(rows * max_width)`` — a win when the batch's windows
    are comparable in width (the durability windows of a query batch all
    have width ``tau + 1``), not a general replacement for per-window
    heap search.
    """
    rows = len(windows)
    if rows == 0:
        return []
    n = len(scores)
    if k <= 0 or n == 0:
        return [[] for _ in range(rows)]
    lo_arr = np.fromiter((lo for lo, _ in windows), dtype=np.int64, count=rows)
    hi_arr = np.fromiter((hi for _, hi in windows), dtype=np.int64, count=rows)
    np.clip(lo_arr, 0, None, out=lo_arr)
    np.clip(hi_arr, None, n - 1, out=hi_arr)
    widths = hi_arr - lo_arr + 1
    max_width = int(widths.max()) if len(widths) else 0
    if max_width <= 0:
        return [[] for _ in range(rows)]

    cols = np.arange(max_width, dtype=np.int64)
    idx = lo_arr[:, None] + cols[None, :]
    valid = cols[None, :] < widths[:, None]
    matrix = np.asarray(scores, dtype=float)[np.minimum(idx, n - 1)]
    matrix[~valid] = -np.inf

    kk = min(k, max_width)
    # Row-wise k-th largest over the padded matrix: with fewer than k
    # valid cells the threshold degrades to -inf, selecting every valid
    # cell — the "fewer than k records" contract of ``topk``.
    thresh = np.partition(matrix, max_width - kk, axis=1)[:, max_width - kk]
    greater = matrix > thresh[:, None]
    ties = (matrix == thresh[:, None]) & valid
    need = kk - greater.sum(axis=1)
    # Rightmost ``need`` ties per row: count ties at-or-right of each cell.
    from_right = np.cumsum(ties[:, ::-1], axis=1)[:, ::-1]
    selected = greater | (ties & (from_right <= need[:, None]))

    out: list[list[int]] = []
    for r in range(rows):
        if widths[r] <= 0:
            out.append([])
            continue
        chosen = np.nonzero(selected[r])[0]
        out.append(_best_first(chosen + lo_arr[r], matrix[r, chosen], kk))
    return out


def window_topk(scores: np.ndarray, k: int, lo: int, hi: int) -> list[int]:
    """Top-``k`` ids of one in-bounds window ``[lo, hi]`` by scanning it.

    The single-window twin of :func:`batched_window_topk`, with its tie
    rule: one ``np.partition`` over ``scores[lo:hi + 1]`` finds the k-th
    largest score, and the answer is every strictly-greater cell plus
    the *rightmost* cells tied with it, at most ``k`` in all, put in the
    canonical order (descending score, later arrival wins ties). One
    ``window >= threshold`` pass finds the cells at or above the k-th
    score; only when more than ``k`` of them tie at it does
    :func:`_keep_rightmost_ties` drop the leftmost ties. However widely
    the k-th score is tied, only ``k`` cells are sorted. The caller
    clamps; ``k >= 1`` and ``lo <= hi`` are assumed. ``O(width)``, all
    in C.
    """
    window = scores[lo : hi + 1]
    width = len(window)
    if k < width:
        top = np.partition(window, width - k)[width - k :]
        threshold = top[0]
        chosen = np.flatnonzero(window >= threshold)
        if len(chosen) > k:
            greater = np.count_nonzero(top > threshold)
            chosen = _keep_rightmost_ties(window, chosen, threshold, k, greater)
    else:
        chosen = np.arange(width)
    return _best_first(chosen + lo, window[chosen], k)


def _keep_rightmost_ties(
    window: np.ndarray, at_least: np.ndarray, threshold: float, k: int, greater: int
) -> np.ndarray:
    """The ``k`` cells of ``window`` :func:`window_topk` answers with.

    ``at_least`` holds the ascending positions of the cells ``>=
    threshold``, more than ``k`` of them; ``greater`` of those (at most
    ``k - 1``, counted from the partition's top ``k``) are strictly
    above it. The answer keeps those and the rightmost ``k - greater``
    ties. Those ties all lie in the last ``k`` positions of
    ``at_least``, so when those ``k`` positions also hold every greater
    cell they are the answer, found in ``O(k)``. Otherwise some greater
    cell lies further left, and one more ``window > threshold`` pass
    finds the greater cells, as a two-pass kernel would.
    """
    last = at_least[-k:]
    above = window[last] > threshold
    if np.count_nonzero(above) == greater:
        return last
    ties = last[~above][-(k - greater) :]
    return np.concatenate((np.flatnonzero(window > threshold), ties))


def _best_first(ids: np.ndarray, values: np.ndarray, k: int) -> list[int]:
    """The first ``k`` of ``ids`` in the canonical order: descending
    score, ties toward the larger id."""
    return ids[np.lexsort((-ids, -values))[:k]].tolist()


class BatchTopKMemo:
    """Share identical top-k calls across the queries of one batch.

    Implements the :class:`TopKIndex` protocol by delegation, memoising
    ``topk`` results by ``(k, lo, hi)`` and ``top1`` by ``(lo, hi)`` for
    the lifetime of the batch. Placement matters: the memo wraps the raw
    index and each query's :class:`CountingTopKIndex` wraps the memo, so
    every query's ``QueryStats`` still counts its own invocations — the
    byte-identity contract of ``query_batch`` — while the traversal work
    behind repeated windows is paid once.

    Memoised lists are returned *shared* (not copied): all shipped
    algorithms treat top-k answers as read-only.

    Not thread-safe; a memo belongs to one batch on one worker.
    """

    __slots__ = ("_inner", "_topk", "_top1")

    def __init__(self, inner: TopKIndex) -> None:
        self._inner = inner
        self._topk: dict[tuple[int, int, int], list[int]] = {}
        self._top1: dict[tuple[int, int], int | None] = {}

    @property
    def n(self) -> int:
        return self._inner.n

    def score(self, record_id: int) -> float:
        return self._inner.score(record_id)

    def top1(self, lo: int, hi: int) -> int | None:
        key = (lo, hi)
        if key in self._top1:
            return self._top1[key]
        found = self._inner.top1(lo, hi)
        self._top1[key] = found
        return found

    def topk(self, k: int, lo: int, hi: int) -> list[int]:
        key = (k, lo, hi)
        found = self._topk.get(key)
        if found is None:
            found = self._inner.topk(k, lo, hi)
            self._topk[key] = found
        return found

    def prime(self, k: int, windows: Sequence[tuple[int, int]]) -> None:
        """Pre-answer ``windows`` for rank ``k`` in one vectorised pass.

        Uses the inner index's ``topk_batch`` when it has one (the
        score-array, block and segmented blocks all do); silently skips
        otherwise — priming is an optimisation, never a requirement.
        """
        batch = getattr(self._inner, "topk_batch", None)
        if batch is None:
            return
        fresh = [w for w in windows if (k, w[0], w[1]) not in self._topk]
        if not fresh:
            return
        for (lo, hi), ids in zip(fresh, batch(k, fresh)):
            self._topk[(k, lo, hi)] = ids


def build_topk_index(dataset, scorer, method: str = "auto") -> TopKIndex:
    """Build a preference-bound top-k block for ``dataset`` under ``scorer``.

    Parameters
    ----------
    dataset:
        A :class:`repro.core.record.Dataset`.
    scorer:
        A :class:`repro.scoring.base.ScoringFunction` already parameterised
        by the user's preference vector.
    method:
        ``"score_array"`` — materialise all scores into the scan-or-descend
        block, which builds its segment tree only if a call descends
        (works for any scoring function);
        ``"skyline_tree"`` — the paper's Appendix-A index (requires a
        monotone scoring function; the per-dataset tree is built on first
        use and cached on the dataset);
        ``"auto"`` — ``skyline_tree`` when the scorer is monotone and a tree
        is already cached, else ``score_array``.
    """
    from repro.index.range_topk import ScoreArrayTopKIndex
    from repro.index.skyline_tree import SkylineTree

    if method not in ("auto", "score_array", "skyline_tree"):
        raise ValueError(f"unknown top-k index method: {method!r}")

    if method == "skyline_tree" or (method == "auto" and scorer.is_monotone and dataset.has_cached("skyline_tree")):
        if not scorer.is_monotone:
            raise ValueError(
                "the skyline-tree block needs a monotone scoring function; "
                f"{scorer!r} is not monotone — use method='score_array'"
            )
        tree = dataset.get_or_build("skyline_tree", lambda: SkylineTree(dataset))
        return tree.bind(scorer)

    return ScoreArrayTopKIndex.adopt(scorer.scores(dataset.values))
