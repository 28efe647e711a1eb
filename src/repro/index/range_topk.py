"""Score-array top-k building block.

The paper treats the basic top-k query as a pluggable black box (Section
II). This module provides the pragmatic block used by default: once a
preference vector is fixed, every record's score is a single float, the
score array goes into a max segment tree, and a range top-k query is ``k``
rounds of *range-argmax with exclusion* driven by a heap of sub-ranges —
the classic ``O(k log n)`` technique:

1. push the whole query range with its argmax;
2. pop the best range, report its argmax ``i``;
3. split the range at ``i`` into ``[lo, i-1]`` and ``[i+1, hi]`` and push
   both with their argmaxes.

Ties follow the library's canonical total order (higher score wins, later
arrival wins ties), so results are deterministic and identical to the
brute-force oracle.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.index.segment_tree import MaxSegmentTree

__all__ = ["ScoreArrayTopKIndex"]


class ScoreArrayTopKIndex:
    """Range top-k over a fixed score array.

    Record ids are array positions, which equal normalised arrival times
    throughout the library. The index keeps a private, read-only copy of
    ``scores``, so a caller that later mutates its array does not change
    the answers.
    """

    def __init__(self, scores: np.ndarray) -> None:
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 1:
            raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
        if np.isnan(scores).any():
            raise ValueError("scores contain NaN; scoring function is invalid here")
        self._tree = MaxSegmentTree(scores)
        self._scores = self._tree.values

    @property
    def n(self) -> int:
        """Number of indexed records."""
        return len(self._scores)

    @property
    def blocks_built(self) -> int:
        """Segment-tree blocks a query has built so far (see
        :class:`~repro.index.segment_tree.MaxSegmentTree`)."""
        return self._tree.blocks_built

    def score(self, record_id: int) -> float:
        """Score of a single record."""
        return float(self._scores[record_id])

    def top1(self, lo: int, hi: int) -> int | None:
        """Id of the best record in ``[lo, hi]``, or ``None`` if empty."""
        _, arg = self._tree.range_max_with_argmax(lo, hi)
        return None if arg < 0 else arg

    def topk(self, k: int, lo: int, hi: int) -> list[int]:
        """Top-``k`` record ids in ``[lo, hi]``, best first.

        Returns fewer than ``k`` ids when the range holds fewer records.
        The order is the canonical total order: descending score, ties
        broken toward the later arrival.
        """
        if k <= 0:
            return []
        lo = max(lo, 0)
        hi = min(hi, self.n - 1)
        if hi < lo:
            return []
        tree = self._tree
        value, arg = tree.range_max_with_argmax(lo, hi)
        # Heap entries: (-score, -id, range_lo, range_hi). Negated id makes
        # later arrivals win ties, matching the canonical order.
        heap = [(-value, -arg, lo, hi)]
        out: list[int] = []
        while heap and len(out) < k:
            neg_v, neg_i, rlo, rhi = heapq.heappop(heap)
            i = -neg_i
            out.append(i)
            if rlo <= i - 1:
                v, a = tree.range_max_with_argmax(rlo, i - 1)
                heapq.heappush(heap, (-v, -a, rlo, i - 1))
            if i + 1 <= rhi:
                v, a = tree.range_max_with_argmax(i + 1, rhi)
                heapq.heappush(heap, (-v, -a, i + 1, rhi))
        return out

    def topk_batch(self, k: int, windows) -> list[list[int]]:
        """Answer many ``topk(k, lo, hi)`` windows in one vectorised pass.

        Equivalent to ``[self.topk(k, lo, hi) for lo, hi in windows]``
        (same clamping, same canonical order), but thresholded with a
        single ``np.partition`` over the stacked candidate matrix — see
        :func:`repro.index.topk.batched_window_topk`.
        """
        from repro.index.topk import batched_window_topk

        return batched_window_topk(self._scores, k, windows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScoreArrayTopKIndex(n={self.n})"
