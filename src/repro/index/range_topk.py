"""Score-array top-k building block.

The paper treats the basic top-k query as a pluggable black box (Section
II). This module provides the pragmatic block used by default: once a
preference vector is fixed, every record's score is a single float, and
each range top-k call takes one of two paths, chosen per call:

* **scan** — one ``np.partition`` over the window's score slice finds
  the k-th largest score; the cells above it and the latest cells tied
  with it, ``k`` in all, are put in order
  (:func:`repro.index.topk.window_topk`). ``O(width)``, all in C.
* **descend** — ``k`` rounds of *range-argmax with exclusion* over a max
  segment tree, driven by a heap of sub-ranges (the classic
  ``O(k log n)`` technique): push the whole range with its argmax; pop
  the best range and report its argmax ``i``; split the range at ``i``
  into ``[lo, i-1]`` and ``[i+1, hi]`` and push both with their argmaxes.

The choice is one inequality from the planner's cost model
(:meth:`repro.core.planner.CostModel.scans`): the window's width priced
per scanned row against a descent's price for its ranks after the
first. A rank-1 call (and :meth:`ScoreArrayTopKIndex.top1`) always
descends: one range-argmax costs about what an argmax over a narrow
window does, and less over a wide one. T-Hop's
durability windows are ``tau + 1`` rows, so most calls at ``k >= 2``
scan; wide windows (a large ``tau``) descend. The index owns only its
score array: the segment tree is built the first time a call descends,
and its blocks on first touch after that.

Both paths follow the library's canonical total order (higher score
wins, later arrival wins ties), so results are deterministic and
identical to the brute-force oracle whichever path answers.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.planner import CostModel
from repro.index.segment_tree import MaxSegmentTree
from repro.index.topk import batched_window_topk, window_topk

__all__ = ["ScoreArrayTopKIndex"]

#: The model that prices scan against descent for every call.
COST_MODEL = CostModel()


class ScoreArrayTopKIndex:
    """Range top-k over a fixed score array.

    Record ids are array positions, which equal normalised arrival times
    throughout the library. The index keeps a private, read-only copy of
    ``scores``, so a caller that later mutates its array does not change
    the answers; :meth:`adopt` takes an array the caller hands over
    instead of copying it.
    """

    def __init__(self, scores: np.ndarray) -> None:
        self._bind(np.array(scores, dtype=float))

    @classmethod
    def adopt(cls, scores: np.ndarray) -> "ScoreArrayTopKIndex":
        """Index ``scores`` without copying it (unless it is not
        contiguous, e.g. a reversed view). The caller gives up the array:
        it must not mutate it afterwards."""
        index = cls.__new__(cls)
        index._bind(np.ascontiguousarray(scores, dtype=float))
        return index

    def _bind(self, scores: np.ndarray) -> None:
        if scores.ndim != 1:
            raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
        if np.isnan(scores).any():
            raise ValueError("scores contain NaN; scoring function is invalid here")
        scores.flags.writeable = False
        self._scores = scores
        self._tree: MaxSegmentTree | None = None

    @property
    def n(self) -> int:
        """Number of indexed records."""
        return len(self._scores)

    @property
    def scores(self) -> np.ndarray:
        """The read-only score array, indexed by record id."""
        return self._scores

    @property
    def blocks_built(self) -> int:
        """Segment-tree blocks a descent has built so far (0 while no call
        has descended; see :class:`~repro.index.segment_tree.MaxSegmentTree`)."""
        return 0 if self._tree is None else self._tree.blocks_built

    def _descent_tree(self) -> MaxSegmentTree:
        # Racing first descents may each build a tree; they are equal, and
        # the last one assigned is kept.
        tree = self._tree
        if tree is None:
            tree = self._tree = MaxSegmentTree(self._scores)
        return tree

    def score(self, record_id: int) -> float:
        """Score of a single record."""
        return float(self._scores[record_id])

    def top1(self, lo: int, hi: int) -> int | None:
        """Id of the best record in ``[lo, hi]``, or ``None`` if empty."""
        lo = max(lo, 0)
        hi = min(hi, self.n - 1)
        if hi < lo:
            return None
        if COST_MODEL.scans(hi - lo + 1, 1):
            # argmax takes the first maximum; over the reversed slice that
            # is the latest one, as the canonical order wants.
            return hi - int(np.argmax(self._scores[lo : hi + 1][::-1]))
        return self._descent_tree().range_max_with_argmax(lo, hi)[1]

    def topk(self, k: int, lo: int, hi: int) -> list[int]:
        """Top-``k`` record ids in ``[lo, hi]``, best first.

        Returns fewer than ``k`` ids when the range holds fewer records.
        The order is the canonical total order: descending score, ties
        broken toward the later arrival. Scans or descends, whichever
        :data:`COST_MODEL` prices lower for this width and ``k``.
        """
        lo = max(lo, 0)
        hi = min(hi, self.n - 1)
        if k > 0 and hi >= lo and COST_MODEL.scans(hi - lo + 1, k):
            return window_topk(self._scores, k, lo, hi)
        return self.descend(k, lo, hi)

    def descend(self, k: int, lo: int, hi: int) -> list[int]:
        """:meth:`topk` by segment-tree descent, whatever the width (the
        path :func:`~repro.experiments.calibration.calibrate_cost_model`
        times). Builds the tree on the first non-empty call."""
        if k <= 0:
            return []
        lo = max(lo, 0)
        hi = min(hi, self.n - 1)
        if hi < lo:
            return []
        tree = self._descent_tree()
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
        return batched_window_topk(self._scores, k, windows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScoreArrayTopKIndex(n={self.n})"
