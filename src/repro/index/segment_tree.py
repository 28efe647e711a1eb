"""Static max segment tree with argmax descent.

This backs the descend path of the pragmatic top-k building block
(:class:`repro.index.range_topk.ScoreArrayTopKIndex`): once a preference
vector is fixed, all record scores are a flat float array and range top-k
reduces to repeated range-argmax with exclusion, which a max segment tree
answers in ``O(log n)`` each. That block scans narrow windows instead and
builds its tree only the first time a call's window is wide enough to
descend, so a preference whose windows all scan never builds one.

The tree lives in flat arrays over a power-of-two capacity with ``-inf``
padding, and the range loop walks them bottom-up. The preference is
given at query time, so a tree is built inside the request that first
descends, while that request reads only part of it. The tree is
therefore built in two parts:

* **eagerly**, the leaf values (the tree's private copy of its input)
  and every node at or above *block height* — one node per
  ``2**BLOCK_BITS`` leaves, computed from each block's max/argmax, and
  the levels above it;
* **lazily**, a block's lower nodes, the first time a range query's
  clamped ``lo`` or ``hi`` falls inside that block. Every node below
  block height that the bottom-up loop reads lies in ``block(lo)`` or
  ``block(hi)``, so two byte lookups guard the loop. A block's flag is
  set only after all its nodes are written, and a duplicate build
  writes identical values, so concurrent first touches need no lock.

The buffers are numpy arrays read through ``memoryview``: scalar reads
cost what ``array('d')`` reads do, with no copy. As with ``array``, the
GC never traverses their contents (the numpy arrays are not GC-tracked;
each ``memoryview`` is one tracked object with one referent), which
matters to a service holding hundreds of preference-bound trees
(equally-sized lists would add ~500k scanned slots per tree to every
gen-2 collection). Point updates serve the (optional) streaming/append
extension.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_NEG_INF = float("-inf")

#: log2 of the leaves per lazily built block (4096 measured best; see
#: EXPERIMENTS.md, "Lazy segment-tree blocks").
BLOCK_BITS = 12


class MaxSegmentTree:
    """Range-max / range-argmax over a float array.

    Ties are broken toward the *larger index* (later arrival), matching the
    canonical total order used throughout the library (see
    :mod:`repro.core.order`). The tree copies ``values`` (which must not
    hold NaN); a caller that later mutates its own array does not change
    the answers.

    >>> st = MaxSegmentTree([5.0, 9.0, 9.0, 1.0])
    >>> st.range_argmax(0, 3)
    2
    >>> st.range_max(2, 3)
    9.0
    """

    __slots__ = ("_n", "_cap", "_val", "_arg", "_val_np", "_arg_np", "_shift", "_built")

    def __init__(self, values: Sequence[float]) -> None:
        n = len(values)
        self._n = n
        cap = 1 << (n - 1).bit_length() if n > 1 else 1
        self._cap = cap
        shift = min(BLOCK_BITS, cap.bit_length() - 1)
        self._shift = shift
        val = np.empty(2 * cap)
        arg = np.empty(2 * cap, dtype=np.int64)
        leaves = val[cap:]
        leaves[:n] = values
        leaves[n:] = _NEG_INF
        # Block-top nodes: each block's max, at its last position (later
        # ids win ties; padding positions map to id -1, as in a full build).
        width = 1 << shift
        rows = leaves.reshape(-1, width)
        top = len(rows)
        last = width - 1 - np.argmax(rows[:, ::-1], axis=1)
        ids = np.arange(0, cap, width) + last
        val[top : 2 * top] = rows[np.arange(top), last]
        arg[top : 2 * top] = np.where(ids < n, ids, -1)
        self._val_np, self._arg_np = val, arg
        self._fill_levels(top, 2 * top, top.bit_length() - 1)
        self._val = memoryview(val)
        self._arg = memoryview(arg)
        self._built = bytearray(top)

    def _fill_levels(self, start: int, stop: int, levels: int) -> None:
        """Compute ``levels`` parent levels up from the nodes in ``[start, stop)``."""
        val, arg = self._val_np, self._arg_np
        for _ in range(levels):
            left_v, right_v = val[start:stop:2], val[start + 1 : stop : 2]
            left_a, right_a = arg[start:stop:2], arg[start + 1 : stop : 2]
            # ">=" keeps the right (later) child on ties.
            take_right = right_v >= left_v
            start, stop = start // 2, stop // 2
            val[start:stop] = np.where(take_right, right_v, left_v)
            arg[start:stop] = np.where(take_right, right_a, left_a)

    def _build_block(self, block: int) -> None:
        """Write the nodes below block height of one block, then flag it."""
        first = block << self._shift
        ids = np.arange(first, first + (1 << self._shift))
        ids[ids >= self._n] = -1
        start = self._cap + first
        self._arg_np[start : start + len(ids)] = ids
        self._fill_levels(start, start + len(ids), self._shift - 1)
        self._built[block] = 1

    @property
    def blocks_built(self) -> int:
        """Blocks whose lower nodes a query or update has built so far."""
        return self._built.count(1)

    def __len__(self) -> int:
        return self._n

    def update(self, index: int, value: float) -> None:
        """Set ``values[index] = value`` and repair the path to the root."""
        if not 0 <= index < self._n:
            raise IndexError(f"index {index} out of range [0, {self._n})")
        if not self._built[index >> self._shift]:
            self._build_block(index >> self._shift)
        val, arg = self._val, self._arg
        i = self._cap + index
        val[i] = float(value)
        i //= 2
        while i >= 1:
            left, right = 2 * i, 2 * i + 1
            if val[right] >= val[left]:
                val[i], arg[i] = val[right], arg[right]
            else:
                val[i], arg[i] = val[left], arg[left]
            i //= 2

    def value_at(self, index: int) -> float:
        """Current value stored at ``index``."""
        if not 0 <= index < self._n:
            raise IndexError(f"index {index} out of range [0, {self._n})")
        return self._val[self._cap + index]

    def range_max_with_argmax(self, lo: int, hi: int) -> tuple[float, int]:
        """``(max value, argmax index)`` over ``[lo, hi]`` inclusive.

        Returns ``(-inf, -1)`` when the clamped range is empty. Ties go to
        the larger index.
        """
        lo = max(lo, 0)
        hi = min(hi, self._n - 1)
        if hi < lo:
            return _NEG_INF, -1
        built, shift = self._built, self._shift
        if not (built[lo >> shift] and built[hi >> shift]):
            for block in (lo >> shift, hi >> shift):
                if not built[block]:
                    self._build_block(block)
        val, arg, cap = self._val, self._arg, self._cap
        best_v, best_i = _NEG_INF, -1
        left = lo + cap
        right = hi + cap + 1
        while left < right:
            if left & 1:
                if val[left] > best_v or (val[left] == best_v and arg[left] > best_i):
                    best_v, best_i = val[left], arg[left]
                left += 1
            if right & 1:
                right -= 1
                if val[right] > best_v or (val[right] == best_v and arg[right] > best_i):
                    best_v, best_i = val[right], arg[right]
            left //= 2
            right //= 2
        return best_v, best_i

    def range_max(self, lo: int, hi: int) -> float:
        """Maximum value over ``[lo, hi]`` inclusive (``-inf`` if empty)."""
        return self.range_max_with_argmax(lo, hi)[0]

    def range_argmax(self, lo: int, hi: int) -> int:
        """Index of the maximum over ``[lo, hi]`` (``-1`` if empty)."""
        return self.range_max_with_argmax(lo, hi)[1]
