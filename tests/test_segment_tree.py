"""Unit tests for the max segment tree."""

import sys
import threading

import numpy as np
import pytest

from repro.index import segment_tree
from repro.index.segment_tree import MaxSegmentTree


def test_basic_range_max():
    st = MaxSegmentTree([1.0, 5.0, 3.0, 2.0])
    assert st.range_max(0, 3) == 5.0
    assert st.range_max(2, 3) == 3.0
    assert st.range_argmax(0, 3) == 1


def test_tie_breaks_to_later_index():
    st = MaxSegmentTree([9.0, 4.0, 9.0, 9.0, 1.0])
    assert st.range_argmax(0, 4) == 3
    assert st.range_argmax(0, 2) == 2
    assert st.range_argmax(0, 0) == 0


def test_empty_tree():
    st = MaxSegmentTree([])
    assert len(st) == 0
    assert st.range_max_with_argmax(0, 10) == (float("-inf"), -1)


def test_single_element():
    st = MaxSegmentTree([7.5])
    assert st.range_max(0, 0) == 7.5
    assert st.range_argmax(-3, 12) == 0  # clamped


def test_out_of_range_is_clamped():
    st = MaxSegmentTree([1.0, 2.0, 3.0])
    assert st.range_max(-10, 100) == 3.0
    assert st.range_max(5, 9) == float("-inf")
    assert st.range_argmax(2, 1) == -1


def test_update_propagates():
    st = MaxSegmentTree([1.0, 2.0, 3.0, 4.0])
    st.update(0, 10.0)
    assert st.range_argmax(0, 3) == 0
    st.update(0, 0.0)
    assert st.range_argmax(0, 3) == 3
    assert st.value_at(0) == 0.0


def test_update_out_of_range_raises():
    st = MaxSegmentTree([1.0])
    with pytest.raises(IndexError):
        st.update(1, 2.0)
    with pytest.raises(IndexError):
        st.value_at(-1)


def test_non_power_of_two_sizes():
    for n in (1, 2, 3, 5, 7, 13, 100, 257):
        values = [float((i * 7919) % 1000) for i in range(n)]
        st = MaxSegmentTree(values)
        assert st.range_max(0, n - 1) == max(values)


def test_matches_naive_randomised():
    rng = np.random.default_rng(1)
    values = rng.random(317)
    st = MaxSegmentTree(values)
    for _ in range(300):
        lo, hi = sorted(rng.integers(0, 317, 2))
        lo, hi = int(lo), int(hi)
        window = values[lo : hi + 1]
        assert st.range_max(lo, hi) == pytest.approx(window.max())
        # Tie-break convention: later index wins.
        expected_arg = lo + int(np.flatnonzero(window == window.max()).max())
        assert st.range_argmax(lo, hi) == expected_arg


def test_matches_naive_with_duplicates():
    rng = np.random.default_rng(2)
    values = rng.integers(0, 5, 200).astype(float)
    st = MaxSegmentTree(values)
    for _ in range(200):
        lo, hi = sorted(rng.integers(0, 200, 2))
        lo, hi = int(lo), int(hi)
        window = values[lo : hi + 1]
        expected_arg = lo + int(np.flatnonzero(window == window.max()).max())
        assert st.range_argmax(lo, hi) == expected_arg


# -- lazy blocks -------------------------------------------------------------


def _brute_argmax(values, lo, hi):
    """(max, argmax) over the clamped ``[lo, hi]``; later index wins ties."""
    lo, hi = max(lo, 0), min(hi, len(values) - 1)
    if hi < lo:
        return float("-inf"), -1
    window = np.asarray(values[lo : hi + 1], dtype=float)
    best = window.max()
    return float(best), lo + int(np.flatnonzero(window == best).max())


@pytest.mark.parametrize("bits", range(8))
def test_lazy_blocks_match_brute_force(monkeypatch, bits):
    monkeypatch.setattr(segment_tree, "BLOCK_BITS", bits)
    rng = np.random.default_rng(100 + bits)
    for n in (0, 1, 2, 3, 37, 200, 513):
        values = rng.integers(0, 4, n).astype(float)  # tie-heavy
        st = MaxSegmentTree(values)
        assert st.blocks_built == 0
        for _ in range(60):
            lo, hi = (int(x) for x in rng.integers(-5, n + 5, 2))
            assert st.range_max_with_argmax(lo, hi) == _brute_argmax(values, lo, hi)
        if n == 0:
            continue
        for _ in range(20):
            i = int(rng.integers(0, n))
            values[i] = float(rng.integers(0, 6))
            st.update(i, values[i])
            lo, hi = sorted(int(x) for x in rng.integers(0, n, 2))
            assert st.range_max_with_argmax(lo, hi) == _brute_argmax(values, lo, hi)
            assert st.range_max_with_argmax(0, n - 1) == _brute_argmax(values, 0, n - 1)


def test_update_on_cold_tree_keeps_other_blocks_exact(monkeypatch):
    monkeypatch.setattr(segment_tree, "BLOCK_BITS", 2)
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]
    st = MaxSegmentTree(values)
    st.update(5, 0.0)
    assert st.blocks_built == 1
    values[5] = 0.0
    for lo in range(len(values)):
        for hi in range(lo, len(values)):
            assert st.range_max_with_argmax(lo, hi) == _brute_argmax(values, lo, hi)


def test_probe_builds_only_the_blocks_of_its_ends(monkeypatch):
    monkeypatch.setattr(segment_tree, "BLOCK_BITS", 4)
    st = MaxSegmentTree(np.arange(256, dtype=float))
    assert st.range_argmax(20, 200) == 200
    assert st.blocks_built == 2  # blocks 1 and 12, not the ten between
    assert st.range_argmax(16, 31) == 31
    assert st.blocks_built == 2
    assert st.range_argmax(500, 900) == -1  # empty after clamping: builds nothing
    assert st.blocks_built == 2


def test_tree_owns_a_copy_of_its_input():
    values = np.array([1.0, 7.0, 3.0, 2.0])
    st = MaxSegmentTree(values)
    values[:] = [9.0, 0.0, 0.0, 0.0]
    assert st.range_max_with_argmax(0, 3) == (7.0, 1)
    assert st.value_at(0) == 1.0


def test_concurrent_first_touches_get_reference_answers():
    rng = np.random.default_rng(9)
    values = rng.integers(0, 50, 40_000).astype(float)
    windows = [tuple(sorted(int(x) for x in rng.integers(0, 40_000, 2))) for _ in range(100)]
    expected = [_brute_argmax(values, lo, hi) for lo, hi in windows]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):  # each round first-touches a fresh cold tree
            st = MaxSegmentTree(values)
            start = threading.Barrier(8)
            answers: list = [None] * 8

            def probe(slot):
                start.wait()
                answers[slot] = [st.range_max_with_argmax(lo, hi) for lo, hi in windows]

            threads = [threading.Thread(target=probe, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert answers == [expected] * 8
    finally:
        sys.setswitchinterval(interval)
