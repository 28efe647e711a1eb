"""Unit tests for the score-array range top-k building block."""

import numpy as np
import pytest

from repro.core.engine import DurableTopKEngine
from repro.core.query import DurableTopKQuery
from repro.core.record import Dataset
from repro.core.reference import brute_force_topk
from repro.index import segment_tree
from repro.index.range_topk import ScoreArrayTopKIndex
from repro.scoring import LinearPreference


@pytest.fixture(scope="module")
def scores():
    rng = np.random.default_rng(3)
    return rng.random(500)


@pytest.fixture(scope="module")
def index(scores):
    return ScoreArrayTopKIndex(scores)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        ScoreArrayTopKIndex(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ScoreArrayTopKIndex(np.array([1.0, np.nan]))


def test_top1_matches_argmax(scores, index):
    assert index.top1(0, 499) == int(np.argmax(scores))
    assert index.top1(700, 900) is None


def test_topk_empty_cases(index):
    assert index.topk(0, 0, 499) == []
    assert index.topk(5, 300, 200) == []
    assert index.topk(5, 600, 700) == []


def test_topk_more_than_range(index):
    out = index.topk(50, 10, 14)
    assert sorted(out) == [10, 11, 12, 13, 14]


def test_topk_is_sorted_best_first(scores, index):
    out = index.topk(20, 50, 400)
    out_scores = scores[out]
    assert all(out_scores[i] >= out_scores[i + 1] for i in range(len(out) - 1))


def test_matches_brute_force_randomised(scores, index):
    rng = np.random.default_rng(4)
    for _ in range(200):
        lo, hi = sorted(rng.integers(0, 500, 2))
        k = int(rng.integers(1, 20))
        assert index.topk(k, int(lo), int(hi)) == brute_force_topk(scores, k, int(lo), int(hi))


def test_tie_break_later_arrival_wins():
    scores = np.array([2.0, 5.0, 5.0, 1.0, 5.0])
    index = ScoreArrayTopKIndex(scores)
    assert index.topk(3, 0, 4) == [4, 2, 1]
    assert index.topk(5, 0, 4) == [4, 2, 1, 0, 3]


def test_matches_brute_force_with_ties():
    rng = np.random.default_rng(5)
    scores = rng.integers(0, 6, 300).astype(float)
    index = ScoreArrayTopKIndex(scores)
    for _ in range(150):
        lo, hi = sorted(rng.integers(0, 300, 2))
        k = int(rng.integers(1, 12))
        assert index.topk(k, int(lo), int(hi)) == brute_force_topk(scores, k, int(lo), int(hi))


def test_score_accessor(scores, index):
    assert index.score(17) == pytest.approx(float(scores[17]))
    assert index.n == 500


def test_index_owns_a_copy_of_its_scores():
    rng = np.random.default_rng(6)
    source = rng.integers(0, 8, 400).astype(float)
    reference = source.copy()
    index = ScoreArrayTopKIndex(source)
    source[:] = rng.random(400) * 100
    assert index.score(17) == reference[17]
    for lo, hi in ((0, 399), (5, 90), (123, 321)):
        assert index.topk(7, lo, hi) == brute_force_topk(reference, 7, lo, hi)
        assert index.topk_batch(7, [(lo, hi)]) == [brute_force_topk(reference, 7, lo, hi)]


def test_t_hop_builds_only_blocks_its_windows_read(monkeypatch):
    monkeypatch.setattr(segment_tree, "BLOCK_BITS", 8)
    rng = np.random.default_rng(8)
    engine = DurableTopKEngine(Dataset(rng.random((60_000, 2))))
    # Narrow windows (tau + 1 = 1,001 rows) all scan: no tree is built.
    narrow = engine.session(LinearPreference([0.4, 0.6]))
    query = DurableTopKQuery(k=5, tau=1_000, interval=(9_000, 10_999))
    assert narrow.query(query, algorithm="t-hop").ids
    assert narrow.index._tree is None and narrow.index.blocks_built == 0
    # Wide windows (30,001 rows) descend, and the tree builds only the
    # blocks those windows read.
    wide = engine.session(LinearPreference([0.7, 0.3]))
    lo, hi, tau = 40_000, 59_999, 30_000
    query = DurableTopKQuery(k=5, tau=tau, interval=(lo, hi))
    assert wide.query(query, algorithm="t-hop").ids
    touched = range((lo - tau) >> 8, (hi >> 8) + 1)
    built = [block for block, flag in enumerate(wide.index._tree._built) if flag]
    assert built and set(built) <= set(touched)
    assert wide.index.blocks_built == len(built) < 60_000 >> 8
