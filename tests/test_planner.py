"""Tests for the cost-based planner."""

import numpy as np
import pytest

from repro.core.engine import DurableTopKEngine
from repro.core.planner import CostModel, PlannerDecision, choose_algorithm
from repro.core.query import DurableTopKQuery
from repro.core.record import Dataset
from repro.scoring import CosinePreference, LinearPreference


class TestChooseAlgorithm:
    def test_validation(self):
        with pytest.raises(ValueError):
            choose_algorithm(0, 10, 100, 2, True)
        with pytest.raises(ValueError):
            choose_algorithm(1, 0, 100, 2, True)

    def test_selective_low_dim_prefers_band(self):
        # S-Band saves top-k calls, so it wins where they are dear: wide
        # windows, which descend at a price that grows with k.
        decision = choose_algorithm(10, 40_000, 200_000, 2, True, True, True)
        assert decision.algorithm == "s-band"
        assert decision.expected_candidates is not None

    def test_high_dim_avoids_band(self):
        decision = choose_algorithm(5, 5_000, 25_000, 30, True, True, True)
        assert decision.algorithm in ("t-hop", "s-hop")

    def test_narrow_windows_prefer_t_hop(self):
        # A narrow window's top-k call is one cheap scan: T-Hop's extra
        # calls cost less than S-Band's candidate retrieval.
        decision = choose_algorithm(5, 1_000, 5_000, 2, True, True, True)
        assert decision.algorithm == "t-hop"

    def test_band_unavailable_without_index(self):
        decision = choose_algorithm(5, 5_000, 25_000, 2, True, True, has_skyband_index=False)
        assert "s-band" not in decision.estimates

    def test_band_unavailable_without_strict_monotonicity(self):
        decision = choose_algorithm(5, 5_000, 25_000, 2, True, False, True)
        assert "s-band" not in decision.estimates

    def test_unselective_query_prefers_linear_scan(self):
        # tau tiny -> nearly everything is an answer -> hop query counts
        # approach |I| and per-record algorithms win.
        decision = choose_algorithm(10, 2, 50_000, 2, True, True, True)
        assert decision.algorithm in ("s-base", "t-base")

    def test_expected_answer_matches_lemma(self):
        decision = choose_algorithm(4, 99, 1_000, 2, True)
        assert decision.expected_answer == pytest.approx(4 * 1_000 / 100)

    def test_explain_mentions_choice(self):
        decision = choose_algorithm(5, 1_000, 10_000, 2, True, True, True)
        text = decision.explain()
        assert decision.algorithm in text
        assert "E|S|" in text

    def test_custom_cost_model_changes_choice(self):
        # Free top-k queries make T-Hop unbeatable.
        free_queries = CostModel(topk_query=0.0)
        decision = choose_algorithm(
            5, 1_000, 10_000, 2, True, True, True, cost_model=free_queries
        )
        assert decision.algorithm == "t-hop"


class TestEngineAuto:
    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(21)
        return Dataset(rng.random((2_000, 2)), name="auto-test")

    def test_auto_produces_correct_answer(self, dataset):
        from repro.core.reference import brute_force_durable_topk

        engine = DurableTopKEngine(dataset, skyband_k_max=8)
        scorer = LinearPreference([0.5, 0.5])
        res = engine.query(DurableTopKQuery(k=3, tau=200), scorer, algorithm="auto")
        expected = brute_force_durable_topk(scorer.scores(dataset.values), 3, 0, 1999, 200)
        assert res.ids == expected
        assert res.algorithm in ("t-base", "t-hop", "s-base", "s-band", "s-hop")

    def test_plan_exposed(self, dataset):
        engine = DurableTopKEngine(dataset, skyband_k_max=8)
        decision = engine.plan(DurableTopKQuery(k=3, tau=200), LinearPreference([0.5, 0.5]))
        assert isinstance(decision, PlannerDecision)

    def test_auto_never_band_for_cosine(self, dataset):
        engine = DurableTopKEngine(dataset, skyband_k_max=8)
        decision = engine.plan(DurableTopKQuery(k=3, tau=200), CosinePreference([1.0, 1.0]))
        assert "s-band" not in decision.estimates
