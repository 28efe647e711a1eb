"""Tests for cost-model calibration and result persistence."""

import numpy as np
import pytest

from repro.core.engine import DurableTopKEngine
from repro.core.planner import CostModel
from repro.core.query import Direction, DurableTopKQuery
from repro.core.record import Dataset
from repro.experiments.calibration import calibrate_cost_model
from repro.experiments.resultstore import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.scoring import LinearPreference


class TestCalibration:
    def test_returns_cost_model_with_sane_ratios(self):
        rng = np.random.default_rng(1)
        dataset = Dataset(rng.random((4_000, 2)), name="cal")
        model = calibrate_cost_model(dataset, repeats=30)
        assert isinstance(model, CostModel)
        assert model.per_record == 1.0
        # A top-k query must cost more than a single record step.
        assert model.topk_query > 1.0
        assert model.topk_per_rank > 0.0
        assert model.sort_per_record > 0.0
        # Scanning a row costs far less than one record step.
        assert 0.0 < model.scan_per_row < 1.0

    def test_default_model_scans_narrow_windows_and_descends_wide_ones(self):
        model = CostModel()
        assert model.scans(1_001, 10)
        assert not model.scans(60_000, 5)
        # One range-argmax beats a scan of any width.
        assert not model.scans(1_001, 1)

    def test_calibrated_model_usable_by_planner(self):
        from repro.core.planner import choose_algorithm

        rng = np.random.default_rng(2)
        dataset = Dataset(rng.random((4_000, 2)), name="cal2")
        model = calibrate_cost_model(dataset, repeats=20)
        decision = choose_algorithm(
            5, 400, 2_000, 2, True, True, True, cost_model=model
        )
        assert decision.algorithm in ("t-base", "t-hop", "s-base", "s-band", "s-hop")

    def test_default_dataset(self):
        model = calibrate_cost_model(repeats=10)
        assert model.topk_query > 0


class TestResultStore:
    @pytest.fixture()
    def result(self):
        rng = np.random.default_rng(3)
        dataset = Dataset(rng.random((400, 2)), name="store")
        engine = DurableTopKEngine(dataset)
        return engine.query(
            DurableTopKQuery(k=2, tau=40, interval=(50, 350)),
            LinearPreference([0.5, 0.5]),
            algorithm="t-hop",
            with_durations=True,
        )

    def test_roundtrip_dict(self, result):
        payload = result_to_dict(result)
        restored = result_from_dict(payload)
        assert restored.ids == result.ids
        assert restored.algorithm == result.algorithm
        assert restored.query == result.query
        assert restored.durations == result.durations
        assert restored.stats.topk_queries == result.stats.topk_queries

    def test_roundtrip_file(self, result, tmp_path):
        path = save_result(result, tmp_path / "run.json")
        restored = load_result(path)
        assert restored.ids == result.ids
        assert restored.query.direction is Direction.PAST

    def test_provenance_recorded(self, result):
        import repro

        payload = result_to_dict(result)
        assert payload["library_version"] == repro.__version__

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            result_from_dict({"algorithm": "t-hop"})

    def test_future_direction_roundtrip(self):
        rng = np.random.default_rng(4)
        dataset = Dataset(rng.random((200, 1)), name="future-store")
        engine = DurableTopKEngine(dataset)
        res = engine.query(
            DurableTopKQuery(k=1, tau=20, direction=Direction.FUTURE),
            LinearPreference([1.0]),
            algorithm="t-hop",
        )
        restored = result_from_dict(result_to_dict(res))
        assert restored.query.direction is Direction.FUTURE
        assert restored.ids == res.ids
