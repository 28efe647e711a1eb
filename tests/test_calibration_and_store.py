"""Tests for cost-model calibration and the report fingerprint."""

import numpy as np

from repro.core.planner import CostModel
from repro.core.record import Dataset
from repro.experiments.calibration import calibrate_cost_model
from repro.experiments.resultstore import environment_fingerprint, fingerprint_header


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


class TestEnvironmentFingerprint:
    def test_environment_fingerprint_contents(self):
        env = environment_fingerprint()
        for key in ("cpu_count", "python", "platform", "machine", "git_sha"):
            assert env[key]
        header = fingerprint_header(env)
        assert header.startswith("# env: ")
        assert f"cores={env['cpu_count']}" in header
        assert "\n# clocks: " in header
