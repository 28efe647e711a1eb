"""Tests for bench telemetry (`resultstore`) and the perf gate (`perf`).

Covers the BENCH_*.json schema (round-trip, validation failures, refusal
to save invalid records, the history trajectory), the regression rule
(noise bands, abs_noise floors, better-direction handling), the
cross-machine guard (portable metrics gate everywhere, machine-bound
ones only on matching fingerprints), promotion, and the CLI: an injected
>=20% slowdown must exit ``perf-gate`` nonzero, a clean re-run must exit
zero.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main
from repro.experiments.perf import (
    comparable_environments,
    compare_dirs,
    compare_records,
    format_report,
    gate,
    promote,
)
from repro.experiments.resultstore import (
    BenchMetric,
    BenchRecord,
    environment_fingerprint,
    fingerprint_header,
    load_bench_dir,
    load_bench_record,
    save_bench_record,
    validate_bench_payload,
)


def make_record(name="demo", metrics=None, env=None) -> BenchRecord:
    return BenchRecord(
        name=name,
        metrics=metrics
        or [
            BenchMetric("rps", 1000.0, "req/s", "higher", 0.10),
            BenchMetric("p95_ms", 20.0, "ms", "lower", 0.25),
            BenchMetric("incorrect", 0, "", "lower", 0.0, portable=True),
        ],
        environment=env or environment_fingerprint(),
    )


# ----------------------------------------------------------------------
# Schema: round-trip, validation, history
# ----------------------------------------------------------------------
class TestBenchSchema:
    def test_round_trip_through_disk(self, tmp_path):
        record = make_record()
        path = save_bench_record(record, tmp_path)
        assert path.name == "BENCH_demo.json"
        loaded = load_bench_record(path)
        assert loaded.as_dict() == record.as_dict()
        assert loaded.metric("rps").better == "higher"
        assert loaded.metric("nope") is None

    def test_environment_fingerprint_contents(self):
        env = environment_fingerprint()
        for key in ("cpu_count", "python", "platform", "machine", "git_sha"):
            assert env[key]
        header = fingerprint_header(env)
        assert header.startswith("# env: ")
        assert f"cores={env['cpu_count']}" in header
        assert "\n# clocks: " in header

    def test_validation_failures(self):
        good = make_record().as_dict()
        assert validate_bench_payload(good) == []

        assert validate_bench_payload({"name": "x"})  # missing fields

        bad_version = dict(good, schema_version=99)
        assert any("schema_version" in e for e in validate_bench_payload(bad_version))

        nan = dict(good, metrics=[dict(good["metrics"][0], value=float("nan"))])
        assert any("finite" in e for e in validate_bench_payload(nan))

        sideways = dict(good, metrics=[dict(good["metrics"][0], better="sideways")])
        assert any("better" in e for e in validate_bench_payload(sideways))

        doubled = dict(good, metrics=[good["metrics"][0]] * 2)
        assert any("duplicate" in e for e in validate_bench_payload(doubled))

        empty = dict(good, metrics=[])
        assert any("non-empty" in e for e in validate_bench_payload(empty))

    def test_from_dict_rejects_invalid_payloads(self):
        with pytest.raises(ValueError, match="invalid bench record"):
            BenchRecord.from_dict({"name": "x"})

    def test_save_refuses_invalid_records(self, tmp_path):
        bad = make_record(metrics=[BenchMetric("rps", float("nan"))])
        with pytest.raises(ValueError, match="refusing to save"):
            save_bench_record(bad, tmp_path)
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_history_accumulates_while_record_overwrites(self, tmp_path):
        save_bench_record(make_record(), tmp_path)
        save_bench_record(make_record(), tmp_path)
        assert len(list(tmp_path.glob("BENCH_*.json"))) == 1
        lines = (tmp_path / "BENCH_HISTORY.jsonl").read_text().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert entry["name"] == "demo"
        assert entry["metrics"]["rps"] == 1000.0


# ----------------------------------------------------------------------
# The regression rule
# ----------------------------------------------------------------------
class TestRegressionRule:
    def _delta(self, baseline, current, **metric_overrides):
        kwargs = dict(unit="req/s", better="higher", noise=0.10)
        kwargs.update(metric_overrides)
        base = make_record(metrics=[BenchMetric("m", baseline, **kwargs)])
        curr = make_record(metrics=[BenchMetric("m", current, **kwargs)])
        (delta,) = compare_records(base, curr)
        return delta

    def test_injected_twenty_percent_slowdown_regresses(self):
        delta = self._delta(1000.0, 800.0)  # 20% worse vs 10% band
        assert delta.regressed
        assert gate([delta]) == 1

    def test_movement_inside_the_band_is_noise(self):
        delta = self._delta(1000.0, 950.0)
        assert not delta.regressed and not delta.improved
        assert gate([delta]) == 0

    def test_improvement_is_flagged_not_failed(self):
        delta = self._delta(1000.0, 1300.0)
        assert delta.improved and not delta.regressed

    def test_lower_is_better_flips_the_direction(self):
        delta = self._delta(20.0, 28.0, better="lower", unit="ms", noise=0.25)
        assert delta.regressed  # +40% on a lower-is-better metric
        assert not self._delta(20.0, 14.0, better="lower", noise=0.25).regressed

    def test_abs_noise_floors_near_zero_metrics(self):
        ok = self._delta(0.0, 0.005, better="lower", noise=0.0, abs_noise=0.01)
        assert not ok.regressed
        bad = self._delta(0.0, 0.02, better="lower", noise=0.0, abs_noise=0.01)
        assert bad.regressed


# ----------------------------------------------------------------------
# Cross-machine comparability
# ----------------------------------------------------------------------
class TestComparability:
    def test_python_minor_granularity(self):
        a = environment_fingerprint()
        b = dict(a, python="3.11.999")
        c = dict(a, python="3.999.0")
        assert comparable_environments(a, b)
        assert not comparable_environments(a, c)

    def test_other_machine_downgrades_machine_bound_metrics(self):
        env_a = environment_fingerprint()
        env_b = dict(env_a, cpu_count=int(env_a["cpu_count"]) + 7)
        base = make_record(
            metrics=[
                BenchMetric("rps", 1000.0, "req/s", "higher", 0.10),
                BenchMetric("speedup", 2.0, "x", "higher", 0.10, portable=True),
            ],
            env=env_a,
        )
        curr = make_record(
            metrics=[
                BenchMetric("rps", 100.0, "req/s", "higher", 0.10),  # 10x worse
                BenchMetric("speedup", 1.0, "x", "higher", 0.10, portable=True),
            ],
            env=env_b,
        )
        rps, speedup = compare_records(base, curr)
        assert not rps.gated and not rps.regressed  # informational only
        assert speedup.gated and speedup.regressed  # ratios gate everywhere
        report = format_report([rps, speedup], [], [])
        assert "info (machines differ)" in report
        assert "REGRESSED" in report


# ----------------------------------------------------------------------
# Directory diffing, promotion, CLI
# ----------------------------------------------------------------------
class TestDirsAndCLI:
    def _seed(self, tmp_path, rps):
        baseline, current = tmp_path / "baseline", tmp_path / "current"
        save_bench_record(make_record(), baseline, history=False)
        save_bench_record(
            make_record(
                metrics=[
                    BenchMetric("rps", rps, "req/s", "higher", 0.10),
                    BenchMetric("p95_ms", 20.0, "ms", "lower", 0.25),
                    BenchMetric("incorrect", 0, "", "lower", 0.0, portable=True),
                ]
            ),
            current,
            history=False,
        )
        return baseline, current

    def test_compare_dirs_reports_missing_benches(self, tmp_path):
        baseline, current = self._seed(tmp_path, 1000.0)
        save_bench_record(make_record(name="only_base"), baseline, history=False)
        save_bench_record(make_record(name="only_curr"), current, history=False)
        deltas, missing_current, missing_baseline = compare_dirs(baseline, current)
        assert {d.metric.name for d in deltas} == {"rps", "p95_ms", "incorrect"}
        assert missing_current == ["only_base"]
        assert missing_baseline == ["only_curr"]

    def test_promote_revalidates_and_copies(self, tmp_path):
        baseline, current = self._seed(tmp_path, 900.0)
        assert promote(current, baseline) == ["demo"]
        assert load_bench_dir(baseline)["demo"].metric("rps").value == 900.0
        # A corrupt record never becomes the baseline.
        (current / "BENCH_demo.json").write_text('{"name": "demo"}')
        with pytest.raises(ValueError):
            promote(current, baseline)

    def test_cli_gate_fails_on_injected_regression(self, tmp_path, capsys):
        baseline, current = self._seed(tmp_path, 790.0)  # >20% down
        code = main(
            ["perf-gate", "--baseline", str(baseline), "--current", str(current)]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_cli_gate_passes_clean_run(self, tmp_path, capsys):
        baseline, current = self._seed(tmp_path, 980.0)
        code = main(
            ["perf-gate", "--baseline", str(baseline), "--current", str(current)]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_cli_gate_fails_with_nothing_to_compare(self, tmp_path, capsys):
        code = main(
            [
                "perf-gate",
                "--baseline",
                str(tmp_path / "empty_a"),
                "--current",
                str(tmp_path / "empty_b"),
            ]
        )
        assert code == 1
        assert "no overlapping" in capsys.readouterr().out

    def test_cli_report_never_gates_but_promote_refreshes(self, tmp_path, capsys):
        baseline, current = self._seed(tmp_path, 500.0)  # way regressed
        code = main(
            [
                "perf-report",
                "--baseline",
                str(baseline),
                "--current",
                str(current),
                "--promote",
            ]
        )
        assert code == 0  # report informs; only perf-gate fails builds
        assert "promoted 1 record(s)" in capsys.readouterr().out
        assert load_bench_dir(baseline)["demo"].metric("rps").value == 500.0
        # After promotion the same run gates clean.
        assert (
            main(["perf-gate", "--baseline", str(baseline), "--current", str(current)])
            == 0
        )


# ----------------------------------------------------------------------
# The benches really emit schema-valid telemetry
# ----------------------------------------------------------------------
class TestBenchEmission:
    def test_obs_bench_smoke_emits_valid_bench_json(self, tmp_path, capsys):
        main(["obs-bench", "--smoke", "--out", str(tmp_path)])
        # A wrong, refused or non-identical answer fails the test; the
        # smoke's wall-clock overhead gates are the obs-smoke CI kind's.
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("SMOKE FAILURE: "):
                failures = line.removeprefix("SMOKE FAILURE: ").split("; ")
                assert all("overhead" in failure for failure in failures), line
        record = load_bench_record(tmp_path / "BENCH_obs_overhead.json")
        names = {m.name for m in record.metrics}
        assert {"off_rps", "disabled_overhead", "slo_overhead", "incorrect"} <= names
        assert record.metric("incorrect").value == 0
        assert (tmp_path / "BENCH_HISTORY.jsonl").exists()
        text = (tmp_path / "obs_overhead.txt").read_text()
        assert text.startswith("# env: ")

    def test_figure_run_emits_valid_bench_json(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "fig8",
                "--n",
                "1500",
                "--preferences",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        (path,) = tmp_path.glob("BENCH_fig8-*.json")
        record = load_bench_record(path)
        assert any(m.name.endswith("_topk_queries") for m in record.metrics)
        assert any(m.portable for m in record.metrics)
