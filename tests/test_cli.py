"""Tests for the experiment CLI (`python -m repro`)."""

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])


class TestRun:
    def test_run_fig8_small(self, capsys, tmp_path):
        code = main(
            ["run", "fig8", "--workload", "nba2", "--n", "2000",
             "--preferences", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "t-hop" in out
        saved = list(tmp_path.glob("*.txt"))
        assert len(saved) == 1
        assert "Figure 8" in saved[0].read_text()

    def test_run_fig12_anti_small(self, capsys):
        # Route the ANTI workload flag through to figure12.
        code = main(["run", "fig12", "--workload", "anti", "--n", "2000", "--preferences", "1"])
        assert code == 0
        assert "ANTI" in capsys.readouterr().out


class TestStream:
    def test_stream_replays_arrival_decisions(self, capsys):
        code = main(
            ["stream", "--workload", "ind", "--n", "300", "--k", "2",
             "--tau", "40", "--lookahead", "--limit", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "durable on arrival" in out
        assert "look-back durable on arrival" in out
        assert "look-ahead durable" in out

    def test_stream_custom_weights(self, capsys):
        code = main(
            ["stream", "--workload", "ind", "--n", "200", "--weights", "0.9,0.1"]
        )
        assert code == 0
        assert "u=[0.9, 0.1]" in capsys.readouterr().out

    def test_stream_matches_offline_engine(self, capsys):
        """The streamed look-back count equals the offline durable set."""
        from repro import LinearPreference, durable_topk
        from repro.data import independent_uniform

        main(["stream", "--workload", "ind", "--n", "400", "--k", "3", "--tau", "60"])
        out = capsys.readouterr().out
        data = independent_uniform(400, 2, seed=0)
        expected = durable_topk(data, LinearPreference([0.5, 0.5]), k=3, tau=60)
        assert f"{len(expected.ids)}/400 records look-back durable" in out


class TestTrace:
    def test_trace_prints_the_slowest_waterfalls(self, capsys):
        code = main(["trace", "--requests", "40", "--top", "2"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "slowest 2 of 40 requests" in out
        waterfalls = [w for w in out.split("\n\n")[1:] if w.strip()]
        assert len(waterfalls) == 2, out
        for waterfall in waterfalls:
            assert "service.batch" in waterfall, waterfall
