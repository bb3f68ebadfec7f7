"""Tests for the ASCII chart helpers and the ``python -m repro`` CLI."""

import pytest

import repro.harness.experiment
from repro.__main__ import main as cli_main
from repro.harness import (TraceCache, fig6_chart, mode_strip, run_matrix,
                           run_model, speedup_bars, stacked_bar)
from repro.telemetry import Timeline

#: ``mode_strip`` of multipass on mcf at scale 0.05, as the per-cycle
#: mode log of the scalar loop rendered it before the strip read spans.
MCF_MODE_STRIP = (
    "modes (-=architectural A=advance R=rally m=mixed; 60 cycles/char):\n"
    "|AAAAAAAAAARAAAAAAAAmm--AAmAAAmAAmmmAAAAR--mAARmAAAAmm---mAARmAAAAAmAAm"
    "---|")


@pytest.fixture(scope="module")
def small_matrix():
    cache = TraceCache(0.05)
    return run_matrix(("inorder", "multipass", "ooo"),
                      workloads=("mcf",), cache=cache), cache


class TestCharts:
    def test_stacked_bar_length_tracks_total(self, small_matrix):
        matrix, _ = small_matrix
        base = matrix.get("mcf", "inorder")
        mp = matrix.get("mcf", "multipass")
        base_bar = stacked_bar(base, base.cycles, width=60)
        mp_bar = stacked_bar(mp, base.cycles, width=60)
        assert 57 <= len(base_bar) <= 63      # rounding slack
        assert len(mp_bar) < len(base_bar)    # multipass is faster

    def test_stacked_bar_rejects_bad_baseline(self, small_matrix):
        matrix, _ = small_matrix
        with pytest.raises(ValueError):
            stacked_bar(matrix.get("mcf", "inorder"), 0)

    def test_fig6_chart_renders(self, small_matrix):
        matrix, _ = small_matrix
        text = fig6_chart(matrix)
        assert "mcf" in text and "|" in text

    def test_speedup_bars(self):
        text = speedup_bars({"multipass": 1.5, "ooo": 3.0})
        assert "multipass" in text
        assert text.count("#") > 10

    def test_speedup_bars_empty(self):
        assert "no data" in speedup_bars({})

    def test_mode_strip(self, small_matrix):
        _, cache = small_matrix
        timeline = Timeline()
        run_model("multipass", cache.trace("mcf"), tracer=timeline)
        assert mode_strip(timeline) == MCF_MODE_STRIP

    def test_mode_strip_empty(self):
        assert "no mode spans" in mode_strip(Timeline())


class TestCLI:
    def test_workloads_command(self, capsys):
        assert cli_main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "CINT2000" in out

    def test_models_command(self, capsys):
        assert cli_main(["models"]) == 0
        out = capsys.readouterr().out
        assert "multipass" in out and "twopass" in out

    def test_compare_command(self, capsys):
        assert cli_main(["compare", "crafty", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "ooo-realistic" in out

    def test_simulate_command(self, capsys):
        assert cli_main(["simulate", "crafty", "--scale", "0.05",
                         "--models", "multipass"]) == 0
        out = capsys.readouterr().out
        assert "multipass/crafty" in out

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            cli_main(["simulate", "nonesuch"])

    @pytest.mark.parametrize("argv", [
        pytest.param(["trace", "mcf", "--format", "chrome",
                      "--max-events", "0"], id="0"),
        pytest.param(["trace", "mcf", "--format", "chrome",
                      "--max-events", "-1"], id="-1"),
        pytest.param(["profile", "mcf", "--top", "0"], id="top0"),
        pytest.param(["profile", "mcf", "--top", "-1"], id="top-1"),
    ])
    def test_trace_rejects_non_positive_max_events(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli_main(argv)
        assert exit_.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_trace_max_events_keeps_the_first_jsonl_records(self, capsys):
        assert cli_main(["trace", "mcf", "--max-events", "3"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 3
        assert "kept the first 3 of" in err

    def test_trace_failing_run_reports_no_output(self, tmp_path,
                                                 monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise RuntimeError("simulated failure")

        monkeypatch.setattr(repro.harness.experiment, "run_model", fail)
        with pytest.raises(RuntimeError):
            cli_main(["trace", "mcf", "--out", str(tmp_path / "t.json")])
        assert "written to" not in capsys.readouterr().err
