"""Tests for the experiment harness, reports and figure drivers."""

import weakref
from collections import Counter

import pytest

from repro.harness import (Matrix, ResultsCache, TraceCache, experiment,
                           fig6_table, figure6, figure7, figure8, geomean,
                           run_matrix, run_model, speedup_table,
                           stall_reduction, summarize_headline, table1)
from repro.machine import MachineConfig
from repro.memory.configs import config2_hierarchy

SCALE = 0.05
WORKLOADS = ("mcf", "crafty")


@pytest.fixture(scope="module")
def cache():
    return TraceCache(SCALE)


class TestTraceCache:
    def test_traces_cached(self, cache):
        t1 = cache.trace("mcf")
        t2 = cache.trace("mcf")
        assert t1 is t2

    def test_unknown_workload(self, cache):
        with pytest.raises(KeyError):
            cache.trace("nope")


class TestRunModel:
    def test_all_models_run(self, cache):
        trace = cache.trace("crafty")
        for model in ("inorder", "multipass", "runahead", "ooo",
                      "ooo-realistic", "multipass-noregroup",
                      "multipass-norestart"):
            stats = run_model(model, trace)
            assert stats.instructions == len(trace), model
            assert sum(stats.cycle_breakdown.values()) == stats.cycles

    def test_unknown_model(self, cache):
        with pytest.raises(KeyError):
            run_model("pentium5", cache.trace("crafty"))

    def test_custom_config(self, cache):
        trace = cache.trace("mcf")
        config = MachineConfig().with_hierarchy(config2_hierarchy())
        stats = run_model("inorder", trace, config)
        assert stats.cycles > 0


class TestMatrix:
    @pytest.fixture(scope="class")
    def matrix(self, cache):
        return run_matrix(("inorder", "multipass"), workloads=WORKLOADS,
                          cache=cache)

    def test_contents(self, matrix):
        assert set(matrix.workloads()) == set(WORKLOADS)
        assert set(matrix.models()) == {"inorder", "multipass"}

    def test_speedup(self, matrix):
        for workload in WORKLOADS:
            assert matrix.speedup(workload, "inorder") == 1.0
            assert matrix.speedup(workload, "multipass") > 0.5

    def test_reports_render(self, matrix):
        text = fig6_table(matrix, models=("inorder", "multipass"))
        assert "mcf" in text and "multipass" in text
        table = speedup_table(matrix, ("multipass",))
        assert "geomean" in table

    def test_summarize_headline(self, matrix):
        summary = summarize_headline(matrix)
        assert "mp_speedup_geomean" in summary
        assert summary["mp_speedup_geomean"] > 0.5

    def test_stall_reduction_bounds(self, matrix):
        for workload in WORKLOADS:
            r = stall_reduction(matrix.get(workload, "multipass"),
                                matrix.get(workload, "inorder"))
            assert r <= 1.0


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestFigureDrivers:
    def test_figure6_small(self, cache):
        result = figure6(scale=SCALE, workloads=WORKLOADS, cache=cache)
        assert "multipass speedup" in result.text
        assert result.data["mp_speedup_geomean"] > 0.5
        matrix = result.data["matrix"]
        assert set(matrix.workloads()) == set(WORKLOADS)

    def test_figure8_small(self, cache):
        result = figure8(scale=SCALE, workloads=("mcf",), cache=cache)
        row = result.data["per_workload"]["mcf"]
        assert 0.0 <= row["norestart_retained"] <= 1.5
        assert "no-restart" in result.text

    def test_table1_small(self, cache):
        result = table1(scale=SCALE, workload="mcf", cache=cache)
        assert set(result.data["peak"]) == {
            "registers", "scheduling", "memory-ordering"}
        for ratio in result.data["average"].values():
            assert ratio > 0


class TestExecuteOnce:
    """A driver that replays one trace across several sweeps, or reads
    it after its sweep, hands the sweep its trace cache, so each
    program is functionally executed once per driver call."""

    @pytest.fixture
    def executions(self, monkeypatch):
        counts = Counter()
        execute = experiment.execute

        def counted(program, **kwargs):
            counts[program.name] += 1
            return execute(program, **kwargs)

        monkeypatch.setattr(experiment, "execute", counted)
        return counts

    @pytest.mark.parametrize("stored", [False, True],
                             ids=["no-results-cache", "results-cache"])
    def test_figure7_executes_each_program_once(self, executions, stored,
                                                tmp_path):
        store = ResultsCache(tmp_path) if stored else None
        figure7(scale=SCALE, workloads=("vpr", "mcf"), parallel=1,
                results_cache=store)
        assert dict(executions) == {"vpr": 1, "mcf": 1}

    def test_cold_table1_with_results_cache_executes_mcf_once(
            self, executions, tmp_path):
        table1(scale=SCALE, workload="mcf", parallel=1,
               results_cache=ResultsCache(tmp_path))
        assert dict(executions) == {"mcf": 1}


def test_serial_run_matrix_holds_one_workloads_trace(monkeypatch):
    """Given no cache, run_matrix's serial loop drops each workload's
    trace after its models: no model starts while another workload's
    trace is alive."""
    seen, others_alive = [], []
    run = experiment.run_model

    def weighing(model, trace, config=None):
        others_alive.append(sum(ref() not in (None, trace) for ref in seen))
        if not any(ref() is trace for ref in seen):
            seen.append(weakref.ref(trace))
        return run(model, trace, config)

    monkeypatch.setattr(experiment, "run_model", weighing)
    run_matrix(("inorder", "multipass"), ("vpr", "parser", "gzip"),
               scale=SCALE)
    assert len(seen) == 3
    assert others_alive == [0] * 6
