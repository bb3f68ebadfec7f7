"""Determinism and cache-equivalence contracts of the parallel engine.

The whole point of the sharded engine is that it is an *optimization*,
never a semantic change: a parallel sweep, a cold cached sweep and a
warm cached sweep must all produce stats bit-identical to plain serial
``run_matrix`` (SimStats dataclass equality covers cycles, the stall
breakdown, counters, memory-hierarchy stats and branch accuracy).
"""

import multiprocessing
import os
import weakref

import pytest

from repro.harness import (MODEL_FACTORIES, ResultsCache, run_matrix,
                           simulate_cell, sweep)
from repro.isa.decoded import DecodedTrace
from repro.workloads import ALL_WORKLOADS

SCALE = 0.05
WORKLOADS = ("vpr", "parser")
MODELS = ("inorder", "multipass", "ooo")


def test_parallel_matches_serial():
    serial = run_matrix(MODELS, WORKLOADS, scale=SCALE)
    parallel = run_matrix(MODELS, WORKLOADS, scale=SCALE, parallel=4)
    assert parallel.scale == serial.scale
    assert parallel.results == serial.results


def test_parallel_includes_ablations():
    models = MODELS + ("multipass-norestart", "twopass")
    serial = run_matrix(models, ("vpr",), scale=SCALE)
    parallel = run_matrix(models, ("vpr",), scale=SCALE, parallel=2)
    assert parallel.results == serial.results


def test_warm_cache_hit_matches_cold_miss(tmp_path):
    serial = run_matrix(MODELS, WORKLOADS, scale=SCALE)

    cold_store = ResultsCache(tmp_path)
    cold = run_matrix(MODELS, WORKLOADS, scale=SCALE, parallel=2,
                      results_cache=cold_store)
    cells = len(MODELS) * len(WORKLOADS)
    assert cold_store.stats.misses == cells
    assert cold_store.stats.stores == cells
    assert cold.results == serial.results

    warm_store = ResultsCache(tmp_path)
    warm = run_matrix(MODELS, WORKLOADS, scale=SCALE,
                      results_cache=warm_store)
    assert warm_store.stats.hits == cells
    assert warm_store.stats.misses == 0
    assert warm.results == serial.results


def test_warm_cache_full_default_matrix_zero_simulations(tmp_path):
    """Acceptance criterion: a second sweep over the full default matrix
    (every workload x every primary model) performs zero simulations."""
    models = sorted(MODEL_FACTORIES)
    cells = len(models) * len(ALL_WORKLOADS)

    cold = sweep(models, scale=SCALE, jobs=2,
                 results_cache=ResultsCache(tmp_path))
    assert cold.ok
    assert cold.simulated == cells
    assert cold.cache_hits == 0
    # A pool round ran, so the report carries the largest reaped
    # worker's peak beside the sweeping process's own.
    assert cold.peak_rss_mb > 0 and cold.worker_peak_rss_mb > 0
    assert "(pool worker " in cold.summary()

    warm_store = ResultsCache(tmp_path)
    warm = sweep(models, scale=SCALE, jobs=2, results_cache=warm_store)
    assert warm.ok
    assert warm.simulated == 0
    assert warm.cache_hits == cells
    assert warm_store.stats.hits == cells
    assert warm.matrix.results == cold.matrix.results
    assert warm.worker_peak_rss_mb == 0     # every cell hit: no pool


def test_corrupt_cache_entry_degrades_to_miss(tmp_path):
    store = ResultsCache(tmp_path)
    run_matrix(MODELS, ("vpr",), scale=SCALE, results_cache=store)
    victim = next(iter(store.entries()))
    victim.write_bytes(b"not a pickle")

    reread = ResultsCache(tmp_path)
    matrix = run_matrix(MODELS, ("vpr",), scale=SCALE,
                        results_cache=reread)
    assert reread.stats.misses == 1
    assert reread.stats.errors == 1
    assert reread.stats.hits == len(MODELS) - 1
    assert matrix.results == run_matrix(MODELS, ("vpr",),
                                        scale=SCALE).results


def _log_decodes(monkeypatch, log):
    """Wrap ``DecodedTrace.__init__`` to append ``pid workload`` to
    ``log`` for every decode this process (or a fork of it) builds."""
    init = DecodedTrace.__init__

    def logged(self, trace):
        init(self, trace)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {trace.program.name}\n")

    monkeypatch.setattr(DecodedTrace, "__init__", logged)


def _read_decodes(log):
    return [line.split() for line in log.read_text().splitlines()]


def test_serial_sweep_decodes_once_per_workload_cell(tmp_path,
                                                     monkeypatch):
    """jobs=1 path: every model of a (workload, scale) cell reuses one
    decoded trace — one decode build per cell, not one per model."""
    log = tmp_path / "decodes.log"
    _log_decodes(monkeypatch, log)
    report = sweep(MODELS, WORKLOADS, scale=SCALE, jobs=1)
    assert report.ok
    assert sorted(w for _, w in _read_decodes(log)) == sorted(WORKLOADS)


#: Weak references to every trace a cell of this process ran on.
_SEEN_TRACES = []


def _live_traces():
    return sum(ref() is not None for ref in _SEEN_TRACES)


def _weighing_runner(spec, traces):
    """Log how many traces are alive as the cell starts, then run it."""
    with open(os.environ["REPRO_TEST_LIVE_LOG"], "a") as fh:
        fh.write(f"{os.getpid()} {spec.workload} {_live_traces()}\n")
    stats = simulate_cell(spec, traces)
    trace = traces.trace(spec.workload)
    if not any(ref() is trace for ref in _SEEN_TRACES):
        _SEEN_TRACES.append(weakref.ref(trace))
    return stats


def _weigh(tmp_path, monkeypatch, workloads, jobs):
    log = tmp_path / "live.log"
    monkeypatch.setenv("REPRO_TEST_LIVE_LOG", str(log))
    _SEEN_TRACES.clear()
    report = sweep(MODELS, workloads, scale=SCALE, jobs=jobs,
                   runner=_weighing_runner)
    assert report.ok
    rows = [line.split() for line in log.read_text().splitlines()]
    return report, [(pid, w, int(live)) for pid, w, live in rows]


def test_serial_sweep_holds_one_workloads_trace(tmp_path, monkeypatch):
    """A jobs=1 sweep drops a workload's trace (program, image, decode,
    columns) after its last cell: no cell starts while another
    workload's trace is alive, and none outlives the sweep.  A second
    sweep rebuilds them with the same results."""
    workloads = ("vpr", "parser", "gzip")
    first, rows = _weigh(tmp_path, monkeypatch, workloads, jobs=1)
    assert [w for _, w, _ in rows] == [w for w in workloads
                                       for _ in MODELS]
    # The first model of each workload finds no trace alive; the others
    # find their own.
    assert [live for _, _, live in rows] == [0, 1, 1] * len(workloads)
    assert len(_SEEN_TRACES) == len(workloads)
    assert _live_traces() == 0
    again = sweep(MODELS, workloads, scale=SCALE, jobs=1)
    assert again.matrix.results == first.matrix.results


def test_pool_sweep_holds_one_groups_trace(tmp_path, monkeypatch):
    """Each pool worker drops a group's trace before its next group: no
    cell starts while a worker holds another workload's trace."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the weak-reference log needs fork inheritance")
    workloads = ("vpr", "parser", "gzip")
    report, rows = _weigh(tmp_path, monkeypatch, workloads, jobs=2)
    assert report.matrix.results == run_matrix(MODELS, workloads,
                                               scale=SCALE).results
    by_pid = {}
    for pid, workload, live in rows:
        by_pid.setdefault(pid, []).append((workload, live))
    # Three groups on two workers: one worker ran two of them.  The
    # first cell of each group finds nothing alive, the others only
    # their own trace.
    assert max(len({w for w, _ in cells}) for cells in by_pid.values()) >= 2
    for cells in by_pid.values():
        for i, (workload, live) in enumerate(cells):
            first = i == 0 or cells[i - 1][0] != workload
            assert live == (0 if first else 1), rows


def test_pool_sweep_decodes_once_per_workload_cell(tmp_path, monkeypatch):
    """Pool path: grouped dispatch lands every model of a workload on
    the same worker, so across the whole fleet each (workload, scale)
    is decoded exactly once."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("decode log instrumentation needs fork inheritance")

    # Fork inherits the patched decoder, so worker-side builds log too.
    log = tmp_path / "decodes.log"
    _log_decodes(monkeypatch, log)
    report = sweep(MODELS, WORKLOADS, scale=SCALE, jobs=2)
    assert report.ok

    builds = {workload: 0 for workload in WORKLOADS}
    pids = {workload: set() for workload in WORKLOADS}
    for pid, workload in _read_decodes(log):
        builds[workload] += 1
        pids[workload].add(pid)
    for workload in WORKLOADS:
        assert builds[workload] == 1, (workload, builds)
        assert len(pids[workload]) == 1, (workload, pids)


def test_duplicate_names_simulate_each_cell_once():
    report = sweep(("inorder", "inorder"), ("vpr", "vpr"), scale=SCALE)
    assert report.ok
    assert report.cells == (report.simulated + report.cache_hits
                            + len(report.failures))
    assert report.cells == 1
    assert list(report.matrix.results) == [("vpr", "inorder")]
    assert (f"process peak RSS {report.peak_rss_mb:.0f} MB — "
            in report.summary())
