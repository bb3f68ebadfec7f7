"""Determinism and cache-equivalence contracts of the parallel engine.

The whole point of the sharded engine is that it is an *optimization*,
never a semantic change: a parallel sweep, a cold cached sweep and a
warm cached sweep must all produce stats bit-identical to plain serial
``run_matrix`` (SimStats dataclass equality covers cycles, the stall
breakdown, counters, memory-hierarchy stats and branch accuracy).
"""

from repro.harness import (MODEL_FACTORIES, ResultsCache, run_matrix,
                           sweep)
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

    warm_store = ResultsCache(tmp_path)
    warm = sweep(models, scale=SCALE, jobs=2, results_cache=warm_store)
    assert warm.ok
    assert warm.simulated == 0
    assert warm.cache_hits == cells
    assert warm_store.stats.hits == cells
    assert warm.matrix.results == cold.matrix.results


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


def test_serial_sweep_decodes_once_per_workload_cell(monkeypatch):
    """jobs=1 path: every model of a (workload, scale) cell reuses one
    decoded trace — the decode-build log records exactly one build per
    cell, not one per model."""
    from repro.harness import parallel

    monkeypatch.setattr(parallel, "_WORKER_TRACES", {})
    monkeypatch.setattr(parallel, "_DECODE_BUILDS", {})
    report = sweep(MODELS, WORKLOADS, scale=SCALE, jobs=1)
    assert report.ok
    assert parallel._DECODE_BUILDS == {
        (workload, SCALE): 1 for workload in WORKLOADS
    }


def test_serial_sweep_holds_one_workloads_kernel_columns(monkeypatch):
    """Moving on to the next workload drops the columns the kernels
    built on the previous trace (the trace itself stays cached), so a
    sweep's memory peak holds one workload's columns, not all of them;
    a revisit rebuilds them with the same results."""
    from repro.harness import parallel

    monkeypatch.setattr(parallel, "_WORKER_TRACES", {})
    monkeypatch.setattr(parallel, "_LAST_TRACE", None)
    first = sweep(MODELS, WORKLOADS, scale=SCALE, jobs=1)
    (cache,) = parallel._WORKER_TRACES.values()
    kept = [cache.trace(w).decoded._columns is not None for w in WORKLOADS]
    assert kept == [False, True]
    again = sweep(MODELS, WORKLOADS, scale=SCALE, jobs=1)
    assert again.matrix.results == first.matrix.results


def test_pool_sweep_decodes_once_per_workload_cell(tmp_path, monkeypatch):
    """Pool path: grouped dispatch lands every model of a workload on
    the same worker, so across the whole fleet each (workload, scale)
    is decoded exactly once."""
    import multiprocessing
    import os

    import pytest

    from repro.harness import parallel

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("decode log instrumentation needs fork inheritance")

    log = tmp_path / "decodes.log"
    original = parallel._worker_trace

    def logged(spec):
        cell = (spec.workload, spec.scale)
        before = parallel._DECODE_BUILDS.get(cell, 0)
        trace = original(spec)
        built = parallel._DECODE_BUILDS.get(cell, 0) - before
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {spec.workload} {built}\n")
        return trace

    # Fork inherits the patched module state and the cleared caches, so
    # worker-side builds start from a clean slate and hit the wrapper.
    monkeypatch.setattr(parallel, "_WORKER_TRACES", {})
    monkeypatch.setattr(parallel, "_DECODE_BUILDS", {})
    monkeypatch.setattr(parallel, "_worker_trace", logged)

    report = sweep(MODELS, WORKLOADS, scale=SCALE, jobs=2)
    assert report.ok

    builds = {workload: 0 for workload in WORKLOADS}
    pids = {workload: set() for workload in WORKLOADS}
    for line in log.read_text().splitlines():
        pid, workload, built = line.split()
        builds[workload] += int(built)
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
