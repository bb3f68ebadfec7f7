"""Fault handling: a bad cell degrades to a failure row, never a hang.

The injected runners below must be module-level functions: the engine
pickles the runner by reference into its worker processes.
"""

import multiprocessing
import os
import time

import pytest

from repro.harness import SweepError, run_matrix
from repro.harness.parallel import simulate_cell, sweep

SCALE = 0.05
WORKLOADS = ("vpr", "parser")
MODELS = ("inorder", "multipass")

#: Read by the worker-killing runners; fork carries both into the pool.
KILL_MARKER_ENV = "REPRO_TEST_KILL_MARKER"
PARENT_PID_ENV = "REPRO_TEST_PARENT_PID"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-killing runners rely on fork inheriting the environment")


def _boom(spec, traces):
    if spec.workload == "vpr" and spec.model == "multipass":
        raise RuntimeError("injected fault")
    return simulate_cell(spec, traces)


def _flaky_for_sleep(spec, traces):
    if spec.model == "multipass":
        time.sleep(60)
    return simulate_cell(spec, traces)


def _kill_worker():
    """Hard-exit the pool worker; never the test process itself."""
    if os.getpid() == int(os.environ[PARENT_PID_ENV]):
        raise RuntimeError("worker-killing runner ran in the parent")
    os._exit(1)


def _die_once(spec, traces):
    if spec.workload == "vpr" and spec.model == "multipass":
        try:
            fd = os.open(os.environ[KILL_MARKER_ENV],
                         os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            _kill_worker()
    return simulate_cell(spec, traces)


def _always_die(spec, traces):
    if spec.workload == "vpr" and spec.model == "multipass":
        _kill_worker()
    return simulate_cell(spec, traces)


def test_raising_cell_records_failure_row_and_retry():
    report = sweep(MODELS, WORKLOADS, scale=SCALE, jobs=2, runner=_boom)
    assert not report.ok
    [failure] = report.failures
    assert (failure.workload, failure.model) == ("vpr", "multipass")
    assert "RuntimeError: injected fault" in failure.error
    assert failure.attempts == 2, "failed cell must be retried once"
    # Every other cell still completed and landed in the matrix.
    assert ("vpr", "multipass") not in report.matrix.results
    good = [c for c in ((w, m) for w in WORKLOADS for m in MODELS)
            if c != ("vpr", "multipass")]
    for cell in good:
        assert cell in report.matrix.results
    assert report.simulated == len(good)
    # The operator-facing summary is non-zero/loud about it.
    assert "1 failed" in report.summary()
    assert "vpr/multipass" in report.summary()


def test_raising_cell_serial_path():
    report = sweep(MODELS, ("vpr",), scale=SCALE, jobs=1, runner=_boom)
    assert not report.ok
    [failure] = report.failures
    assert failure.attempts == 2


def test_wedged_cell_times_out_and_is_recorded():
    report = sweep(MODELS, ("vpr",), scale=SCALE, jobs=2, timeout=1.0,
                   runner=_flaky_for_sleep)
    assert not report.ok
    [failure] = report.failures
    assert (failure.workload, failure.model) == ("vpr", "multipass")
    assert "timed out after 1s" in failure.error
    assert failure.attempts == 2
    # The healthy cell on the same grid completed under the same timer.
    assert ("vpr", "inorder") in report.matrix.results


# run_matrix has no runner hook, so inject the fault by swapping the
# default runner the engine resolves at call time.
def test_run_matrix_raises_on_persistent_failure(monkeypatch):
    import repro.harness.parallel as parallel_mod
    monkeypatch.setattr(parallel_mod, "simulate_cell", _boom)
    with pytest.raises(SweepError, match="injected fault"):
        run_matrix(MODELS, ("vpr",), scale=SCALE, parallel=2)


@needs_fork
def test_worker_death_is_salvaged_by_retry(tmp_path, monkeypatch):
    import repro.harness.parallel as parallel_mod

    monkeypatch.setenv(KILL_MARKER_ENV, str(tmp_path / "killed"))
    monkeypatch.setenv(PARENT_PID_ENV, str(os.getpid()))
    # Successful cells leave no CellResult in the report, so record
    # every round's rows to read the killed cell's attempt count.
    rounds = []
    run_round = parallel_mod._run_round

    def recording(*args):
        results = run_round(*args)
        rounds.append(results)
        return results

    monkeypatch.setattr(parallel_mod, "_run_round", recording)
    report = sweep(MODELS, WORKLOADS, scale=SCALE, jobs=2,
                   runner=_die_once)
    assert report.ok, report.summary()
    assert report.simulated == len(MODELS) * len(WORKLOADS)
    first = {(r.workload, r.model): r for r in rounds[0]}
    assert (first[("vpr", "multipass")].error
            == "worker process died (broken pool)")
    final = {(r.workload, r.model): r
             for results in rounds for r in results}
    assert final[("vpr", "multipass")].attempts == 2
    assert report.matrix.results == run_matrix(
        MODELS, WORKLOADS, scale=SCALE).results


@needs_fork
def test_persistent_worker_death_becomes_failure_row(monkeypatch):
    monkeypatch.setenv(PARENT_PID_ENV, str(os.getpid()))
    report = sweep(MODELS, WORKLOADS, scale=SCALE, jobs=2,
                   runner=_always_die)
    assert not report.ok
    failed = {(f.workload, f.model): f for f in report.failures}
    victim = failed[("vpr", "multipass")]
    assert victim.error == "worker process died (broken pool)"
    assert victim.attempts == 2
    # The dying worker may take its pool-mates down too, but every cell
    # is accounted for exactly once.
    assert report.cells == report.simulated + len(report.failures)
