"""Sharded parallel experiment engine with fault handling.

The (model, workload, config) cell grid of a sweep is embarrassingly
parallel: every cell replays its own functionally-executed trace, and
every simulator is deterministic, so fanning cells out over a process
pool must produce *bit-identical* stats to a serial
:func:`~repro.harness.experiment.run_matrix` — the equivalence tests in
``tests/harness/test_parallel_matrix.py`` enforce exactly that.

Cells run *grouped by workload cell*: every model of a (workload,
scale, options) triple runs back to back, in-process or on one pool
worker, so the group shares a single functional execution, decode and
column build.  A trace lives exactly as long as its group: it is built
when the group's first cell needs it and dropped after the group's last
cell, so a sweep holds one workload's trace at a time.  A caller that
replays the same traces across several sweeps passes its own
:class:`~repro.harness.experiment.TraceCache`, which then owns them
(in-process sweeps only; pool workers always build their own).  Fault
handling is two-layered:

* **In-worker timeout** — every cell runs under a ``SIGALRM`` interval
  timer (the simulators are pure Python, so the signal interrupts even
  a wedged loop); expiry surfaces as a failure row, not a hang.
* **Retry once, then record** — a failed cell (exception, timeout, or a
  worker process death) is retried on a fresh round, which may rebuild
  its trace; a second failure becomes a :class:`CellResult` failure row
  in the report so one bad cell degrades a sweep instead of crashing it.

When a :class:`~repro.harness.results_cache.ResultsCache` is supplied,
cells whose key is already on disk are served without simulation and
fresh results are persisted, so a warm second sweep performs zero
simulations.  The sweep folds the cache's lookup and store counts into
its lifetime counters once, at the end.
"""

from __future__ import annotations

import os
import resource
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..compiler import CompileOptions
from ..machine import MachineConfig
from ..pipeline import SimStats
from ..workloads import ALL_WORKLOADS
from .experiment import Matrix, TraceCache, run_model
from .results_cache import ResultsCache, fingerprint, resolve_results_cache

#: Environment variable that supplies a default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Matches :class:`TraceCache`'s functional-execution budget.
DEFAULT_MAX_INSTRUCTIONS = 5_000_000


def resolve_jobs(value: Union[None, int, str] = None) -> int:
    """Worker count: explicit argument, else $REPRO_JOBS, else 1 (serial).

    ``"auto"`` or any value < 1 means one worker per available CPU.
    """
    if value is None:
        value = os.environ.get(JOBS_ENV_VAR) or 1
    if isinstance(value, str):
        if value.strip().lower() == "auto":
            return os.cpu_count() or 1
        value = int(value)
    if value < 1:
        return os.cpu_count() or 1
    return value


@dataclass(frozen=True)
class CellSpec:
    """Everything a worker needs to simulate one sweep cell."""

    workload: str
    model: str
    scale: float = 1.0
    compile_options: CompileOptions = field(default_factory=CompileOptions)
    config: MachineConfig = field(default_factory=MachineConfig)
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    #: Collect an aggregated telemetry summary for this cell (a
    #: :meth:`~repro.telemetry.metrics.MetricsSink.summary` dict).
    #: Never part of the result-cache key: tracing does not change
    #: stats, so cached entries stay valid either way.
    telemetry: bool = False
    #: Post-check the simulated cycles against the static cycle lower
    #: bound (:func:`repro.analysis.audit.check_bound`); a violation
    #: surfaces as an ``AuditViolation: ...`` failure row.  Like
    #: ``telemetry``, never part of the result-cache key.
    audit: bool = False


@dataclass
class CellResult:
    """Outcome of one cell: stats on success, an error row otherwise."""

    workload: str
    model: str
    stats: Optional[SimStats] = None
    error: Optional[str] = None
    attempts: int = 1
    duration: float = 0.0
    cached: bool = False
    #: Aggregated telemetry summary (when the cell's spec asked for one).
    telemetry: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class CellTimeout(Exception):
    """Raised inside a worker when a cell exceeds its time budget."""


class SweepError(RuntimeError):
    """Raised by :func:`run_matrix` when cells fail even after retry."""


#: A cell runner: ``runner(spec, traces)`` simulates one cell on the
#: trace ``traces.trace(spec.workload)`` and returns its stats, or
#: ``(stats, telemetry summary)``.
Runner = Callable[[CellSpec, TraceCache], SimStats]


def simulate_cell(spec: CellSpec, traces: TraceCache) -> SimStats:
    """The production cell runner: take the trace from ``traces`` (the
    cache the sweep shares across the cell's group), run the model.

    With ``spec.telemetry`` set, the run records a
    :class:`~repro.telemetry.timeline.Timeline` (on the production
    kernel) and a ``(stats, summary)`` tuple is returned, the summary
    being its :class:`~repro.telemetry.metrics.MetricsSink` view; the
    stats themselves are bit-identical to an untraced run.
    """
    trace = traces.trace(spec.workload)
    if trace._decoded is None:
        # Eager decode + column prebuild: the decoded cache and the
        # shared issue columns are derived read-only data — built once
        # here, reused by every model of the group.
        from ..isa.columns import columns_of

        columns_of(trace.decoded)
    if not spec.telemetry:
        stats, telemetry = run_model(spec.model, trace, spec.config), None
    else:
        from ..telemetry import MetricsSink, Timeline

        timeline = Timeline()
        stats = run_model(spec.model, trace, spec.config, tracer=timeline)
        telemetry = MetricsSink(timeline).summary()
    if spec.audit:
        from ..analysis.audit import check_bound

        check_bound(stats, trace, spec.model, spec.workload)
    return stats if telemetry is None else (stats, telemetry)


def _raise_timeout(signum, frame):
    raise CellTimeout()


def _execute_cell(spec: CellSpec, runner: Runner, timeout: Optional[float],
                  traces: TraceCache) -> CellResult:
    """Run one cell under the per-cell timer, never letting it raise."""
    start = time.perf_counter()
    # SIGALRM is only available on the main thread of a process; pool
    # workers run tasks there, as does the in-process jobs=1 path.
    arm = (timeout is not None and hasattr(signal, "SIGALRM")
           and threading.current_thread() is threading.main_thread())
    previous = None
    try:
        if arm:
            previous = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        outcome = runner(spec, traces)
        # Telemetry-collecting runners return (stats, summary).
        if isinstance(outcome, tuple):
            stats, telemetry = outcome
        else:
            stats, telemetry = outcome, None
        return CellResult(spec.workload, spec.model, stats=stats,
                          duration=time.perf_counter() - start,
                          telemetry=telemetry)
    except CellTimeout:
        return CellResult(spec.workload, spec.model,
                          error=f"timed out after {timeout:g}s",
                          duration=time.perf_counter() - start)
    except Exception as exc:
        return CellResult(spec.workload, spec.model,
                          error=f"{type(exc).__name__}: {exc}",
                          duration=time.perf_counter() - start)
    finally:
        if arm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _pool_context():
    # Imported here, not at module import: no jobs=1 sweep starts a pool.
    import multiprocessing

    # fork keeps already-imported test/runner modules visible to workers
    # and skips re-importing the simulator; fall back where unavailable.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _group_key(spec: CellSpec) -> Tuple[str, float, str, int]:
    """Cells sharing this key replay the same trace (workload cell)."""
    return (spec.workload, spec.scale, fingerprint(spec.compile_options),
            spec.max_instructions)


def _pooled(specs: Sequence[CellSpec], jobs: int) -> bool:
    """Whether :func:`_run_round` runs ``specs`` on a process pool."""
    return jobs > 1 and len(specs) > 1


def _execute_group(specs: Sequence[CellSpec], runner: Runner,
                   timeout: Optional[float],
                   traces: Optional[TraceCache] = None) -> List[CellResult]:
    """Run one workload group's cells back-to-back in this process.

    All cells of the group share a trace, so the process pays one
    functional execution and one decode for the whole group; each cell
    still runs under its own SIGALRM budget.  Without a caller's
    ``traces`` the group's cache is this call's own, so the trace (with
    its decode, columns and memory images) is dropped as soon as the
    group's last cell has run.
    """
    if traces is None:
        first = specs[0]
        traces = TraceCache(first.scale, first.compile_options,
                            first.max_instructions)
    return [_execute_cell(spec, runner, timeout, traces) for spec in specs]


def _run_round(specs: Sequence[CellSpec], jobs: int, runner: Runner,
               timeout: Optional[float],
               traces: Optional[TraceCache] = None) -> List[CellResult]:
    """Execute one batch of cells, one result per spec, in spec order.

    Cells run *grouped by workload cell* (same workload, scale, compile
    options and budget), in-process or with every model of a workload
    on the same pool worker, so a group shares one trace build + decode
    and holds it only while its cells run.  The caller's ``traces``
    serves the in-process groups; pool workers build their own.
    """
    groups: Dict[Tuple[str, float, str, int], List[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(_group_key(spec), []).append(index)
    results: List[Optional[CellResult]] = [None] * len(specs)
    if not _pooled(specs, jobs):
        for indices in groups.values():
            group = [specs[i] for i in indices]
            for i, result in zip(indices, _execute_group(group, runner,
                                                         timeout, traces)):
                results[i] = result
        return results
    from concurrent.futures import ProcessPoolExecutor, process

    with ProcessPoolExecutor(max_workers=min(jobs, len(groups)),
                             mp_context=_pool_context()) as pool:
        futures = [
            (indices, pool.submit(_execute_group,
                                  [specs[i] for i in indices],
                                  runner, timeout))
            for indices in groups.values()
        ]
        for indices, future in futures:
            try:
                group_results = future.result()
            except process.BrokenProcessPool:
                group_results = [
                    CellResult(specs[i].workload, specs[i].model,
                               error="worker process died (broken pool)")
                    for i in indices
                ]
            except Exception as exc:  # pragma: no cover - defensive
                group_results = [
                    CellResult(specs[i].workload, specs[i].model,
                               error=f"{type(exc).__name__}: {exc}")
                    for i in indices
                ]
            for i, result in zip(indices, group_results):
                results[i] = result
    return results


def _peak_rss_mb(who: int) -> float:
    """``ru_maxrss`` of ``who`` (a ``resource.RUSAGE_*``) in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class SweepReport:
    """A completed sweep: the matrix plus operability accounting."""

    matrix: Matrix
    failures: List[CellResult] = field(default_factory=list)
    cells: int = 0
    simulated: int = 0
    cache_hits: int = 0
    cache_stores: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    #: (workload, model) -> aggregated telemetry summary dict, for the
    #: cells that were simulated with ``telemetry=True``.  Cells served
    #: from the result cache carry no summary (stats only are cached).
    telemetry: Dict[Tuple[str, str], dict] = field(default_factory=dict)
    #: Peak resident set size (MB) of the sweeping process, and of the
    #: largest pool worker it has reaped when a pool round ran (else 0):
    #: ``ru_maxrss``, a peak over the process's life, not this sweep's.
    peak_rss_mb: float = 0.0
    worker_peak_rss_mb: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        rate = (f", {self.cells / self.elapsed:.1f} cells/s"
                if self.elapsed > 0 else "")
        workers = (f" (pool worker {self.worker_peak_rss_mb:.0f} MB)"
                   if self.worker_peak_rss_mb else "")
        lines = [
            f"sweep: {self.cells} cell(s) with {self.jobs} job(s) in "
            f"{self.elapsed:.1f}s total wall time{rate}, process peak "
            f"RSS {self.peak_rss_mb:.0f} MB{workers} — "
            f"{self.simulated} simulated, "
            f"{self.cache_hits} from cache, {len(self.failures)} failed"
        ]
        lines.extend(
            f"  FAILED {failure.workload}/{failure.model} after "
            f"{failure.attempts} attempt(s): {failure.error}"
            for failure in self.failures)
        return "\n".join(lines)

    def raise_on_failure(self) -> None:
        if self.failures:
            raise SweepError(self.summary())


def sweep(models: Sequence[str],
          workloads: Sequence[str] = ALL_WORKLOADS,
          *,
          config: Optional[MachineConfig] = None,
          scale: float = 1.0,
          compile_options: Optional[CompileOptions] = None,
          max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
          jobs: Union[None, int, str] = None,
          results_cache: Union[None, str, ResultsCache] = None,
          timeout: Optional[float] = None,
          retries: int = 1,
          runner: Optional[Runner] = None,
          telemetry: bool = False,
          audit: bool = False,
          cache: Optional[TraceCache] = None
          ) -> SweepReport:
    """Run the full cell grid; always returns a report, never hangs.

    Failed cells (after ``retries`` extra attempts each) appear in
    ``report.failures`` and are absent from ``report.matrix``.

    Each workload's trace is built when its first cell needs it and
    dropped after its last cell has run.  A caller that replays the
    same traces across several sweeps passes its own ``cache`` instead:
    its scale, compile options and budget then replace the arguments,
    and the in-process cells take their traces from it and leave them
    there (pool workers still build and drop their own).

    ``telemetry=True`` records a timeline of every simulated cell on
    its production kernel and keeps the per-cell summaries in
    ``report.telemetry``.  Summaries require a live simulation, so
    telemetry sweeps skip result-cache *reads* (fresh results are still
    stored); stats remain bit-identical, keeping the cache safe.

    ``audit=True`` post-checks every simulated cell against the static
    cycle lower bound; a sub-physical result becomes an
    ``AuditViolation`` failure row.  The check needs the worker's trace,
    so audit sweeps also skip result-cache reads.
    """
    start = time.perf_counter()
    # Resolved at call time so tests can swap the module-level default.
    runner = runner or simulate_cell
    jobs = resolve_jobs(jobs)
    store = resolve_results_cache(results_cache)
    config = config or MachineConfig()
    if cache is not None:
        scale = cache.scale
        compile_options = cache.compile_options
        max_instructions = cache.max_instructions
    compile_options = compile_options or CompileOptions()

    # A repeated name would otherwise simulate its cells twice.
    models = list(dict.fromkeys(models))
    specs = [CellSpec(workload, model, scale, compile_options, config,
                      max_instructions, telemetry=telemetry, audit=audit)
             for workload in dict.fromkeys(workloads) for model in models]
    matrix = Matrix(scale=scale)
    report = SweepReport(matrix=matrix, cells=len(specs), jobs=jobs)

    keys: Dict[Tuple[str, str], str] = {}
    outstanding: List[CellSpec] = []
    if store is not None:
        # Every cell shares these two; fingerprint them once.
        options_fp = fingerprint(compile_options)
        config_fp = fingerprint(config)
    try:
        for spec in specs:
            cell = (spec.workload, spec.model)
            if store is not None:
                keys[cell] = store.key_for(spec.workload, spec.model,
                                           spec.scale, options_fp,
                                           config_fp, spec.max_instructions)
                if not telemetry and not audit:
                    stats = store.get(keys[cell])
                    if stats is not None:
                        matrix.results[cell] = stats
                        report.cache_hits += 1
                        continue
            outstanding.append(spec)

        results: Dict[Tuple[str, str], CellResult] = {}
        pooled = False
        for attempt in range(1, retries + 2):
            if not outstanding:
                break
            pooled = pooled or _pooled(outstanding, jobs)
            failed: List[CellSpec] = []
            for spec, result in zip(outstanding,
                                    _run_round(outstanding, jobs, runner,
                                               timeout, cache)):
                result.attempts = attempt
                results[(spec.workload, spec.model)] = result
                if not result.ok:
                    failed.append(spec)
            outstanding = failed if attempt <= retries else []

        for cell, result in results.items():
            if result.ok:
                matrix.results[cell] = result.stats
                report.simulated += 1
                if result.telemetry is not None:
                    report.telemetry[cell] = result.telemetry
                if store is not None:
                    store.put(keys[cell], result.stats)
                    report.cache_stores += 1
            else:
                report.failures.append(result)
    finally:
        # One fold of this sweep's lookups and stores into the
        # lifetime counters, even when a put raised.
        if store is not None:
            store.flush()

    report.elapsed = time.perf_counter() - start
    report.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)
    if pooled:
        report.worker_peak_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    return report


__all__ = [
    "CellResult", "CellSpec", "CellTimeout", "DEFAULT_MAX_INSTRUCTIONS",
    "JOBS_ENV_VAR", "SweepError", "SweepReport", "resolve_jobs",
    "simulate_cell", "sweep",
]
