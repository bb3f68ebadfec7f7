"""Experiment runner: models x workloads x configurations.

Traces are functionally executed once per (workload, scale) and shared by
every timing model, which both saves time and guarantees all models replay
the identical instruction stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from ..compiler import CompileOptions, compile_program
from ..isa import Trace, execute
from ..machine import MachineConfig
from ..multipass import MultipassCore
from ..multipass.twopass import TwoPassCore
from ..ooo import IdealOOOCore, RealisticOOOCore
from ..pipeline import InOrderCore, SimStats
from ..runahead import RunaheadCore
from ..workloads import ALL_WORKLOADS, build_workload

#: Model name -> core factory(trace, config) -> core with .run().
MODEL_FACTORIES: Dict[str, Callable] = {
    "inorder": InOrderCore,
    "multipass": MultipassCore,
    "runahead": RunaheadCore,
    "ooo": IdealOOOCore,
    "ooo-realistic": RealisticOOOCore,
}

#: Multipass ablations (Fig. 8) and extensions.
ABLATION_FACTORIES: Dict[str, Callable] = {
    "multipass-noregroup": lambda trace, config, **kw: MultipassCore(
        trace, config, enable_regroup=False, **kw),
    "multipass-norestart": lambda trace, config, **kw: MultipassCore(
        trace, config, enable_restart=False, **kw),
    # Paper footnote 1: hardware-detected advance restart, no compiler
    # RESTART directives consumed.
    "multipass-hwrestart": lambda trace, config, **kw: MultipassCore(
        trace, config, enable_restart=False, hardware_restart=True, **kw),
    # The MICRO-36 two-pass predecessor: persistence, no restart.
    "twopass": lambda trace, config, **kw: TwoPassCore(trace, config, **kw),
}


class TraceCache:
    """Builds, compiles and functionally executes workloads on demand."""

    def __init__(self, scale: float = 1.0,
                 compile_options: Optional[CompileOptions] = None,
                 max_instructions: int = 5_000_000):
        self.scale = scale
        self.compile_options = compile_options or CompileOptions()
        self.max_instructions = max_instructions
        self._traces: Dict[str, Trace] = {}

    def trace(self, workload: str) -> Trace:
        if workload not in self._traces:
            program = build_workload(workload, self.scale)
            compiled = compile_program(program, self.compile_options)
            self._traces[workload] = execute(
                compiled, max_instructions=self.max_instructions)
        return self._traces[workload]


def make_model(model: str, trace: Trace,
               config: Optional[MachineConfig] = None,
               check: bool = False, tracer=None, slow: bool = False):
    """Instantiate one named model (including ablations) over a trace.

    ``tracer`` attaches a :class:`~repro.telemetry.timeline.Timeline`,
    recorded on whichever loop runs; the default (``None``, off) costs
    one flag check per recording site, and stats are bit-identical
    either way.  ``slow`` selects the cycle-by-cycle reference loop (no
    stall fast-forwarding) — the differential baseline for the
    production kernels, and the only way to run the OOO and multipass
    scalar loops.
    """
    factories = {**MODEL_FACTORIES, **ABLATION_FACTORIES}
    if model not in factories:
        raise KeyError(f"unknown model {model!r}; "
                       f"available: {sorted(factories)}")
    return factories[model](trace, config or MachineConfig(), check=check,
                            tracer=tracer, slow=slow)


def run_model(model: str, trace: Trace,
              config: Optional[MachineConfig] = None,
              check: bool = False, tracer=None,
              slow: bool = False) -> SimStats:
    """Run one named model (including ablations) over a prepared trace."""
    return make_model(model, trace, config, check=check,
                      tracer=tracer, slow=slow).run()


@dataclass
class Matrix:
    """Results of a models x workloads sweep."""

    scale: float
    results: Dict[Tuple[str, str], SimStats] = field(default_factory=dict)

    def get(self, workload: str, model: str) -> SimStats:
        return self.results[(workload, model)]

    def speedup(self, workload: str, model: str,
                baseline: str = "inorder") -> float:
        return self.get(workload, model).speedup_over(
            self.get(workload, baseline))

    def workloads(self):
        return sorted({w for w, _ in self.results})

    def models(self):
        return sorted({m for _, m in self.results})


def run_matrix(models: Iterable[str],
               workloads: Iterable[str] = ALL_WORKLOADS,
               config: Optional[MachineConfig] = None,
               scale: float = 1.0,
               cache: Optional[TraceCache] = None,
               parallel: Union[None, int, str] = None,
               results_cache=None,
               cell_timeout: Optional[float] = None) -> Matrix:
    """Run every (model, workload) combination.

    ``parallel`` fans the cell grid out over a process pool (default:
    $REPRO_JOBS, else serial) and ``results_cache`` serves unchanged
    cells from an on-disk store (default: $REPRO_RESULTS_CACHE, else
    off); both paths are bit-identical to the serial one.  Any failed
    cell raises :class:`~repro.harness.parallel.SweepError` after one
    retry — use :func:`~repro.harness.parallel.sweep` directly for a
    report with recorded failure rows instead.
    """
    from .parallel import resolve_jobs, sweep
    from .results_cache import resolve_results_cache
    jobs = resolve_jobs(parallel)
    store = resolve_results_cache(results_cache)
    if jobs > 1 or store is not None:
        models = list(models)
        workloads = list(workloads)
        report = sweep(
            models, workloads, config=config,
            scale=cache.scale if cache else scale,
            compile_options=cache.compile_options if cache else None,
            max_instructions=(cache.max_instructions if cache
                              else 5_000_000),
            jobs=jobs, results_cache=store, timeout=cell_timeout)
        report.raise_on_failure()
        return report.matrix
    cache = cache or TraceCache(scale)
    matrix = Matrix(scale=cache.scale)
    for workload in workloads:
        trace = cache.trace(workload)
        for model in models:
            matrix.results[(workload, model)] = run_model(model, trace,
                                                          config)
    return matrix


def geomean(values) -> float:
    """Geometric mean (the paper reports average speedups this way)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError(f"geomean requires positive values, got {v}")
        product *= v
    return product ** (1.0 / len(values))
