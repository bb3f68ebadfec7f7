"""Execution-energy accounting: who executes each instruction how often.

The paper's Section 2 identifies re-execution as a core inefficiency of
runahead ("each instruction can consume execution energy multiple
times"), and Section 3.1.2 claims the corresponding multipass benefit
("the pipeline does not have to spend the energy to execute an
instruction whose results are available from prior advance-mode
execution").  This module quantifies both: it counts functional-unit
activations per model and converts them to energy with simple per-class
event costs.

Event accounting per model:

* in-order / OOO — every dynamic instruction executes exactly once
  (squashed wrong-path work is not modelled as executed in the
  trace-driven cores, so this is a slight under-count for OOO).
* multipass — architectural executions *plus* advance executions, minus
  the rally merges (preexecuted instructions whose rally pass reads the
  result store instead of a functional unit); data-speculative loads
  re-access the memory port at verification.
* runahead — architectural executions plus advance executions; nothing
  merges, so all advance work is pure re-execution overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..isa.opcodes import FUClass
from ..isa.trace import Trace
from ..pipeline.stats import SimStats
from .wattch import TechParams

#: Per-event energies in joules, loose 100 nm estimates.  As with the
#: rest of the Wattch-style modelling, ratios are meaningful, absolute
#: values are order-of-magnitude.
DEFAULT_EVENT_ENERGY: Dict[FUClass, float] = {
    FUClass.ALU: 8e-12,
    FUClass.MULDIV: 40e-12,
    FUClass.FP: 35e-12,
    FUClass.MEM: 25e-12,    # address generation + L1 port
    FUClass.BR: 6e-12,
    FUClass.NONE: 1e-12,
}


@dataclass
class ExecutionEnergy:
    """Execution-energy result for one model/workload run."""

    model: str
    workload: str
    fu_events: float
    energy_joules: float
    #: fu_events / dynamic instructions — 1.0 means execute-exactly-once.
    redundancy: float
    by_class: Dict[FUClass, float] = field(default_factory=dict)

    @property
    def energy_nj(self) -> float:
        return self.energy_joules * 1e9


def _class_mix(trace: Trace) -> Dict[FUClass, float]:
    """Fraction of dynamic instructions per FU class."""
    issue_fu = trace.decoded.issue_fu
    total = max(1, len(issue_fu))
    return {cls: issue_fu.count(cls) / total for cls in FUClass}


def _extra_events(stats: SimStats) -> float:
    """Model-specific FU activations beyond execute-once."""
    counters = stats.counters
    advance = counters.get("advance_executions", 0)
    merges = counters.get("rally_merges", 0)
    verifications = counters.get("sbit_verifications", 0)
    # Advance executions spend energy; each merge avoids one architectural
    # re-execution; each verification re-touches the memory port.
    return advance - merges + verifications


def execution_energy(stats: SimStats, trace: Trace,
                     event_energy: Dict[FUClass, float] = None,
                     tech: TechParams = TechParams()) -> ExecutionEnergy:
    """Count FU activations for a run and price them.

    The per-class split of the model-specific extra events is
    approximated with the trace's overall class mix (advance execution
    covers the same instruction stream).
    """
    del tech  # reserved for voltage/frequency scaling extensions
    event_energy = event_energy or DEFAULT_EVENT_ENERGY
    mix = _class_mix(trace)
    n = len(trace)
    extra = _extra_events(stats)

    by_class: Dict[FUClass, float] = {}
    total_events = 0.0
    total_energy = 0.0
    for cls, fraction in mix.items():
        events = fraction * (n + extra)
        by_class[cls] = events
        total_events += events
        total_energy += events * event_energy[cls]
    return ExecutionEnergy(
        model=stats.model,
        workload=stats.workload,
        fu_events=total_events,
        energy_joules=total_energy,
        redundancy=total_events / max(1, n),
        by_class=by_class,
    )


def energy_comparison(runs: Dict[str, SimStats], trace: Trace,
                      baseline: str = "inorder") -> Dict[str, float]:
    """Execution-energy overhead of each model relative to ``baseline``.

    Returns model -> energy ratio (1.0 = executes each instruction once,
    like the in-order machine).
    """
    base = execution_energy(runs[baseline], trace).energy_joules
    return {
        model: execution_energy(stats, trace).energy_joules / base
        for model, stats in runs.items()
    }
