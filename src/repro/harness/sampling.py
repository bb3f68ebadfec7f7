"""SMARTS-style sampled simulation (Wunderlich et al., ISCA 2003).

The paper's methodology note: "Results in this work reflect rigorously
sampled [25], complete runs of SPEC reference inputs."  SMARTS simulates
small measurement units in full detail at systematic intervals and keeps
the long gaps cheap with *functional warming* — caches and branch
predictors are updated for every instruction, but no pipeline timing is
modelled.  The per-unit CPIs are then aggregated into an estimate with a
confidence interval.

This module implements the same scheme over golden traces: detailed
windows run on a fresh core whose memory hierarchy, branch predictor and
front end are swapped for the functionally-warmed ones, so cold-structure
bias is limited to pipeline state (which SMARTS bounds with its small
detailed-warmup prefix; we fold it into the unit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..branch.gshare import GsharePredictor
from ..isa.trace import Trace
from ..machine import MachineConfig
from ..pipeline.frontend import FrontEnd
from .experiment import ABLATION_FACTORIES, MODEL_FACTORIES


@dataclass
class SamplingResult:
    """Outcome of one sampled simulation."""

    model: str
    workload: str
    n_units: int
    unit_size: int
    unit_cpis: List[float]
    estimated_cpi: float
    ci95: float                 # +/- on the CPI estimate
    estimated_cycles: float
    full_instructions: int

    @property
    def relative_ci(self) -> float:
        return self.ci95 / self.estimated_cpi if self.estimated_cpi else 0.0

    def summary(self) -> str:
        return (f"{self.model}/{self.workload}: CPI "
                f"{self.estimated_cpi:.3f} ± {self.ci95:.3f} "
                f"({self.n_units} units x {self.unit_size}) -> "
                f"~{self.estimated_cycles:,.0f} cycles")


def _subtrace(trace: Trace, start: int, end: int) -> Trace:
    """Re-sequenced slice of a trace, runnable by any core."""
    return Trace(trace.program, trace.pc[start:end],
                 trace.executed[start:end], trace.addr[start:end],
                 trace.value[start:end], trace.taken[start:end], {}, {},
                 truncated=True)


def _functional_warm(hierarchy, predictor, dec, start: int, end: int,
                     now: float, cpi_guess: float) -> float:
    """Advance caches and predictor through seqs ``[start, end)`` of a
    decoded trace without timing them."""
    for seq in range(start, end):
        if dec.mem_exec[seq]:
            kind = "store" if dec.is_store[seq] else "load"
            hierarchy.access(dec.addr[seq], int(now), kind=kind)
        if dec.is_branch[seq]:
            predictor.update(dec.pc[seq], dec.taken[seq])
        now += cpi_guess
    return now


def sampled_simulation(trace: Trace, model: str = "inorder",
                       n_units: int = 20, unit_size: int = 400,
                       config: Optional[MachineConfig] = None,
                       cpi_guess: float = 2.0) -> SamplingResult:
    """Estimate a model's CPI from systematically sampled detailed units.

    Args:
        trace: the full golden trace.
        model: any name accepted by :func:`repro.harness.run_model`.
        n_units: number of detailed measurement units.
        unit_size: dynamic instructions per unit.
        config: machine configuration (defaults to Table 2).
        cpi_guess: cycles-per-instruction assumed while functionally
            warming the gaps (only affects cache-timestamp spacing).
    """
    config = config or MachineConfig()
    factories = {**MODEL_FACTORIES, **ABLATION_FACTORIES}
    if model not in factories:
        raise KeyError(f"unknown model {model!r}")
    n = len(trace)
    if n < n_units * unit_size:
        raise ValueError(
            f"trace of {n} instructions cannot carry {n_units} units of "
            f"{unit_size}; shrink the units or sample fewer")
    spacing = n // n_units

    # Long-lived, functionally-warmed structures shared by every unit.
    hierarchy = config.hierarchy.build()
    predictor = GsharePredictor(config.branch_predictor_entries)
    position = 0
    now = 0.0
    cpis: List[float] = []
    for unit_index in range(n_units):
        start = unit_index * spacing
        end = min(n, start + unit_size)
        now = _functional_warm(hierarchy, predictor, trace.decoded,
                               position, start, now, cpi_guess)
        unit = _subtrace(trace, start, end)
        hierarchy.settle()   # warming timestamps are not unit time
        core = factories[model](unit, config)
        # Swap in the warmed structures (and a front end bound to them).
        core.hierarchy = hierarchy
        core.predictor = predictor
        core.frontend = FrontEnd(unit, hierarchy, predictor, config,
                                 core.buffer_size)
        stats = core.run()
        cpis.append(stats.cycles / len(unit))
        now += stats.cycles
        position = end

    mean = sum(cpis) / len(cpis)
    if len(cpis) > 1:
        var = sum((c - mean) ** 2 for c in cpis) / (len(cpis) - 1)
        ci95 = 1.96 * math.sqrt(var / len(cpis))
    else:
        ci95 = 0.0
    return SamplingResult(
        model=model, workload=trace.program.name, n_units=n_units,
        unit_size=unit_size, unit_cpis=cpis, estimated_cpi=mean,
        ci95=ci95, estimated_cycles=mean * n, full_instructions=n,
    )
