"""The static cycle-bound oracle: ``repro audit``.

No timing model may simulate fewer cycles than the dependence-height
lower bound of :mod:`repro.analysis.bounds` — a simulated count below
the bound is physically impossible and means a timing fast path dropped
work (diagnostic ``AUD001``).  This module turns that invariant into an
executable oracle:

* :func:`check_bound` — one cell: assert ``bound <= stats.cycles`` and
  return the audited cell record (raises :class:`AuditViolation` on
  failure);
* :func:`audit_matrix` — sweep every model x workload cell, collect an
  :class:`AuditReport`, and optionally attach the per-instruction
  slack/ineffectuality profile.

The sweep engine runs :func:`check_bound` per cell behind ``--audit``,
``repro diffcheck`` audits every model it replays, and check.sh runs
``repro audit --smoke`` — so a sub-physical result is caught in CI the
moment it appears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..isa.trace import Trace
from ..pipeline.stats import SimStats
from . import diagnostics as dc
from .bounds import CycleBound, SlackReport, cycle_lower_bound, slack_report
from .diagnostics import Diagnostic


class AuditViolation(RuntimeError):
    """A timing model simulated fewer cycles than the static bound."""

    def __init__(self, model: str, workload: str, bound: CycleBound,
                 cycles: int):
        self.model = model
        self.workload = workload
        self.bound = bound
        self.cycles = cycles
        self.diagnostic = Diagnostic(
            dc.AUD001,
            f"model {model!r} simulated {cycles} cycles on "
            f"{workload!r}, below the static lower bound "
            f"{bound.bound} (binding: {bound.binding})")
        super().__init__(self.diagnostic.render(workload))


@dataclass(frozen=True)
class AuditCell:
    """One audited model x workload cell."""

    workload: str
    model: str
    cycles: int
    bound: CycleBound
    error: Optional[str] = None   # simulation failure -> cell unverified

    @property
    def ok(self) -> bool:
        return self.error is None and self.bound.bound <= self.cycles

    @property
    def verified(self) -> bool:
        return self.error is None

    @property
    def margin(self) -> float:
        """Simulated cycles per bound cycle (>= 1.0 when sound)."""
        return self.cycles / self.bound.bound if self.bound.bound else 1.0

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "model": self.model,
            "cycles": self.cycles,
            "bound": self.bound.to_dict(),
            "ok": self.ok,
            "error": self.error,
            "margin": round(self.margin, 3) if self.verified else None,
        }


@dataclass
class AuditReport:
    """Result of auditing a models x workloads grid."""

    scale: float
    cells: List[AuditCell] = field(default_factory=list)
    slack: Dict[str, SlackReport] = field(default_factory=dict)

    @property
    def violations(self) -> List[AuditCell]:
        return [c for c in self.cells if c.verified and not c.ok]

    @property
    def unverified(self) -> List[AuditCell]:
        return [c for c in self.cells if not c.verified]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "ok": self.ok,
            "cells": [c.to_dict() for c in self.cells],
            "violations": [c.to_dict() for c in self.violations],
            "unverified": [c.to_dict() for c in self.unverified],
            "slack": {w: r.to_dict() for w, r in self.slack.items()},
        }

    def render(self) -> str:
        lines = [f"audit @ scale {self.scale}: {len(self.cells)} cells"]
        by_workload: Dict[str, List[AuditCell]] = {}
        for cell in self.cells:
            by_workload.setdefault(cell.workload, []).append(cell)
        for workload in sorted(by_workload):
            cells = by_workload[workload]
            bound = cells[0].bound
            verified = [c for c in cells if c.verified]
            margins = (f"margin {min(c.margin for c in verified):.2f}x-"
                       f"{max(c.margin for c in verified):.2f}x"
                       if verified else "no verified cells")
            lines.append(
                f"  {workload:16s} bound={bound.bound:>8d} "
                f"({bound.binding:10s}) {len(verified)}/{len(cells)} "
                f"verified, {margins}")
        for cell in self.violations:
            lines.append(
                f"  VIOLATION [{dc.AUD001}] {cell.workload} x "
                f"{cell.model}: {cell.cycles} cycles < bound "
                f"{cell.bound.bound}")
        for cell in self.unverified:
            lines.append(f"  unverified {cell.workload} x {cell.model}: "
                         f"{cell.error}")
        for workload, report in self.slack.items():
            lines.append(f"-- slack profile: {workload} --")
            lines.append(report.render())
        lines.append("audit " + ("PASSED" if self.ok else "FAILED"))
        return "\n".join(lines)


def check_bound(stats: SimStats, trace: Trace, model: str,
                workload: str) -> AuditCell:
    """Assert the oracle for one simulated cell.

    Returns the audited cell on success; raises :class:`AuditViolation`
    when the model went sub-physical.
    """
    bound = cycle_lower_bound(trace)
    if stats.cycles < bound.bound:
        raise AuditViolation(model, workload, bound, stats.cycles)
    return AuditCell(workload=workload, model=model, cycles=stats.cycles,
                     bound=bound)


def audit_matrix(models: Optional[Iterable[str]] = None,
                 workloads: Optional[Iterable[str]] = None,
                 scale: float = 0.1,
                 parallel=None,
                 results_cache=None,
                 slack_workloads: Iterable[str] = ()) -> AuditReport:
    """Audit every model x workload cell of the grid.

    Simulation failures are recorded as unverified cells rather than
    raised, so one broken model does not mask violations elsewhere.
    ``slack_workloads`` selects workloads whose per-instruction
    slack/ineffectuality profile is attached to the report.
    """
    # Imported lazily: the harness imports this package for seal-time
    # verification, so a module-level import would be circular.
    from ..harness.experiment import (ABLATION_FACTORIES, MODEL_FACTORIES,
                                      TraceCache, run_model)
    from ..workloads import ALL_WORKLOADS

    known = {**MODEL_FACTORIES, **ABLATION_FACTORIES}
    models = list(models) if models else sorted(MODEL_FACTORIES)
    workloads = list(workloads) if workloads else list(ALL_WORKLOADS)
    for model in models:
        if model not in known:
            raise KeyError(f"unknown model {model!r}; "
                           f"available: {sorted(known)}")

    cache = TraceCache(scale)
    report = AuditReport(scale=scale)
    if parallel or results_cache:
        # The bound is computed here from the trace, so cached stats are
        # as auditable as fresh ones — cache reads stay enabled.
        from ..harness.parallel import sweep
        sweep_report = sweep(models, workloads, cache=cache,
                             jobs=parallel, results_cache=results_cache)
        cycles_of = {cell: stats.cycles for cell, stats
                     in sweep_report.matrix.results.items()}
        errors_of = {(f.workload, f.model): f.error
                     for f in sweep_report.failures}
    else:
        cycles_of, errors_of = {}, {}

    for workload in workloads:
        trace = cache.trace(workload)
        bound = cycle_lower_bound(trace)
        for model in models:
            key = (workload, model)
            if key in cycles_of:
                cycles = cycles_of[key]
            elif key in errors_of:
                report.cells.append(AuditCell(
                    workload=workload, model=model, cycles=0,
                    bound=bound, error=errors_of[key]))
                continue
            else:
                try:
                    cycles = run_model(model, trace).cycles
                except Exception as exc:
                    report.cells.append(AuditCell(
                        workload=workload, model=model, cycles=0,
                        bound=bound,
                        error=f"{type(exc).__name__}: {exc}"))
                    continue
            report.cells.append(AuditCell(
                workload=workload, model=model, cycles=cycles,
                bound=bound))
    for workload in slack_workloads:
        report.slack[workload] = slack_report(cache.trace(workload))
    return report
