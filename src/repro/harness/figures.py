"""Drivers that regenerate every table and figure of the evaluation.

Each function returns structured results plus a rendered text table whose
rows correspond to what the paper reports:

* :func:`figure6` — normalized execution cycles with the four-way stall
  breakdown for in-order / multipass / ideal OOO (Fig. 6), and the
  headline aggregates of Section 5.2.
* :func:`figure7` — multipass and OOO speedups under the three cache
  hierarchies (Fig. 7).
* :func:`figure8` — percent of full multipass speedup without issue
  regrouping / without advance restart (Fig. 8).
* :func:`table1` — peak and average power ratios of out-of-order vs
  multipass structures (Table 1).
* :func:`runahead_comparison` — the Section 5.2/5.4 Dundas–Mudge result
  (runahead reduces about half as many cycles as multipass).
* :func:`realistic_ooo_comparison` — the Section 5.2 decentralized-queue
  result (multipass 1.05x over realistic OOO).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..machine import MachineConfig
from ..memory.configs import HIERARCHIES
from ..power import average_ratios, multipass_power, ooo_power
from ..power.structures import (PAPER_AVERAGE_RATIOS, PAPER_PEAK_RATIOS,
                                table1_groups)
from ..workloads import ALL_WORKLOADS
from .experiment import Matrix, TraceCache, geomean, run_matrix
from .report import fig6_table, speedup_table, stall_reduction


@dataclass
class FigureResult:
    """One regenerated table/figure: structured data + rendered text."""

    name: str
    data: Dict[str, object]
    text: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _cache(scale: float, cache: Optional[TraceCache]) -> TraceCache:
    return cache or TraceCache(scale)


def figure6(scale: float = 1.0, workloads=ALL_WORKLOADS,
            cache: Optional[TraceCache] = None,
            parallel=None, results_cache=None) -> FigureResult:
    """Fig. 6: normalized cycles, stall breakdown, headline aggregates."""
    matrix = run_matrix(("inorder", "multipass", "ooo"),
                        workloads=workloads, scale=scale, cache=cache,
                        parallel=parallel, results_cache=results_cache)
    mp_speedup = geomean(matrix.speedup(w, "multipass")
                         for w in matrix.workloads())
    ooo_over_mp = geomean(
        matrix.get(w, "multipass").cycles / matrix.get(w, "ooo").cycles
        for w in matrix.workloads())
    mean_stall_reduction = sum(
        stall_reduction(matrix.get(w, "multipass"),
                        matrix.get(w, "inorder"))
        for w in matrix.workloads()) / len(matrix.workloads())
    text = "\n".join([
        fig6_table(matrix),
        "",
        f"multipass speedup (geomean):        {mp_speedup:.3f}"
        f"   [paper: 1.36]",
        f"ideal OOO speedup over multipass:   {ooo_over_mp:.3f}"
        f"   [paper: 1.14]",
        f"mean total-stall reduction (MP):    {mean_stall_reduction:.1%}"
        f"   [paper: 49%]",
    ])
    return FigureResult("figure6", {
        "matrix": matrix,
        "mp_speedup_geomean": mp_speedup,
        "ooo_over_mp": ooo_over_mp,
        "mean_stall_reduction": mean_stall_reduction,
    }, text)


def figure7(scale: float = 1.0, workloads=ALL_WORKLOADS,
            hierarchies=("base", "config1", "config2"),
            cache: Optional[TraceCache] = None,
            parallel=None, results_cache=None) -> FigureResult:
    """Fig. 7: MP and OOO speedups under the three cache hierarchies.

    The hierarchies replay the same traces, so one cache serves all
    three sweeps and each program is executed once.
    """
    cache = _cache(scale, cache)
    per_config: Dict[str, Matrix] = {}
    rows: List[str] = [
        "Speedup over in-order under varying cache hierarchies",
        f"{'config':>9} {'model':>10} " + "".join(
            f"{w:>8}" for w in workloads) + f" {'geomean':>9}",
    ]
    data: Dict[str, Dict[str, float]] = {}
    for name in hierarchies:
        config = MachineConfig().with_hierarchy(HIERARCHIES[name]())
        matrix = run_matrix(("inorder", "multipass", "ooo"),
                            workloads=workloads, config=config,
                            cache=cache, parallel=parallel,
                            results_cache=results_cache)
        per_config[name] = matrix
        data[name] = {}
        for model in ("multipass", "ooo"):
            speedups = [matrix.speedup(w, model) for w in workloads]
            mean = geomean(speedups)
            data[name][model] = mean
            rows.append(f"{name:>9} {model:>10} " + "".join(
                f"{s:8.2f}" for s in speedups) + f" {mean:9.3f}")
    gaps = {name: data[name]["ooo"] / data[name]["multipass"]
            for name in hierarchies}
    rows.append("")
    rows.append("OOO/MP gap per hierarchy (paper: narrows with more "
                "restrictive hierarchies): " + ", ".join(
                    f"{n}={g:.3f}" for n, g in gaps.items()))
    return FigureResult("figure7", {
        "matrices": per_config, "means": data, "gaps": gaps,
    }, "\n".join(rows))


def figure8(scale: float = 1.0, workloads=ALL_WORKLOADS,
            cache: Optional[TraceCache] = None,
            parallel=None, results_cache=None) -> FigureResult:
    """Fig. 8: % of full MP speedup without regrouping / without restart."""
    matrix = run_matrix(("inorder", "multipass", "multipass-noregroup",
                         "multipass-norestart"),
                        workloads=workloads, scale=scale, cache=cache,
                        parallel=parallel, results_cache=results_cache)
    rows = [
        "Percent of full multipass speedup retained",
        f"{'workload':>9} {'full MP':>8} {'no-regroup':>11} "
        f"{'no-restart':>11}",
    ]
    data: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        base = matrix.get(workload, "inorder")
        full = matrix.get(workload, "multipass")
        full_gain = base.cycles / full.cycles - 1.0

        def retained(model: str) -> float:
            stats = matrix.get(workload, model)
            gain = base.cycles / stats.cycles - 1.0
            return gain / full_gain if full_gain > 1e-9 else 1.0

        noregroup = retained("multipass-noregroup")
        norestart = retained("multipass-norestart")
        data[workload] = {
            "full_speedup": base.cycles / full.cycles,
            "noregroup_retained": noregroup,
            "norestart_retained": norestart,
        }
        rows.append(f"{workload:>9} {base.cycles / full.cycles:8.2f} "
                    f"{noregroup:11.1%} {norestart:11.1%}")
    rows.append("")
    rows.append("[paper: advance restart matters for bzip2, gap and mcf; "
                "regrouping contributes for all benchmarks except mcf]")
    return FigureResult("figure8", {"per_workload": data}, "\n".join(rows))


def table1(scale: float = 1.0, workload: str = "mcf",
           cache: Optional[TraceCache] = None,
           parallel=None, results_cache=None) -> FigureResult:
    """Table 1: peak and average power ratios (OOO / multipass)."""
    cache = _cache(scale, cache)
    groups = table1_groups()
    peak = {name: group.peak_ratio() for name, group in groups.items()}
    matrix = run_matrix(("multipass", "ooo"), workloads=(workload,),
                        cache=cache, parallel=parallel,
                        results_cache=results_cache)
    trace = cache.trace(workload)
    mp_stats = matrix.get(workload, "multipass")
    ooo_stats = matrix.get(workload, "ooo")
    average = average_ratios(ooo_power(ooo_stats, trace),
                             multipass_power(mp_stats, trace))
    rows = [
        "Power ratios of out-of-order to multipass structures "
        f"(average activity from {workload})",
        f"{'structure group':>18} {'peak':>7} {'paper':>7} "
        f"{'average':>9} {'paper':>7}",
    ]
    for name in groups:
        rows.append(
            f"{name:>18} {peak[name]:7.2f} "
            f"{PAPER_PEAK_RATIOS[name]:7.2f} {average[name]:9.2f} "
            f"{PAPER_AVERAGE_RATIOS[name]:7.2f}")
    return FigureResult("table1", {"peak": peak, "average": average},
                        "\n".join(rows))


def runahead_comparison(scale: float = 1.0, workloads=ALL_WORKLOADS,
                        cache: Optional[TraceCache] = None,
                        parallel=None, results_cache=None) -> FigureResult:
    """Section 5.4: Dundas–Mudge runahead vs multipass cycle reduction."""
    matrix = run_matrix(("inorder", "multipass", "runahead"),
                        workloads=workloads, scale=scale, cache=cache,
                        parallel=parallel, results_cache=results_cache)
    mp_reduction = sum(
        1 - matrix.get(w, "multipass").cycles
        / matrix.get(w, "inorder").cycles
        for w in matrix.workloads()) / len(matrix.workloads())
    ra_reduction = sum(
        1 - matrix.get(w, "runahead").cycles
        / matrix.get(w, "inorder").cycles
        for w in matrix.workloads()) / len(matrix.workloads())
    ratio = ra_reduction / mp_reduction if mp_reduction else 0.0
    text = "\n".join([
        speedup_table(matrix, ("multipass", "runahead")),
        "",
        f"mean cycle reduction: multipass {mp_reduction:.1%}, "
        f"runahead {ra_reduction:.1%}",
        f"runahead/multipass reduction ratio: {ratio:.2f}"
        f"   [paper: ~0.5 — 'only reduced half as many cycles']",
    ])
    return FigureResult("runahead", {
        "matrix": matrix, "mp_reduction": mp_reduction,
        "ra_reduction": ra_reduction, "ratio": ratio,
    }, text)


def realistic_ooo_comparison(scale: float = 1.0, workloads=ALL_WORKLOADS,
                             cache: Optional[TraceCache] = None,
                             parallel=None, results_cache=None
                             ) -> FigureResult:
    """Section 5.2: multipass vs the decentralized-queue OOO model."""
    matrix = run_matrix(("inorder", "multipass", "ooo-realistic"),
                        workloads=workloads, scale=scale, cache=cache,
                        parallel=parallel, results_cache=results_cache)
    mp_over_realistic = geomean(
        matrix.get(w, "ooo-realistic").cycles
        / matrix.get(w, "multipass").cycles
        for w in matrix.workloads())
    text = "\n".join([
        speedup_table(matrix, ("multipass", "ooo-realistic")),
        "",
        f"multipass speedup over realistic OOO (geomean): "
        f"{mp_over_realistic:.3f}   [paper: 1.05]",
    ])
    return FigureResult("realistic-ooo", {
        "matrix": matrix, "mp_over_realistic": mp_over_realistic,
    }, text)
