"""Activity-based average power (the Table 1 "Average Power Ratio" column).

The paper measured average power "by incorporating the relevant Wattch
component models into the cycle-by-cycle simulator" with Wattch's linear
clock-gating model.  We do the same: each structure's average power is its
dynamic energy (accesses x energy/access over the run) plus a clock-gating
floor charged only while the structure is active — multipass-specific
structures are gated off entirely in architectural mode (Section 3.1.1),
whereas the out-of-order structures are part of every instruction's path
and are never idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..isa.trace import Trace
from ..pipeline.stats import SimStats
from .structures import (memory_group, register_group, scheduling_group)
from .wattch import TechParams


@dataclass
class PowerBreakdown:
    """Average power per structure group for one model/workload run."""

    model: str
    workload: str
    watts: Dict[str, float]

    def total(self) -> float:
        return sum(self.watts.values())


def _operand_counts(trace: Trace):
    """Total architectural source reads and destination writes."""
    dec = trace.decoded
    return sum(map(len, dec.srcs)), sum(map(len, dec.dests))


def _avg_power(tech: TechParams, peak: float, dynamic_energy: float,
               cycles: int, active_cycles: Optional[int] = None) -> float:
    """Clock-gated average power for one structure."""
    active = cycles if active_cycles is None else min(active_cycles, cycles)
    floor = tech.clock_gate_floor * peak * (active / max(1, cycles))
    return floor + tech.power(dynamic_energy / max(1, cycles))


def ooo_power(stats: SimStats, trace: Trace,
              tech: TechParams = TechParams()) -> PowerBreakdown:
    """Average power of the Table 1 out-of-order structures."""
    cycles = stats.cycles
    reads, writes = _operand_counts(trace)
    n = stats.instructions
    loads = stats.counters.get("loads_issued", 0)
    counts = trace.dynamic_counts()
    stores = counts["stores"]

    regfile, rat = register_group(tech).ooo
    wakeup, issue = scheduling_group(tech).ooo
    load_buffer, store_buffer = memory_group(tech).ooo

    watts = {
        "regfile": _avg_power(
            tech, regfile.peak_power(),
            (reads + writes) * regfile.energy_per_access(), cycles),
        "rat": _avg_power(
            tech, rat.peak_power(),
            (reads + writes) * rat.energy_per_access(), cycles),
        "wakeup": _avg_power(
            tech, wakeup.peak_power(),
            n * (wakeup.evaluate_energy() + wakeup.update_energy()),
            cycles),
        "issue": _avg_power(
            tech, issue.peak_power(),
            2 * n * issue.energy_per_access(), cycles),
        # Loads search the store buffer; stores search the load buffer.
        "load_buffer": _avg_power(
            tech, load_buffer.peak_power(),
            stores * load_buffer.search_energy()
            + loads * load_buffer.write_energy(), cycles),
        "store_buffer": _avg_power(
            tech, store_buffer.peak_power(),
            loads * store_buffer.search_energy()
            + stores * store_buffer.write_energy(), cycles),
    }
    return PowerBreakdown(stats.model, stats.workload, watts)


def multipass_power(stats: SimStats, trace: Trace,
                    tech: TechParams = TechParams()) -> PowerBreakdown:
    """Average power of the Table 1 multipass structures."""
    cycles = stats.cycles
    reads, writes = _operand_counts(trace)
    counters = stats.counters
    merges = counters.get("rally_merges", 0)
    advance_execs = counters.get("advance_executions", 0)
    merge_frac = merges / max(1, stats.instructions)
    advance_cycles = counters.get("advance_cycles", 0)
    rally_cycles = counters.get("rally_cycles", 0)
    active = advance_cycles + rally_cycles
    avg_ops = (reads + writes) / max(1, len(trace))

    arf, srf, result_store = register_group(tech).multipass
    (iq,) = scheduling_group(tech).multipass
    smaq, asc = memory_group(tech).multipass

    width = result_store.wide_factor
    watts = {
        # Merged instructions read the RS instead of the ARF, but all
        # results are still written architecturally.
        "arf": _avg_power(
            tech, arf.peak_power(),
            (reads * (1 - merge_frac) + writes)
            * arf.energy_per_access(), cycles),
        "srf": _avg_power(
            tech, srf.peak_power(),
            advance_execs * avg_ops * srf.energy_per_access(), cycles,
            active_cycles=active),
        "result_store": _avg_power(
            tech, result_store.peak_power(),
            counters.get("rs_writes", 0)
            * result_store.energy_per_access()
            + (merges / width) * result_store.energy_per_access(wide=True),
            cycles, active_cycles=active),
        "iq": _avg_power(
            tech, iq.peak_power(),
            (stats.instructions / width) * iq.energy_per_access(wide=True)
            + ((counters.get("iq_dequeues", 0)
                + counters.get("iq_peeks", 0)) / width)
            * iq.energy_per_access(wide=True), cycles),
        "smaq": _avg_power(
            tech, smaq.peak_power(),
            (counters.get("advance_loads", 0)
             + counters.get("advance_stores", 0)
             + counters.get("smaq_reads", 0))
            * smaq.energy_per_access(), cycles, active_cycles=active),
        "asc": _avg_power(
            tech, asc.peak_power(),
            (counters.get("asc_reads", 0) + counters.get("asc_writes", 0))
            * asc.energy_per_access(), cycles, active_cycles=active),
    }
    return PowerBreakdown(stats.model, stats.workload, watts)


#: Structure-name membership of each Table 1 row, for ratio reporting.
GROUP_MEMBERS = {
    "registers": {"ooo": ("regfile", "rat"),
                  "multipass": ("arf", "srf", "result_store")},
    "scheduling": {"ooo": ("wakeup", "issue"), "multipass": ("iq",)},
    "memory-ordering": {"ooo": ("load_buffer", "store_buffer"),
                        "multipass": ("smaq", "asc")},
}


def average_ratios(ooo_breakdown: PowerBreakdown,
                   mp_breakdown: PowerBreakdown) -> Dict[str, float]:
    """Per-row average-power ratios (OOO / multipass), as in Table 1."""
    ratios = {}
    for row, members in GROUP_MEMBERS.items():
        ooo_watts = sum(ooo_breakdown.watts[m] for m in members["ooo"])
        mp_watts = sum(mp_breakdown.watts[m] for m in members["multipass"])
        ratios[row] = ooo_watts / mp_watts
    return ratios
