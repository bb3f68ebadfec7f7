"""Simulation statistics and the paper's stall taxonomy.

Figure 6 attributes every cycle to one of four categories:

* **execution** — at least one instruction issued without delay;
* **front-end** — branch-misprediction flushes and I-cache misses;
* **other** — stalls on multiplies/divides/floating point and other
  non-unit-latency instructions, and resource conflicts;
* **load** — stalls on consumption of unready load results.

Multipass advance-mode cycles in which no *new* execution occurs (only
merges or deferrals) are charged to the latency that initiated advance
mode, i.e. the load category.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..memory.hierarchy import HierarchyStats


class StallCategory(enum.Enum):
    """The four Figure 6 cycle categories."""

    EXECUTION = "execution"
    FRONT_END = "front-end"
    OTHER = "other"
    LOAD = "load"


@dataclass
class SimStats:
    """Results of one timing-model run over one trace."""

    model: str
    workload: str
    cycles: int = 0
    instructions: int = 0
    cycle_breakdown: Dict[StallCategory, int] = field(
        default_factory=lambda: {c: 0 for c in StallCategory}
    )
    counters: Counter = field(default_factory=Counter)
    memory: Optional[HierarchyStats] = None
    branch_accuracy: float = 1.0

    def charge(self, category: StallCategory, cycles: int = 1) -> None:
        self.cycle_breakdown[category] += cycles
        self.cycles += cycles

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def stall_cycles(self) -> int:
        """All non-execution cycles."""
        return self.cycles - self.cycle_breakdown[StallCategory.EXECUTION]

    @property
    def load_stall_cycles(self) -> int:
        return self.cycle_breakdown[StallCategory.LOAD]

    def normalized_breakdown(self, baseline_cycles: int
                             ) -> Dict[StallCategory, float]:
        """Per-category cycles normalized to a baseline machine's total."""
        if baseline_cycles <= 0:
            raise ValueError("baseline cycle count must be positive")
        return {
            category: count / baseline_cycles
            for category, count in self.cycle_breakdown.items()
        }

    def speedup_over(self, baseline: "SimStats") -> float:
        """Cycle-count speedup of this run relative to ``baseline``."""
        if self.cycles == 0:
            raise ValueError("run has zero cycles")
        return baseline.cycles / self.cycles

    def to_dict(self) -> dict:
        """JSON-safe view of the run (``repro simulate --json``)."""
        out = {
            "model": self.model,
            "workload": self.workload,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "cycle_breakdown": {
                category.value: count
                for category, count in self.cycle_breakdown.items()
            },
            "counters": dict(sorted(self.counters.items())),
            "branch_accuracy": self.branch_accuracy,
        }
        if self.memory is not None:
            out["memory"] = {
                "accesses": dict(sorted(self.memory.accesses.items())),
                "misses": dict(sorted(self.memory.misses.items())),
                "memory_accesses": self.memory.memory_accesses,
                "mshr_merges": self.memory.mshr_merges,
                "mshr_full_stall_cycles":
                    self.memory.mshr_full_stall_cycles,
            }
        return out

    def summary(self) -> str:
        parts = [f"{self.model}/{self.workload}: {self.cycles} cycles,"
                 f" IPC {self.ipc:.2f}"]
        for category in StallCategory:
            share = (self.cycle_breakdown[category] / self.cycles
                     if self.cycles else 0.0)
            parts.append(f"  {category.value:>10}: "
                         f"{self.cycle_breakdown[category]:>9} "
                         f"({share:5.1%})")
        return "\n".join(parts)
