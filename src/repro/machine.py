"""Machine configuration (Table 2 of the paper).

One :class:`MachineConfig` drives every timing model so that comparisons
between in-order, multipass, runahead and out-of-order cores differ only in
the microarchitecture under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .memory.configs import base_hierarchy
from .memory.hierarchy import HierarchyConfig
from .resources import PortModel


@dataclass(frozen=True)
class MachineConfig:
    """All parameters shared by (or specific to) the simulated cores.

    Defaults reproduce Table 2: a 6-issue EPIC machine with Itanium 2
    functional-unit distribution, 1024-entry gshare, the contemporary
    cache hierarchy, a 256-entry multipass instruction queue, and an
    out-of-order configuration with a 128-entry scheduling window,
    256-entry reorder buffer and 3 additional scheduling/renaming stages.
    """

    name: str = "itanium2-like"
    ports: PortModel = PortModel()
    hierarchy: HierarchyConfig = field(default_factory=base_hierarchy)

    # Front end.
    fetch_width: int = 6
    branch_predictor_entries: int = 1024
    mispredict_penalty: int = 6
    instruction_bytes: int = 16   # dispersal footprint per instruction

    # Baseline in-order instruction buffer (Itanium 2 holds ~24).
    inorder_buffer_size: int = 24

    # Multipass structures (Table 2 + Section 4.2).
    multipass_queue_size: int = 256
    asc_entries: int = 64
    asc_assoc: int = 2
    smaq_entries: int = 128
    flush_penalty: int = 6
    #: Pipe-refill cycles after an advance restart (DEQ->REG re-traversal).
    advance_restart_refill: int = 3
    #: Cycles between the triggering stall and the first advance issue
    #: (latching the architectural stream, switching to the PEEK pointer).
    advance_entry_delay: int = 2

    # Out-of-order structures (Table 2).
    ooo_window: int = 128
    ooo_rob: int = 256
    ooo_extra_stages: int = 3

    def with_hierarchy(self, hierarchy: HierarchyConfig) -> "MachineConfig":
        """A copy of this configuration with a different memory system."""
        return replace(self, hierarchy=hierarchy,
                       name=f"{self.name}/{hierarchy.name}")


def itanium2_like() -> MachineConfig:
    """The experimental machine of Table 2."""
    return MachineConfig()
