"""Issue-port resource model shared by the compiler and the timing cores.

Models the Itanium-2-like dispersal network of the paper's machine
(Table 2: "6-issue, Itanium 2 FU distribution"): up to six instructions
issue per cycle onto M (memory), I (integer), F (floating point) and B
(branch) ports.  Memory operations need an M port; integer ALU operations
prefer an I port but can fall back to M; multiplies, divides and floating
point use F ports; branches use B ports.

:class:`PortTracker` is the only statement of that rule.  The compiler,
the verifier and the ``--slow`` scalar loops call it; the production
loops step :func:`issue_table`, the same tracker as a transition table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Tuple

from .isa.opcodes import FUClass


@dataclass(frozen=True)
class PortModel:
    """Per-cycle issue capacity."""

    width: int = 6
    m_ports: int = 4
    i_ports: int = 2
    f_ports: int = 2
    b_ports: int = 3

    def new_tracker(self) -> "PortTracker":
        return PortTracker(self)


class PortTracker:
    """Tracks one cycle's port usage; ask-then-commit interface."""

    __slots__ = ("model", "issued", "m_used", "i_used", "f_used", "b_used")

    def __init__(self, model: PortModel):
        self.model = model
        self.reset()

    def reset(self) -> None:
        self.issued = 0
        self.m_used = 0
        self.i_used = 0
        self.f_used = 0
        self.b_used = 0

    def can_issue(self, fu: FUClass) -> bool:
        """True if an instruction of class ``fu`` still fits this cycle."""
        model = self.model
        if self.issued >= model.width:
            return False
        if fu is FUClass.MEM:
            return self.m_used < model.m_ports
        if fu is FUClass.ALU:
            return (self.i_used < model.i_ports
                    or self.m_used < model.m_ports)
        if fu in (FUClass.FP, FUClass.MULDIV):
            return self.f_used < model.f_ports
        if fu is FUClass.BR:
            return self.b_used < model.b_ports
        return True  # FUClass.NONE consumes only an issue slot

    def issue(self, fu: FUClass) -> None:
        """Commit one instruction of class ``fu``; call can_issue first."""
        if not self.can_issue(fu):
            raise ValueError(f"no free port for {fu} this cycle")
        self.issued += 1
        if fu is FUClass.MEM:
            self.m_used += 1
        elif fu is FUClass.ALU:
            if self.i_used < self.model.i_ports:
                self.i_used += 1
            else:
                self.m_used += 1
        elif fu in (FUClass.FP, FUClass.MULDIV):
            self.f_used += 1
        elif fu is FUClass.BR:
            self.b_used += 1


#: Column code of each FUClass: its ordinal.  It carries no dispersal
#: rule; :func:`issue_table` indexes its rows by it, so FP and MULDIV
#: share the F ports only because :class:`PortTracker` says so.
PORT_CODE = {fu: code for code, fu in enumerate(FUClass)}

#: Decentralized issue queue of each FUClass on the realistic OOO model:
#: 0 = memory queue, 1 = integer queue (ALU/BR/slot-only), 2 = FP queue
#: (FP and MULDIV).
QUEUE_CODE = {
    FUClass.MEM: 0,
    FUClass.ALU: 1,
    FUClass.BR: 1,
    FUClass.NONE: 1,
    FUClass.FP: 2,
    FUClass.MULDIV: 2,
}


@lru_cache(maxsize=16)
def issue_table(model: PortModel) -> Tuple[int, ...]:
    """:class:`PortTracker` as a transition table over port states.

    Starting from the empty cycle, every reachable tracker state is
    visited breadth-first and asked about every FU class.  State ``s``
    (stored premultiplied by the number of classes, so the empty cycle
    is 0) and class ``fu`` give ``table[s + PORT_CODE[fu]]``: the state
    after ``tracker.issue(fu)``, or -1 where ``can_issue`` refuses.  A
    loop keeps one ``port_state`` int per cycle and steps it with one
    add and one subscript, so the tracker stays the only statement of
    the dispersal rule.
    """
    classes = tuple(FUClass)
    tracker = PortTracker(model)
    counters = attrgetter("issued", "m_used", "i_used", "f_used", "b_used")
    empty = counters(tracker)
    index = {empty: 0}
    states = [empty]
    table = []
    for state in states:             # grows as new states are found
        for fu in classes:
            (tracker.issued, tracker.m_used, tracker.i_used,
             tracker.f_used, tracker.b_used) = state
            if not tracker.can_issue(fu):
                table.append(-1)
                continue
            tracker.issue(fu)
            after = counters(tracker)
            if after not in index:
                index[after] = len(states) * len(classes)
                states.append(after)
            table.append(index[after])
    return tuple(table)
