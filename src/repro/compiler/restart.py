"""RESTART-insertion pass.

Inserts a ``RESTART`` directive immediately after every load belonging to a
critical strongly-connected component, consuming the load's destination
register (paper Section 3.3).  At run time the multipass pipeline restarts
its advance pass when a RESTART's operand is unready; architecturally the
instruction is a no-op.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.program import Program
from .criticality import find_critical_sccs
from .dataflow import build_dataflow_graph


def insert_restarts(program: Program, dominance_ratio: float = 2.0
                    ) -> Program:
    """Return a new program with RESTARTs after critical-SCC loads.

    Labels are rebuilt so that branches land where they used to (a RESTART
    inserted at a branch target stays un-targeted — it belongs to the load
    above it).  Idempotent: a load whose destination already feeds a
    RESTART is left alone, even when a later scheduling pass has moved
    that RESTART away from the load.
    """
    graph = build_dataflow_graph(program)
    critical = find_critical_sccs(program, graph,
                                  dominance_ratio=dominance_ratio)
    load_indices = sorted({
        idx for scc in critical for idx in scc.loads
    })
    if not load_indices:
        return program

    insert_after = set()
    for idx in load_indices:
        consumers = graph.succs.get(idx, ())
        if any(program[c].opcode is Opcode.RESTART for c in consumers):
            continue
        insert_after.add(idx)
    if not insert_after:
        return program

    new_instructions: List[Instruction] = []
    old_to_new = {}
    for inst in program:
        old_to_new[inst.index] = len(new_instructions)
        new_instructions.append(replace(inst))
        if inst.index in insert_after:
            dest = inst.dests[0]
            new_instructions.append(
                Instruction(Opcode.RESTART, (), (dest,))
            )
    old_to_new[len(program)] = len(new_instructions)

    new_labels = {
        label: old_to_new[idx] for label, idx in program.labels.items()
    }
    result = program.derive(new_instructions, new_labels)
    result.metadata["restarts_inserted"] = len(insert_after)
    return result
