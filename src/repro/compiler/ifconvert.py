"""If-conversion: turn short forward hammocks into predicated code.

OpenIMPACT's hyperblock formation if-converts branchy regions so the EPIC
machine replaces unpredictable branches with predication.  This pass
implements the single-sided hammock case::

        br SKIP, pred=p          cmpeqi pX = p, 0   ; pX = NOT p
        <then block>      ==>    <then block, each guarded by pX>
    SKIP:                    SKIP:

Eligibility: the branch is a forward conditional ``BR`` with a real
qualifying predicate; the then-block is short, straight-line,
unpredicated, does not write the guard, and no instruction inside it is a
branch target.  The guard's complement is materialized into a free
predicate register (the ISA has no complementary compare targets).

The pass is off by default in :class:`~repro.compiler.passes.CompileOptions`
— the packaged workloads are hand-balanced — but is exercised by tests
and available for experiments on branch-heavy code.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Set

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.program import Program
from ..isa.registers import NUM_PRED_REGS, P, TRUE_PRED

_UNPREDICABLE = {Opcode.HALT, Opcode.BR, Opcode.JMP, Opcode.RESTART}


def _free_predicate(program: Program) -> Optional[int]:
    """A predicate register the program never reads or writes."""
    used: Set[int] = set()
    for inst in program:
        used.add(inst.pred)
        used.update(inst.dests)
        used.update(inst.srcs)
    for index in range(NUM_PRED_REGS - 1, 0, -1):
        reg = P(index)
        if reg not in used:
            return reg
    return None


def _branch_targets(program: Program) -> Set[int]:
    return {program.target_index(inst) for inst in program
            if inst.is_branch}


def _candidate(program: Program, branch: Instruction, targets: Set[int],
               max_block: int) -> bool:
    """Is ``branch`` the head of a convertible hammock?"""
    if branch.opcode is not Opcode.BR or branch.pred == TRUE_PRED:
        return False
    start, end = branch.index + 1, program.target_index(branch)
    if not 0 < end - start <= max_block:
        return False
    for idx in range(start, end):
        inst = program[idx]
        if inst.opcode in _UNPREDICABLE:
            return False
        if inst.is_predicated:
            return False          # keep guard composition out of scope
        if branch.pred in inst.dests:
            return False          # the block must not redefine its guard
        if idx in targets:
            return False          # side entrance
    return True


def if_convert(program: Program, max_block: int = 8) -> Program:
    """Apply if-conversion to every eligible hammock; returns a new program.

    Hammocks are converted one at a time (each consumes one free
    predicate register for the complemented guard); when no candidates or
    free predicates remain, the program is returned.
    """
    current = program
    while True:
        targets = _branch_targets(current)
        branch_idx = next(
            (inst.index for inst in current
             if _candidate(current, inst, targets, max_block)), None)
        if branch_idx is None:
            return current
        guard = _free_predicate(current)
        if guard is None:
            return current
        current = _convert_one(current, branch_idx, guard)


def _convert_one(program: Program, branch_idx: int, guard: int) -> Program:
    """Rewrite a single hammock headed by the branch at ``branch_idx``."""
    branch = program[branch_idx]
    end = program.target_index(branch)
    new_instructions: List[Instruction] = []
    old_to_new = {}
    for inst in program:
        idx = inst.index
        old_to_new[idx] = len(new_instructions)
        if idx == branch_idx:
            # Materialize NOT(pred) instead of branching.
            new_instructions.append(
                Instruction(Opcode.CMPEQI, (guard,), (branch.pred,), imm=0))
        elif branch_idx < idx < end:
            new_instructions.append(replace(inst, pred=guard))
        else:
            new_instructions.append(replace(inst))
    old_to_new[len(program)] = len(new_instructions)
    labels = {name: old_to_new[i] for name, i in program.labels.items()}
    result = program.derive(new_instructions, labels)
    result.metadata["if_converted"] = \
        result.metadata.get("if_converted", 0) + 1
    return result
