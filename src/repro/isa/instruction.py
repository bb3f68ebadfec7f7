"""The :class:`Instruction` record and its assembly rendering.

Instructions are static program entities.  Dynamic (per-execution) state
lives in :class:`repro.isa.trace.TraceEntry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from .opcodes import Opcode, OpSpec, spec_of
from .registers import TRUE_PRED, reg_name

Immediate = Union[int, float]


@dataclass
class Instruction:
    """One static EPIC instruction.

    Attributes:
        opcode: the operation.
        dests: destination register ids (flat namespace).
        srcs: source register ids.  For stores, ``srcs[0]`` is the data
            register and ``srcs[1]`` the address base.  For loads,
            ``srcs[0]`` is the address base.
        imm: immediate operand (ALU immediate or memory displacement).
        pred: qualifying predicate register id.  ``TRUE_PRED`` means the
            instruction is unconditional.
        target: label name for branches.
        stop: EPIC stop bit — this instruction ends its issue group.
        index: position in the owning :class:`~repro.isa.program.Program`,
            filled in when the program is sealed.
        group: issue-group ordinal assigned by the scheduler.
    """

    opcode: Opcode
    dests: Tuple[int, ...] = ()
    srcs: Tuple[int, ...] = ()
    imm: Optional[Immediate] = None
    pred: int = TRUE_PRED
    target: Optional[str] = None
    stop: bool = False
    index: int = field(default=-1, compare=False)
    group: int = field(default=-1, compare=False)

    @property
    def spec(self) -> OpSpec:
        """Static properties of this instruction's opcode."""
        return spec_of(self.opcode)

    @property
    def is_load(self) -> bool:
        return self.spec.is_load

    @property
    def is_store(self) -> bool:
        return self.spec.is_store

    @property
    def is_branch(self) -> bool:
        return self.spec.is_branch

    @property
    def is_predicated(self) -> bool:
        """True when guarded by a real (non-hardwired) predicate."""
        return self.pred != TRUE_PRED

    def read_regs(self) -> Tuple[int, ...]:
        """All registers this instruction reads, including its predicate."""
        if self.is_predicated:
            return self.srcs + (self.pred,)
        return self.srcs

    def render(self) -> str:
        """Render in assembly syntax, e.g. ``(p1) add r3 = r1, r2 ;;``."""
        spec = self.spec
        parts = []
        if self.is_predicated:
            parts.append(f"({reg_name(self.pred)})")
        parts.append(spec.mnemonic)
        operands = []
        if self.dests:
            operands.append(", ".join(reg_name(d) for d in self.dests) + " =")
        srcs = [reg_name(s) for s in self.srcs]
        if spec.has_imm or self.imm is not None:
            srcs.append(repr(self.imm))
        if self.target is not None:
            srcs.append(self.target)
        if srcs:
            operands.append(", ".join(srcs))
        body = " ".join(parts + [" ".join(operands)]).strip()
        return body + (" ;;" if self.stop else "")

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.render()
