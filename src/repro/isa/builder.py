"""Fluent assembler API for constructing :class:`~repro.isa.program.Program`.

Workload generators and tests use this builder instead of writing raw
:class:`Instruction` lists.  Example::

    b = ProgramBuilder("sum")
    b.movi(R(1), 0)          # acc = 0
    b.movi(R(2), 0x1000)     # ptr = base
    b.movi(R(3), 100)        # n = 100
    b.label("loop")
    b.ld(R(4), R(2), 0)
    b.add(R(1), R(1), R(4))
    b.addi(R(2), R(2), 4)
    b.subi(R(3), R(3), 1)
    b.cmpnei(P(1), R(3), 0)
    b.br("loop", pred=P(1))   # loop while the counter is non-zero
    b.halt()
    program = b.build()

Branches: ``br(target, pred=...)`` branches when the predicate is *true*.
Compare opcodes write the predicate directly, so loops typically compute
``cmplt p1, i, n`` and ``br("loop", pred=p1)``.
"""

from __future__ import annotations

from typing import Dict, List

from .instruction import Immediate, Instruction
from .opcodes import Opcode
from .program import WORD_SIZE, Program, ProgramError
from .registers import TRUE_PRED


class ProgramBuilder:
    """Incrementally assembles a :class:`Program`."""

    def __init__(self, name: str):
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        #: The initial data-memory image, byte address -> word.  Workload
        #: generators filling large regions write into it directly; the
        #: seal (:meth:`build`) checks every address's alignment once.
        self.memory: Dict[int, object] = {}
        self.metadata: Dict[str, object] = {}

    # -- structure ---------------------------------------------------------

    def label(self, name: str) -> None:
        """Define ``name`` at the current position."""
        if name in self._labels:
            raise ProgramError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)

    def emit(self, inst: Instruction) -> Instruction:
        """Append a pre-built instruction."""
        self._instructions.append(inst)
        return inst

    def build(self) -> Program:
        """Seal and return the program."""
        return Program(
            name=self.name,
            instructions=list(self._instructions),
            labels=dict(self._labels),
            memory_image=dict(self.memory),
            metadata=dict(self.metadata),
        )

    def __len__(self) -> int:
        return len(self._instructions)

    # -- data memory -------------------------------------------------------

    def data_word(self, addr: int, value: object) -> None:
        """Place one initial-memory word at byte address ``addr``."""
        if addr % WORD_SIZE != 0:
            raise ProgramError(f"unaligned data word at {addr}")
        self.memory[addr] = value

    def data_words(self, base: int, values) -> int:
        """Place consecutive words starting at ``base``; return end address."""
        addr = base
        for value in values:
            self.data_word(addr, value)
            addr += WORD_SIZE
        return addr

    # -- generic emit helpers ----------------------------------------------

    def _op3(self, opcode: Opcode, rd: int, rs1: int, rs2: int,
             pred: int = TRUE_PRED) -> Instruction:
        return self.emit(Instruction(opcode, (rd,), (rs1, rs2), pred=pred))

    def _opi(self, opcode: Opcode, rd: int, rs1: int, imm: Immediate,
             pred: int = TRUE_PRED) -> Instruction:
        return self.emit(
            Instruction(opcode, (rd,), (rs1,), imm=imm, pred=pred)
        )

    # -- integer ALU ---------------------------------------------------------

    def add(self, rd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.ADD, rd, rs1, rs2, pred)

    def addi(self, rd, rs1, imm, pred=TRUE_PRED):
        return self._opi(Opcode.ADDI, rd, rs1, imm, pred)

    def sub(self, rd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.SUB, rd, rs1, rs2, pred)

    def subi(self, rd, rs1, imm, pred=TRUE_PRED):
        return self._opi(Opcode.SUBI, rd, rs1, imm, pred)

    def and_(self, rd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.AND, rd, rs1, rs2, pred)

    def andi(self, rd, rs1, imm, pred=TRUE_PRED):
        return self._opi(Opcode.ANDI, rd, rs1, imm, pred)

    def or_(self, rd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.OR, rd, rs1, rs2, pred)

    def xor(self, rd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.XOR, rd, rs1, rs2, pred)

    def xori(self, rd, rs1, imm, pred=TRUE_PRED):
        return self._opi(Opcode.XORI, rd, rs1, imm, pred)

    def shl(self, rd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.SHL, rd, rs1, rs2, pred)

    def shli(self, rd, rs1, imm, pred=TRUE_PRED):
        return self._opi(Opcode.SHLI, rd, rs1, imm, pred)

    def shr(self, rd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.SHR, rd, rs1, rs2, pred)

    def shri(self, rd, rs1, imm, pred=TRUE_PRED):
        return self._opi(Opcode.SHRI, rd, rs1, imm, pred)

    def mov(self, rd, rs, pred=TRUE_PRED):
        return self.emit(Instruction(Opcode.MOV, (rd,), (rs,), pred=pred))

    def movi(self, rd, imm, pred=TRUE_PRED):
        return self.emit(Instruction(Opcode.MOVI, (rd,), (), imm=imm,
                                     pred=pred))

    # -- compares ------------------------------------------------------------

    def cmpeq(self, pd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.CMPEQ, pd, rs1, rs2, pred)

    def cmpne(self, pd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.CMPNE, pd, rs1, rs2, pred)

    def cmplt(self, pd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.CMPLT, pd, rs1, rs2, pred)

    def cmple(self, pd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.CMPLE, pd, rs1, rs2, pred)

    def cmpeqi(self, pd, rs1, imm, pred=TRUE_PRED):
        return self._opi(Opcode.CMPEQI, pd, rs1, imm, pred)

    def cmpnei(self, pd, rs1, imm, pred=TRUE_PRED):
        return self._opi(Opcode.CMPNEI, pd, rs1, imm, pred)

    def cmplti(self, pd, rs1, imm, pred=TRUE_PRED):
        return self._opi(Opcode.CMPLTI, pd, rs1, imm, pred)

    def cmplei(self, pd, rs1, imm, pred=TRUE_PRED):
        return self._opi(Opcode.CMPLEI, pd, rs1, imm, pred)

    # -- multi-cycle integer ---------------------------------------------------

    def mul(self, rd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.MUL, rd, rs1, rs2, pred)

    def div(self, rd, rs1, rs2, pred=TRUE_PRED):
        return self._op3(Opcode.DIV, rd, rs1, rs2, pred)

    # -- floating point ---------------------------------------------------------

    def fadd(self, fd, fs1, fs2, pred=TRUE_PRED):
        return self._op3(Opcode.FADD, fd, fs1, fs2, pred)

    def fsub(self, fd, fs1, fs2, pred=TRUE_PRED):
        return self._op3(Opcode.FSUB, fd, fs1, fs2, pred)

    def fmul(self, fd, fs1, fs2, pred=TRUE_PRED):
        return self._op3(Opcode.FMUL, fd, fs1, fs2, pred)

    def fdiv(self, fd, fs1, fs2, pred=TRUE_PRED):
        return self._op3(Opcode.FDIV, fd, fs1, fs2, pred)

    def fmov(self, fd, fs, pred=TRUE_PRED):
        return self.emit(Instruction(Opcode.FMOV, (fd,), (fs,), pred=pred))

    def fmovi(self, fd, imm, pred=TRUE_PRED):
        return self.emit(Instruction(Opcode.FMOVI, (fd,), (), imm=float(imm),
                                     pred=pred))

    def fcmplt(self, pd, fs1, fs2, pred=TRUE_PRED):
        return self._op3(Opcode.FCMPLT, pd, fs1, fs2, pred)

    def fcmple(self, pd, fs1, fs2, pred=TRUE_PRED):
        return self._op3(Opcode.FCMPLE, pd, fs1, fs2, pred)

    def cvtif(self, fd, rs, pred=TRUE_PRED):
        return self.emit(Instruction(Opcode.CVTIF, (fd,), (rs,), pred=pred))

    def cvtfi(self, rd, fs, pred=TRUE_PRED):
        return self.emit(Instruction(Opcode.CVTFI, (rd,), (fs,), pred=pred))

    # -- memory ---------------------------------------------------------------

    def ld(self, rd, base, offset=0, pred=TRUE_PRED):
        """Integer load: ``rd = MEM[base + offset]``."""
        return self.emit(Instruction(Opcode.LD, (rd,), (base,), imm=offset,
                                     pred=pred))

    def st(self, data, base, offset=0, pred=TRUE_PRED):
        """Integer store: ``MEM[base + offset] = data``."""
        return self.emit(Instruction(Opcode.ST, (), (data, base), imm=offset,
                                     pred=pred))

    def fld(self, fd, base, offset=0, pred=TRUE_PRED):
        return self.emit(Instruction(Opcode.FLD, (fd,), (base,), imm=offset,
                                     pred=pred))

    def fst(self, data, base, offset=0, pred=TRUE_PRED):
        return self.emit(Instruction(Opcode.FST, (), (data, base), imm=offset,
                                     pred=pred))

    # -- control ---------------------------------------------------------------

    def br(self, target: str, pred=TRUE_PRED):
        """Branch to ``target`` when ``pred`` is true."""
        return self.emit(Instruction(Opcode.BR, (), (), pred=pred,
                                     target=target))

    def jmp(self, target: str):
        return self.emit(Instruction(Opcode.JMP, (), (), target=target))

    def halt(self):
        return self.emit(Instruction(Opcode.HALT))

    def nop(self):
        return self.emit(Instruction(Opcode.NOP))

    def restart(self, rs, pred=TRUE_PRED):
        """Advance-restart directive consuming ``rs`` (paper Section 3.3)."""
        return self.emit(Instruction(Opcode.RESTART, (), (rs,), pred=pred))
