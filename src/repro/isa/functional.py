"""Golden functional simulator.

Executes a :class:`~repro.isa.program.Program` to completion under ILP32
semantics (32-bit two's-complement integers, Table 2 of the paper) and
records the dynamic :class:`~repro.isa.trace.Trace` that all timing models
replay.  This is also the reference against which multipass result
preservation is verified: every value the multipass core merges from its
result store must equal the value recorded here.

Two implementations of the same semantics live here.  :meth:`run`, the
golden run, pre-decodes the program once and appends the trace's dynamic
columns; :meth:`FunctionalSimulator._step` executes one instruction at a
time through the register/memory accessors and backs :meth:`step`, which
the ``--check`` replay drives, so a checked run cross-checks the two.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional

from .instruction import Instruction
from .opcodes import Opcode
from .program import Program, check_alignment
from .registers import (HARDWIRED, NUM_PRED_REGS, NUM_REGS, PRED_BASE,
                        TRUE_PRED, ZERO_REG, is_pred_reg)
from .trace import Trace, TraceEntry

_MASK32 = 0xFFFFFFFF
_SIGN32 = 0x80000000


def to_int32(value: int) -> int:
    """Wrap an int to 32-bit two's-complement (ILP32 data model)."""
    value &= _MASK32
    return value - (1 << 32) if value & _SIGN32 else value


class ExecutionLimitExceeded(Exception):
    """The program ran past ``max_instructions`` without halting."""


class FunctionalSimulator:
    """Executes programs and emits golden traces."""

    def __init__(self, program: Program, max_instructions: int = 2_000_000):
        self.program = program
        self.max_instructions = max_instructions
        self.registers: Dict[int, object] = {}
        self.memory: Dict[int, object] = dict(program.memory_image)
        self.pc = 0

    # -- register/memory accessors ------------------------------------------

    def read_reg(self, reg: int) -> object:
        if reg == ZERO_REG:
            return 0
        if reg == TRUE_PRED:
            return True
        if is_pred_reg(reg):
            return self.registers.get(reg, False)
        return self.registers.get(reg, 0)

    def write_reg(self, reg: int, value: object) -> None:
        if reg in (ZERO_REG, TRUE_PRED):
            return
        self.registers[reg] = value

    def read_mem(self, addr: int) -> object:
        check_alignment(addr, self.program.name)
        return self.memory.get(addr, 0)

    def write_mem(self, addr: int, value: object) -> None:
        check_alignment(addr, self.program.name)
        self.memory[addr] = value

    # -- execution -------------------------------------------------------------

    def run(self, truncate_ok: bool = False) -> Trace:
        """Execute until HALT (or the instruction limit) and return the trace.

        The program is pre-decoded once (:func:`_predecode`) and executed
        over a flat register list into the trace's five dynamic columns
        (``pc``, ``executed``, ``addr``, ``value``, ``taken``).  The loop
        allocates no container per instruction: it appends the pc, and
        the seq (plus address and value) only of nullified instructions,
        taken branches and memory operations.  :meth:`_step` is the
        per-instruction reference this loop must match
        (``tests/isa/test_executor.py``).

        Args:
            truncate_ok: when True, hitting ``max_instructions`` yields a
                truncated trace instead of raising.  Workload generators use
                this deliberately for open-ended kernels.
        """
        program = self.program
        name = program.name
        code = _predecode(program)
        regs = [0] * (NUM_REGS + 1)
        regs[PRED_BASE:NUM_REGS] = [False] * NUM_PRED_REGS
        regs[TRUE_PRED] = True
        for reg, value in self.registers.items():
            regs[reg] = value
        memory = self.memory
        load = memory.get
        # The pc of every dynamic instruction, plus the seqs of the few
        # that are nullified, taken branches or memory operations; the
        # other columns are filled from these after the loop.
        pcs: List[int] = []
        append_pc = pcs.append
        nullified: List[int] = []
        taken_seqs: List[int] = []
        mem_seqs: List[int] = []
        mem_addrs: List[int] = []
        mem_values: list = []
        pc = self.pc
        truncated = False
        for seq in range(self.max_instructions):
            kind, pred, d, a, b, imm, fn = code[pc]
            append_pc(pc)
            if not regs[pred]:
                # Nullified: writes nothing, falls through.
                nullified.append(seq)
                pc += 1
                continue
            if kind == _BIN:
                regs[d] = fn(regs[a], regs[b])
            elif kind == _IMM:
                regs[d] = fn(regs[a], imm)
            elif kind == _LOAD:
                addr = (regs[a] + imm) & _MASK32
                if addr & 3:
                    check_alignment(addr, name)
                value = regs[d] = load(addr, 0)
                mem_seqs.append(seq)
                mem_addrs.append(addr)
                mem_values.append(value)
            elif kind == _BRANCH:
                taken_seqs.append(seq)
                pc = imm
                continue
            elif kind == _STORE:
                addr = (regs[b] + imm) & _MASK32
                value = regs[a]
                if addr & 3:
                    check_alignment(addr, name)
                memory[addr] = value
                mem_seqs.append(seq)
                mem_addrs.append(addr)
                mem_values.append(value)
            elif kind == _CONST:
                regs[d] = imm
            elif kind == _MOVE:
                regs[d] = regs[a]
            elif kind == _UNARY:
                regs[d] = fn(regs[a])
            elif kind == _HALT:
                break
            elif kind == _END:
                raise _fell_off(name, pc)
            pc += 1
        else:
            if pc >= len(program):
                raise _fell_off(name, pc)
            if not truncate_ok:
                raise ExecutionLimitExceeded(
                    f"{name}: exceeded {self.max_instructions} "
                    f"dynamic instructions"
                )
            truncated = True

        n = len(pcs)
        executed = [True] * n
        for seq in nullified:
            executed[seq] = False
        taken = [False] * n
        for seq in taken_seqs:
            taken[seq] = True
        addrs: List[Optional[int]] = [None] * n
        values: list = [None] * n
        for seq, addr, value in zip(mem_seqs, mem_addrs, mem_values):
            addrs[seq] = addr
            values[seq] = value
        # Every executed instance of a writing instruction writes its one
        # destination, so the written set is a function of the static
        # instructions that executed at least once.
        written = {code[p][2] for p in set(compress(pcs, executed))}
        written.discard(_DISCARD)
        registers = self.registers
        for reg in sorted(written):
            registers[reg] = regs[reg]
        self.pc = pc
        # The trace takes the memory over rather than a copy of it: on
        # the largest programs that copy would be a second full data
        # image.  A simulator is run once.
        return Trace(program, pcs, executed, addrs, values, taken,
                     dict(registers), memory, truncated=truncated)

    def step(self, seq: int) -> TraceEntry:
        """Execute the instruction at the current pc and return its entry.

        Single-step interface used by the runtime invariant checker
        (:class:`repro.analysis.invariants.ArchReplay`) to re-execute the
        committed instruction stream independently of the golden trace.
        ``HALT`` yields its trace entry without advancing the pc.
        """
        inst = self.program[self.pc]
        if inst.opcode is Opcode.HALT:
            return TraceEntry(inst, seq, (), ())
        return self._step(inst, seq)

    def _step(self, inst: Instruction, seq: int) -> TraceEntry:
        """Execute one instruction and advance the pc."""
        op = inst.opcode
        pred_true = bool(self.read_reg(inst.pred))
        if not pred_true:
            # Nullified: reads only its predicate, writes nothing, falls
            # through (a nullified branch is not taken).
            self.pc += 1
            srcs = (inst.pred,) if inst.is_predicated else ()
            return TraceEntry(inst, seq, (), srcs, executed=False)

        srcs = inst.read_regs()
        dests = inst.dests
        next_pc = self.pc + 1
        addr: Optional[int] = None
        value: object = None
        taken = False

        if op in _ALU_BINOPS:
            a = self.read_reg(inst.srcs[0])
            b = self.read_reg(inst.srcs[1])
            self.write_reg(dests[0], _ALU_BINOPS[op](a, b))
        elif op in _ALU_IMMOPS:
            a = self.read_reg(inst.srcs[0])
            self.write_reg(dests[0], _ALU_IMMOPS[op](a, inst.imm))
        elif op is Opcode.MOV:
            self.write_reg(dests[0], self.read_reg(inst.srcs[0]))
        elif op is Opcode.MOVI:
            self.write_reg(dests[0], to_int32(inst.imm))
        elif op is Opcode.FMOV:
            self.write_reg(dests[0], self.read_reg(inst.srcs[0]))
        elif op is Opcode.FMOVI:
            self.write_reg(dests[0], float(inst.imm))
        elif op is Opcode.CVTIF:
            self.write_reg(dests[0], float(self.read_reg(inst.srcs[0])))
        elif op is Opcode.CVTFI:
            self.write_reg(dests[0], to_int32(int(self.read_reg(inst.srcs[0]))))
        elif op in (Opcode.LD, Opcode.FLD):
            addr = to_int32(self.read_reg(inst.srcs[0]) + inst.imm) & _MASK32
            value = self.read_mem(addr)
            self.write_reg(dests[0], value)
        elif op in (Opcode.ST, Opcode.FST):
            addr = to_int32(self.read_reg(inst.srcs[1]) + inst.imm) & _MASK32
            value = self.read_reg(inst.srcs[0])
            self.write_mem(addr, value)
        elif op is Opcode.BR:
            taken = True
            next_pc = self.program.target_index(inst)
        elif op is Opcode.JMP:
            taken = True
            next_pc = self.program.target_index(inst)
        elif op in (Opcode.NOP, Opcode.RESTART):
            pass
        else:  # pragma: no cover - opcode table is exhaustive
            raise NotImplementedError(f"unhandled opcode {op}")

        self.pc = next_pc
        return TraceEntry(inst, seq, dests, srcs, addr=addr, value=value,
                          taken=taken)


def _shift_amount(b: int) -> int:
    return b & 31


_ALU_BINOPS = {
    Opcode.ADD: lambda a, b: to_int32(a + b),
    Opcode.SUB: lambda a, b: to_int32(a - b),
    Opcode.AND: lambda a, b: to_int32(a & b),
    Opcode.OR: lambda a, b: to_int32(a | b),
    Opcode.XOR: lambda a, b: to_int32(a ^ b),
    Opcode.SHL: lambda a, b: to_int32(a << _shift_amount(b)),
    Opcode.SHR: lambda a, b: to_int32((a & _MASK32) >> _shift_amount(b)),
    Opcode.CMPEQ: lambda a, b: a == b,
    Opcode.CMPNE: lambda a, b: a != b,
    Opcode.CMPLT: lambda a, b: a < b,
    Opcode.CMPLE: lambda a, b: a <= b,
    Opcode.MUL: lambda a, b: to_int32(a * b),
    Opcode.DIV: lambda a, b: to_int32(_int_div(a, b)),
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: a / b if b else 0.0,
    Opcode.FCMPLT: lambda a, b: a < b,
    Opcode.FCMPLE: lambda a, b: a <= b,
}

_ALU_IMMOPS = {
    Opcode.ADDI: lambda a, i: to_int32(a + i),
    Opcode.SUBI: lambda a, i: to_int32(a - i),
    Opcode.ANDI: lambda a, i: to_int32(a & i),
    Opcode.XORI: lambda a, i: to_int32(a ^ i),
    Opcode.SHLI: lambda a, i: to_int32(a << _shift_amount(i)),
    Opcode.SHRI: lambda a, i: to_int32((a & _MASK32) >> _shift_amount(i)),
    Opcode.CMPEQI: lambda a, i: a == i,
    Opcode.CMPNEI: lambda a, i: a != i,
    Opcode.CMPLTI: lambda a, i: a < i,
    Opcode.CMPLEI: lambda a, i: a <= i,
}


#: Pre-decoded instruction kinds dispatched by :meth:`FunctionalSimulator.run`
#: (``_END`` is the sentinel one past the last instruction).
(_BIN, _IMM, _LOAD, _BRANCH, _STORE, _CONST, _MOVE, _UNARY, _NOP, _HALT,
 _END) = range(11)

#: Flat-register slot that absorbs writes to r0/p0 (never read).
_DISCARD = NUM_REGS

_UNARY_OPS = {
    Opcode.CVTIF: float,
    Opcode.CVTFI: lambda a: to_int32(int(a)),
}

#: Kinds that write their instruction's first destination.
_WRITES = frozenset((_BIN, _IMM, _LOAD, _CONST, _MOVE, _UNARY))


def _predecode(program: Program) -> List[tuple]:
    """One ``(kind, pred, dest, a, b, imm, fn)`` row per static
    instruction, plus an ``_END`` row at ``len(program)``.

    ``a``/``b`` are the source registers the kind reads (for stores, the
    data then the base), ``imm`` the immediate (MOVI/FMOVI already
    converted; the target index for branches) and ``fn`` the ALU
    function.  HALT gets the always-true predicate: it ends the run
    whatever its qualifying predicate.
    """
    code = []
    for inst in program.instructions:
        op = inst.opcode
        srcs = inst.srcs
        pred, a, b, imm, fn = inst.pred, ZERO_REG, ZERO_REG, inst.imm, None
        if op in _ALU_BINOPS:
            kind, a, b, fn = _BIN, srcs[0], srcs[1], _ALU_BINOPS[op]
        elif op in _ALU_IMMOPS:
            kind, a, fn = _IMM, srcs[0], _ALU_IMMOPS[op]
        elif op in (Opcode.LD, Opcode.FLD):
            kind, a = _LOAD, srcs[0]
        elif op in (Opcode.ST, Opcode.FST):
            kind, a, b = _STORE, srcs[0], srcs[1]
        elif op in (Opcode.BR, Opcode.JMP):
            kind, imm = _BRANCH, program.target_index(inst)
        elif op is Opcode.MOVI:
            kind, imm = _CONST, to_int32(imm)
        elif op is Opcode.FMOVI:
            kind, imm = _CONST, float(imm)
        elif op in (Opcode.MOV, Opcode.FMOV):
            kind, a = _MOVE, srcs[0]
        elif op in _UNARY_OPS:
            kind, a, fn = _UNARY, srcs[0], _UNARY_OPS[op]
        elif op in (Opcode.NOP, Opcode.RESTART):
            kind = _NOP
        elif op is Opcode.HALT:
            kind, pred = _HALT, TRUE_PRED
        else:  # pragma: no cover - opcode table is exhaustive
            raise NotImplementedError(f"unhandled opcode {op}")
        dest = _DISCARD
        if kind in _WRITES and inst.dests[0] not in HARDWIRED:
            dest = inst.dests[0]
        code.append((kind, pred, dest, a, b, imm, fn))
    code.append((_END, TRUE_PRED, _DISCARD, ZERO_REG, ZERO_REG, None, None))
    return code


def _fell_off(name: str, pc: int) -> ExecutionLimitExceeded:
    return ExecutionLimitExceeded(
        f"{name}: fell off the end of the program at pc={pc}")


def _int_div(a: int, b: int) -> int:
    """C-style truncating division; divide-by-zero yields zero."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def execute(program: Program, max_instructions: int = 2_000_000,
            truncate_ok: bool = False) -> Trace:
    """Convenience wrapper: run ``program`` and return its golden trace."""
    sim = FunctionalSimulator(program, max_instructions=max_instructions)
    return sim.run(truncate_ok=truncate_ok)
