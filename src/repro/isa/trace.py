"""Dynamic-trace representation consumed by all timing models.

The reproduction is *trace driven*: the functional simulator executes a
program once (the golden run) and records, per retired instruction, its
static instruction index, whether its predicate let it execute, its
effective address, the value it loaded or stored and its branch outcome.
A :class:`Trace` holds those five dynamic columns; everything else timing
needs (register dependences, latencies, unit classes) is a function of the
static instruction and is gathered into the decoded cache
(:mod:`repro.isa.decoded`).  Timing models (in-order, multipass, runahead,
out-of-order) replay the decoded columns.  Replaying the architected path
is the standard trace-driven approximation; wrong-path effects of advance
execution are modelled by the cores themselves (see
:mod:`repro.multipass.core`).

:class:`TraceEntry` objects — one per dynamic instruction — are built on
first access to :attr:`Trace.entries`, for the scalar reference loops, the
``--check`` replay, the exporters and the analysis code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .instruction import Instruction
from .opcodes import FUClass, Opcode
from .program import Program


class TraceEntry:
    """One dynamically retired instruction.

    Attributes:
        inst: the static instruction.
        seq: dynamic sequence number (position in the trace).
        dests: registers actually written (empty when predicated off).
        srcs: registers actually read, including the qualifying predicate.
        addr: effective byte address for executed memory operations.
        value: value loaded (loads) or stored (stores).
        taken: branch outcome (branches only).
        executed: False when the qualifying predicate nullified the
            instruction; nullified instructions occupy issue slots but have
            no dataflow effects beyond reading their predicate.
    """

    __slots__ = ("inst", "seq", "dests", "srcs", "addr", "value", "taken",
                 "executed")

    def __init__(self, inst: Instruction, seq: int,
                 dests: Tuple[int, ...], srcs: Tuple[int, ...],
                 addr: Optional[int] = None, value: object = None,
                 taken: bool = False, executed: bool = True):
        self.inst = inst
        self.seq = seq
        self.dests = dests
        self.srcs = srcs
        self.addr = addr
        self.value = value
        self.taken = taken
        self.executed = executed

    @property
    def is_load(self) -> bool:
        return self.executed and self.inst.spec.is_load

    @property
    def is_store(self) -> bool:
        return self.executed and self.inst.spec.is_store

    @property
    def is_branch(self) -> bool:
        return self.inst.spec.is_branch

    @property
    def is_restart(self) -> bool:
        return self.inst.opcode is Opcode.RESTART

    @property
    def latency(self) -> int:
        """Fixed execution latency; loads get theirs from the caches."""
        return self.inst.spec.latency

    @property
    def fu(self) -> FUClass:
        return self.inst.spec.fu

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "" if self.executed else " [nullified]"
        return f"<#{self.seq} {self.inst.render()}{tag}>"


class Trace:
    """A complete golden-run trace plus final architectural state.

    Attributes:
        program: the executed program.
        pc / executed / addr / value / taken: the dynamic columns, one
            item per dynamic instruction (``seq``): static instruction
            index, predicate outcome, effective address and value of an
            executed load or store (else ``None``), branch outcome.
        final_registers: registers written by the run (never r0/p0).
        final_memory: the data memory at the end of the run.
        truncated: the run stopped at ``max_instructions``.
    """

    def __init__(self, program: Program, pc: List[int],
                 executed: List[bool], addr: List[Optional[int]],
                 value: List[object], taken: List[bool],
                 final_registers: Dict[int, object],
                 final_memory: Dict[int, object],
                 truncated: bool = False):
        self.program = program
        self.pc = pc
        self.executed = executed
        self.addr = addr
        self.value = value
        self.taken = taken
        self.final_registers = final_registers
        self.final_memory = final_memory
        self.truncated = truncated
        self._decoded = None
        self._entries: Optional[List[TraceEntry]] = None

    @property
    def decoded(self):
        """Decoded-trace cache (flat per-entry hot fields), built lazily.

        Shared read-only by every timing core replaying this trace; the
        harness' per-workload trace cache therefore amortizes one decode
        across a whole model sweep.
        """
        if self._decoded is None:
            from .decoded import DecodedTrace
            self._decoded = DecodedTrace(self)
        return self._decoded

    @property
    def entries(self) -> List[TraceEntry]:
        """One :class:`TraceEntry` per dynamic instruction, built on first
        access from the decoded columns (the production kernels never
        touch it)."""
        if self._entries is None:
            dec = self.decoded
            insts = self.program.instructions
            self._entries = list(map(
                TraceEntry, map(insts.__getitem__, dec.pc), range(dec.n),
                dec.dests, dec.srcs, dec.addr, dec.value, dec.taken,
                dec.executed))
        return self._entries

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx: int) -> TraceEntry:
        return self.entries[idx]

    def dynamic_counts(self) -> Dict[str, int]:
        """Summary counts by instruction kind (for workload inspection)."""
        dec = self.decoded
        return {"total": dec.n, "loads": sum(dec.is_load),
                "stores": sum(dec.is_store),
                "branches": sum(dec.is_branch),
                "fp": dec.fu.count(FUClass.FP),
                "muldiv": dec.fu.count(FUClass.MULDIV),
                "nullified": dec.n - sum(dec.executed),
                "restarts": sum(dec.is_restart)}
