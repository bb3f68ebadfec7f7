"""Decoded-trace cache: precomputed per-entry hot fields.

The timing cores replay the same :class:`~repro.isa.trace.Trace` tens of
thousands of cycles at a time, and the fields they consult every cycle —
functional-unit class, source/destination register tuples, latency, the
``is_load``/``is_store``/``is_restart`` flags — are properties of the
static instruction (through ``OP_SPECS``) and of the dynamic predicate
outcome.  :class:`DecodedTrace` flattens those fields once per trace into
parallel lists indexed by dynamic sequence number, so the simulation inner
loops become plain list indexing.

Nothing is computed per dynamic instruction: the trace's five dynamic
columns (``pc``, ``executed``, ``addr``, ``value``, ``taken``) are kept
as they are, and every other field is gathered through ``pc`` from a table
built once per static instruction; the fields nullification changes are
then overwritten at the (few) nullified seqs.

The decode is built lazily on first use (``trace.decoded``) and cached on
the :class:`~repro.isa.trace.Trace` instance.  Because the experiment
harness shares one ``Trace`` object per workload across all timing models
(see :class:`~repro.harness.experiment.TraceCache`), a five-model sweep
decodes each workload exactly once, and process-pool workers — which keep
a per-process trace cache — rebuild it once per worker, not per cell.

Everything here is *derived* read-only data: a ``DecodedTrace`` never
changes simulation semantics, it only removes interpretation overhead.
The invariant ``decoded field == per-entry property`` is pinned against
the single-step reference executor by ``tests/isa/test_decoded.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .opcodes import OP_SPECS, FUClass, Opcode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .trace import Trace


class DecodedTrace:
    """Flat parallel lists of per-entry hot fields, indexed by ``seq``.

    Attributes (all lists of length ``n``, shared read-only):
        fu: static :class:`FUClass` of the instruction.
        issue_fu: FU class the entry *occupies* at issue —
            :data:`FUClass.NONE` when predicate-nullified.
        srcs / dests: the dynamic register id tuples of the entry.
        static_dests: the instruction's static destination tuple (used
            by the non-ideal OOO rename path for predicated writes).
        latency: fixed execution latency (loads get theirs from the
            caches at issue time).
        pc: static instruction index in the program.
        stop: EPIC stop bit (issue-group boundary).
        executed / is_load / is_store / is_branch / is_restart:
            the per-entry flags, with the same nullification semantics
            as the ``TraceEntry`` properties.
        mem_exec: ``executed and (is_load or is_store)`` — the guard
            for performing a timed cache access.
        is_predicated: instruction is guarded by a real predicate.
        addr / value / taken: dynamic effective address, value and
            branch outcome.

    ``pc``, ``executed``, ``addr``, ``value`` and ``taken`` are the
    trace's own column lists, not copies.
    """

    __slots__ = ("n", "fu", "issue_fu", "srcs", "dests", "static_dests",
                 "latency", "pc", "stop", "executed", "is_load", "is_store",
                 "is_branch", "is_restart", "mem_exec", "is_predicated",
                 "addr", "value", "taken", "_columns")

    def __init__(self, trace: "Trace"):
        pc = trace.pc
        executed = trace.executed
        self.n = len(pc)
        self.pc = pc
        self.executed = executed
        self.addr = trace.addr
        self.value = trace.value
        self.taken = trace.taken
        # Columnar-kernel column cache (repro.isa.columns), built lazily.
        self._columns = None

        # Per static instruction: every field as it reads when the
        # instruction executes (HALT reads and writes nothing), and the
        # sources of a nullified instance, which reads only its predicate.
        fu, static_dests, latency, stop = [], [], [], []
        is_branch, is_restart, is_predicated = [], [], []
        srcs, dests, is_load, is_store, mem_exec = [], [], [], [], []
        nullified_srcs = []
        for inst in trace.program.instructions:
            opcode = inst.opcode
            spec = OP_SPECS[opcode]
            fu.append(spec.fu)
            static_dests.append(inst.dests)
            latency.append(spec.latency)
            stop.append(inst.stop)
            is_branch.append(spec.is_branch)
            is_restart.append(opcode is Opcode.RESTART)
            is_predicated.append(inst.is_predicated)
            halt = opcode is Opcode.HALT
            srcs.append(() if halt else inst.read_regs())
            dests.append(() if halt else inst.dests)
            is_load.append(spec.is_load)
            is_store.append(spec.is_store)
            mem_exec.append(spec.is_load or spec.is_store)
            nullified_srcs.append((inst.pred,) if inst.is_predicated else ())

        self.fu = _gather(fu, pc)
        self.issue_fu = list(self.fu)
        self.srcs = _gather(srcs, pc)
        self.dests = _gather(dests, pc)
        self.static_dests = _gather(static_dests, pc)
        self.latency = _gather(latency, pc)
        self.stop = _gather(stop, pc)
        self.is_load = _gather(is_load, pc)
        self.is_store = _gather(is_store, pc)
        self.is_branch = _gather(is_branch, pc)
        self.is_restart = _gather(is_restart, pc)
        self.mem_exec = _gather(mem_exec, pc)
        self.is_predicated = _gather(is_predicated, pc)

        # Nullified instances: no unit, no writes, no memory access.
        none_fu = FUClass.NONE
        seq = -1
        try:
            while True:
                seq = executed.index(False, seq + 1)
                self.issue_fu[seq] = none_fu
                self.srcs[seq] = nullified_srcs[pc[seq]]
                self.dests[seq] = ()
                self.is_load[seq] = False
                self.is_store[seq] = False
                self.mem_exec[seq] = False
        except ValueError:
            pass

    def __len__(self) -> int:
        return self.n


def _gather(table: list, index: list) -> list:
    """``[table[i] for i in index]``, without a Python-level loop."""
    return list(map(table.__getitem__, index))
