"""Static instruction scheduling: block-local reordering and issue grouping.

Two passes:

* :func:`list_schedule` — a classic critical-path list scheduler that
  reorders instructions *within* basic blocks subject to register and
  (conservative) memory dependences, emulating the aggressive acyclic
  scheduling the paper's OpenIMPACT compiler performs.
* :func:`form_issue_groups` — assigns EPIC stop bits / group ordinals.
  A group is a run of mutually independent instructions that fits the
  :class:`~repro.resources.PortModel`; the in-order pipeline attempts to
  issue one group per cycle.

Both passes preserve program semantics; tests verify the golden trace of
the scheduled program matches the original's architectural results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Set

from ..isa.opcodes import Opcode
from ..isa.program import Program
from ..isa.registers import HARDWIRED
from ..resources import PortModel
from .cfg import build_cfg

_CONTROL_OPS = (Opcode.BR, Opcode.JMP, Opcode.HALT)


def _block_dependence_dag(program: Program, indices: range
                          ) -> Dict[int, Set[int]]:
    """Edges ``pred -> succ`` among the instructions of one block.

    Register RAW/WAR/WAW edges, conservative memory ordering (loads may
    reorder with loads; stores order with everything), RESTART pinned after
    its most recent producer, control ops pinned last.
    """
    preds: Dict[int, Set[int]] = {i: set() for i in indices}
    last_writer: Dict[int, int] = {}
    readers_since_write: Dict[int, List[int]] = {}
    last_store = None
    mem_ops_since_store: List[int] = []
    prior = []
    for idx in indices:
        inst = program[idx]
        reads = [r for r in inst.read_regs() if r not in HARDWIRED]
        writes = [r for r in inst.dests if r not in HARDWIRED]
        for reg in reads:
            if reg in last_writer:
                preds[idx].add(last_writer[reg])
            readers_since_write.setdefault(reg, []).append(idx)
        for reg in writes:
            if reg in last_writer:
                preds[idx].add(last_writer[reg])        # WAW
            for reader in readers_since_write.get(reg, ()):
                if reader != idx:
                    preds[idx].add(reader)              # WAR
            last_writer[reg] = idx
            readers_since_write[reg] = []
        if inst.is_store:
            for mem_idx in mem_ops_since_store:
                preds[idx].add(mem_idx)
            if last_store is not None:
                preds[idx].add(last_store)
            last_store = idx
            mem_ops_since_store = []
        elif inst.is_load:
            if last_store is not None:
                preds[idx].add(last_store)
            mem_ops_since_store.append(idx)
        if inst.opcode in _CONTROL_OPS:
            for p in prior:
                preds[idx].add(p)
        prior.append(idx)
    return preds


def _priorities(program: Program, indices: range,
                preds: Dict[int, Set[int]]) -> Dict[int, int]:
    """Critical-path height of each instruction (longest latency to exit)."""
    succs: Dict[int, List[int]] = {i: [] for i in indices}
    for idx, pset in preds.items():
        for p in pset:
            succs[p].append(idx)
    height: Dict[int, int] = {}
    for idx in reversed(indices):
        latency = program[idx].spec.latency
        below = max((height[s] for s in succs[idx]), default=0)
        height[idx] = latency + below
    return height


def list_schedule(program: Program, ports: PortModel = PortModel()
                  ) -> Program:
    """Reorder instructions within each basic block by critical path."""
    cfg = build_cfg(program)
    new_order: List[int] = []
    for block in cfg:
        indices = block.indices()
        preds = _block_dependence_dag(program, indices)
        height = _priorities(program, indices, preds)
        remaining_preds = {i: set(p) for i, p in preds.items()}
        unscheduled = set(indices)
        ready = [i for i in indices if not remaining_preds[i]]
        scheduled: List[int] = []
        tracker = ports.new_tracker()
        while unscheduled:
            # Pick the highest instruction that fits this "cycle"; fall
            # back to a fresh cycle when ports are exhausted.
            ready.sort(key=lambda i: (-height[i], i))
            if not ready:
                raise RuntimeError(
                    f"{program.name}: scheduler wedged; dependence DAG "
                    f"is cyclic within a block"
                )
            chosen = None
            for idx in ready:
                if tracker.can_issue(program[idx].spec.fu):
                    chosen = idx
                    break
            if chosen is None:
                tracker.reset()
                continue
            tracker.issue(program[chosen].spec.fu)
            ready.remove(chosen)
            scheduled.append(chosen)
            unscheduled.discard(chosen)
            for idx in indices:
                if idx in unscheduled and chosen in remaining_preds[idx]:
                    remaining_preds[idx].discard(chosen)
                    if not remaining_preds[idx] and idx not in ready:
                        ready.append(idx)
        new_order.extend(scheduled)

    old_to_new = {old: new for new, old in enumerate(new_order)}
    instructions = [replace(program[old]) for old in new_order]
    labels = {}
    block_starts = {b.start: b for b in cfg}
    for label, idx in program.labels.items():
        if idx >= len(program):
            labels[label] = len(instructions)
        elif idx in block_starts:
            # A block's first scheduled instruction keeps the label.
            block = block_starts[idx]
            first = min(block.indices(), key=lambda i: old_to_new[i],
                        default=idx)
            labels[label] = old_to_new[first] if len(block) else idx
        else:
            labels[label] = old_to_new[idx]
    return program.derive(instructions, labels)


def form_issue_groups(program: Program, ports: PortModel = PortModel()
                      ) -> Program:
    """Assign stop bits and group ordinals without reordering.

    A new group starts when the next instruction (a) depends on a value
    produced in the current group, (b) writes a register written in the
    current group, (c) is a load following a store in the group
    (conservative aliasing), (d) does not fit the port model, or (e) is a
    branch target.  Branches close their group.
    """
    cfg = build_cfg(program)
    block_start = {b.start for b in cfg}

    instructions = [replace(inst) for inst in program]
    group = 0
    written: Set[int] = set()
    store_in_group = False
    tracker = ports.new_tracker()

    def close_group(last_index: int) -> None:
        nonlocal group, written, store_in_group
        if last_index >= 0:
            instructions[last_index].stop = True
        group += 1
        written = set()
        store_in_group = False
        tracker.reset()

    for i, inst in enumerate(instructions):
        reads = set(r for r in inst.read_regs() if r not in HARDWIRED)
        writes = set(d for d in inst.dests if d not in HARDWIRED)
        needs_break = (
            (i in block_start and i > 0)
            or bool(reads & written)
            or bool(writes & written)
            or (inst.is_load and store_in_group)
            or not tracker.can_issue(inst.spec.fu)
        )
        if needs_break and i > 0:
            close_group(i - 1)
        tracker.issue(inst.spec.fu)
        inst.group = group
        written |= writes
        store_in_group = store_in_group or inst.is_store
        if inst.is_branch or inst.opcode is Opcode.HALT:
            close_group(i)
    if instructions:
        instructions[-1].stop = True

    return program.derive(instructions, dict(program.labels))
