"""Program verifier: dataflow lint over sealed :class:`Program` objects.

Checks the two static contracts the simulators rely on (PAPER.md §3.3):

* the program is a *legal EPIC program* — labels resolve, branch targets
  are in range and land on issue-group leaders, issue groups respect the
  :class:`~repro.resources.PortModel` and contain no intra-group
  dependences, the memory image is word aligned, every register use has a
  reaching definition and no value is overwritten before use;
* RESTART directives are *legal* — each consumes the destination of a
  load belonging to a critical SCC of the dataflow graph, exactly as
  :func:`repro.compiler.restart.insert_restarts` promises to place them.

The verifier is pure analysis: it never mutates the program.  Use
:func:`verify_program` to collect diagnostics or :func:`assert_valid` to
fail fast (raising :class:`VerifierError`) on the first bad program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..compiler.criticality import find_critical_sccs
from ..compiler.dataflow import build_dataflow_graph
from ..isa.opcodes import Opcode
from ..isa.program import WORD_SIZE, Program
from ..isa.registers import HARDWIRED
from ..resources import PortModel
from . import diagnostics as dc
from .cfg import CFG, build_cfg, no_exit_loops
from .dataflow import LiveVariables, MustDefined
from .diagnostics import Diagnostic, VerifierError


@dataclass(frozen=True)
class VerifyOptions:
    """Knobs for the verifier.

    Attributes:
        ports: issue-port model groups are checked against (must match the
            model the program was scheduled for).
        dominance_ratio: criticality threshold used to re-derive the
            critical SCCs for RESTART legality; must match the compile
            option.
        check_groups: force issue-group checking on/off; ``None`` enables
            it automatically when the program carries group ordinals.
        check_liveness: run the use-before-def / dead-write dataflow.
    """

    ports: PortModel = field(default_factory=PortModel)
    dominance_ratio: float = 2.0
    check_groups: Optional[bool] = None
    check_liveness: bool = True


def verify_program(program: Program,
                   options: Optional[VerifyOptions] = None
                   ) -> List[Diagnostic]:
    """Run every lint rule over ``program`` and return the findings."""
    options = options or VerifyOptions()
    out: List[Diagnostic] = []

    _check_labels(program, out)
    _check_memory_image(program, out)
    if dc.errors(out):
        # Broken labels make the CFG unbuildable; stop at structural lints.
        return out

    cfg = build_cfg(program)
    reachable = _reachable_indices(program, cfg, out)
    _check_loops(cfg, out)
    if options.check_liveness:
        _check_use_before_def(program, cfg, reachable, out)
        _check_dead_writes(program, cfg, out)
    _check_restarts(program, options, out)

    grouped = any(inst.group >= 0 for inst in program)
    check_groups = (grouped if options.check_groups is None
                    else options.check_groups)
    if check_groups:
        _check_issue_groups(program, options.ports, out)
    return out


def assert_valid(program: Program,
                 options: Optional[VerifyOptions] = None,
                 compiled: bool = False) -> None:
    """Raise :class:`VerifierError` if ``program`` has ERROR diagnostics.

    ``compiled=True`` additionally forces issue-group legality checks
    (use it for post-compilation programs).
    """
    verify = verify_compiled if compiled else verify_program
    found = dc.errors(verify(program, options))
    if found:
        raise VerifierError(program.name, found)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def _check_labels(program: Program, out: List[Diagnostic]) -> None:
    n = len(program)
    for label, idx in program.labels.items():
        if not isinstance(idx, int) or not 0 <= idx <= n:
            out.append(Diagnostic(
                dc.LBL003, f"label {label!r} index {idx!r} outside "
                f"[0, {n}]"))
    for inst in program:
        if not inst.is_branch:
            continue
        target = inst.target
        if target is None or target not in program.labels:
            out.append(Diagnostic(
                dc.LBL001, f"branch targets unknown label {target!r}",
                inst.index))
        elif program.labels[target] >= n:
            out.append(Diagnostic(
                dc.LBL002, f"branch targets label {target!r} which points "
                f"past the end of the program "
                f"(index {program.labels[target]} of {n})", inst.index))


def _check_memory_image(program: Program, out: List[Diagnostic]) -> None:
    # Scan every address but sort only the offenders: a workload image
    # holds up to ~10^5 words and normally none is misaligned.
    misaligned = [addr for addr in program.memory_image
                  if addr % WORD_SIZE != 0]
    for addr in sorted(misaligned):
        out.append(Diagnostic(
            dc.MEM001,
            f"memory-image address {addr:#x} is not {WORD_SIZE}-byte "
            f"aligned"))


def _reachable_indices(program: Program, cfg: CFG,
                       out: List[Diagnostic]) -> Set[int]:
    """CFG reachability from the entry; unreachable code is linted."""
    if not len(cfg):
        return set()
    reachable: Set[int] = set()
    for bid in cfg.reachable_blocks():
        reachable.update(cfg.blocks[bid].indices())
    for inst in program:
        if inst.index not in reachable:
            out.append(Diagnostic(
                dc.UNR001, "instruction is unreachable from the entry",
                inst.index))
    return reachable


def _check_loops(cfg: CFG, out: List[Diagnostic]) -> None:
    """Flag reachable loops with no exit path (``CFG001``)."""
    for loop in no_exit_loops(cfg):
        anchor = cfg.blocks[min(loop.headers or loop.blocks)].start
        members = ", ".join(str(b) for b in loop.blocks)
        out.append(Diagnostic(
            dc.CFG001,
            f"loop over block(s) {{{members}}} has no exit path: once "
            f"entered the program can never halt", anchor))


# ---------------------------------------------------------------------------
# register liveness
# ---------------------------------------------------------------------------

def _check_use_before_def(program: Program, cfg: CFG, reachable: Set[int],
                          out: List[Diagnostic]) -> None:
    """Must-define forward dataflow: every use needs a reaching def.

    A predicated definition counts as a definition (the compiler
    guarantees a same-guard producer on the nullified path or the value
    is dead there); hardwired registers are always defined.  Unreachable
    blocks keep the optimistic "everything defined" value and emit
    nothing (``UNR001`` already covers them).
    """
    if not len(cfg):
        return
    solution = MustDefined(program, cfg).solve()
    for block in cfg:
        defined = set(solution.in_of[block.bid])
        for idx in block.indices():
            if idx not in reachable:
                continue
            inst = program[idx]
            for reg in dict.fromkeys(inst.read_regs()):
                if reg in HARDWIRED or reg in defined:
                    continue
                out.append(Diagnostic(
                    dc.UBD001,
                    f"register {reg} may be read before any definition "
                    f"reaches it", idx))
            defined.update(d for d in inst.dests if d not in HARDWIRED)


def _check_dead_writes(program: Program, cfg: CFG,
                       out: List[Diagnostic]) -> None:
    """Backward liveness: flag writes overwritten before use on all paths.

    Every register is observable in the final architectural state, so
    blocks without successors treat all registers as live-out; only a
    write that is *redefined* before any use on every path is dead.
    Predicated writes never kill liveness (they may not execute).
    """
    if not len(cfg):
        return
    solution = LiveVariables(program, cfg).solve()
    for block in cfg:
        live = set(solution.out_of[block.bid])
        for idx in reversed(block.indices()):
            inst = program[idx]
            for dest in inst.dests:
                if dest in HARDWIRED:
                    continue
                if dest not in live:
                    out.append(Diagnostic(
                        dc.DWR001,
                        f"value written to register {dest} is overwritten "
                        f"before any use", idx))
            if not inst.is_predicated:
                live.difference_update(
                    d for d in inst.dests if d not in HARDWIRED)
            live.update(r for r in inst.read_regs() if r not in HARDWIRED)


# ---------------------------------------------------------------------------
# RESTART legality (paper Section 3.3)
# ---------------------------------------------------------------------------

def _check_restarts(program: Program, options: VerifyOptions,
                    out: List[Diagnostic]) -> None:
    restarts = [inst for inst in program
                if inst.opcode is Opcode.RESTART]
    if not restarts:
        return
    graph = build_dataflow_graph(program)
    critical_loads: Set[int] = set()
    for scc in find_critical_sccs(program, graph,
                                  dominance_ratio=options.dominance_ratio):
        critical_loads.update(scc.loads)

    for inst in restarts:
        if len(inst.srcs) != 1 or inst.dests:
            out.append(Diagnostic(
                dc.RST002,
                f"RESTART must consume exactly one register and write "
                f"none (has {len(inst.srcs)} sources, "
                f"{len(inst.dests)} destinations)", inst.index))
            continue
        producers = graph.preds.get(inst.index, set())
        if not producers:
            out.append(Diagnostic(
                dc.RST001,
                f"orphan RESTART: no definition of register "
                f"{inst.srcs[0]} reaches it", inst.index))
            continue
        non_loads = sorted(p for p in producers if not program[p].is_load)
        if non_loads:
            out.append(Diagnostic(
                dc.RST001,
                f"orphan RESTART: operand register {inst.srcs[0]} is "
                f"produced by non-load instruction(s) at {non_loads}",
                inst.index))
            continue
        uncritical = sorted(p for p in producers
                            if p not in critical_loads)
        if uncritical:
            out.append(Diagnostic(
                dc.RST003,
                f"RESTART consumes load(s) at {uncritical} outside any "
                f"critical SCC (dominance ratio "
                f"{options.dominance_ratio})", inst.index))

    # Redundant slots: insert_restarts() promises at most one RESTART
    # per covered load, so a load destination feeding a second RESTART
    # wastes an issue slot without adding coverage.
    consumers_of_load: Dict[int, List[int]] = {}
    for inst in restarts:
        for producer in sorted(graph.preds.get(inst.index, set())):
            if program[producer].is_load:
                consumers_of_load.setdefault(producer, []).append(
                    inst.index)
    redundant_for: Dict[int, Set[int]] = {}
    for load_idx, consumer_list in consumers_of_load.items():
        for extra in sorted(consumer_list)[1:]:
            redundant_for.setdefault(extra, set()).add(load_idx)
    for inst in restarts:
        producers = {p for p in graph.preds.get(inst.index, set())
                     if program[p].is_load}
        if producers and producers <= redundant_for.get(inst.index,
                                                        set()):
            covered = sorted(producers)
            out.append(Diagnostic(
                dc.RST004,
                f"redundant RESTART: load(s) at {covered} already feed "
                f"an earlier RESTART slot", inst.index))


# ---------------------------------------------------------------------------
# issue-group legality (Itanium-style dispersal rules)
# ---------------------------------------------------------------------------

def _check_issue_groups(program: Program, ports: PortModel,
                        out: List[Diagnostic]) -> None:
    n = len(program)
    if n == 0:
        return

    prev_group = -1
    for inst in program:
        if inst.group < 0:
            out.append(Diagnostic(
                dc.GRP003, "instruction has no issue-group ordinal in a "
                "grouped program", inst.index))
            return
        if inst.group < prev_group:
            out.append(Diagnostic(
                dc.GRP003,
                f"issue-group ordinals decrease ({prev_group} -> "
                f"{inst.group})", inst.index))
            return
        prev_group = inst.group

    # Stop bits must mark exactly the group boundaries.
    for i, inst in enumerate(program):
        boundary = (i == n - 1) or (program[i + 1].group != inst.group)
        if inst.stop != boundary:
            what = ("missing stop bit at group boundary" if boundary
                    else "stop bit inside an issue group")
            out.append(Diagnostic(dc.GRP003, what, i))

    # Branches and HALT close their group; branch targets lead a group.
    for inst in program:
        if (inst.is_branch or inst.opcode is Opcode.HALT) and not inst.stop:
            out.append(Diagnostic(
                dc.GRP003, "branch/HALT does not end its issue group",
                inst.index))
        if inst.is_branch and inst.target in program.labels:
            target = program.labels[inst.target]
            if 0 < target < n and not program[target - 1].stop:
                out.append(Diagnostic(
                    dc.GRP003,
                    f"branch target index {target} is not an issue-group "
                    f"leader", inst.index))

    # Per-group port capacity and intra-group dependences.
    tracker = ports.new_tracker()
    written: Set[int] = set()
    store_seen = False
    group = program[0].group
    for inst in program:
        if inst.group != group:
            tracker.reset()
            written = set()
            store_seen = False
            group = inst.group
        if not tracker.can_issue(inst.spec.fu):
            out.append(Diagnostic(
                dc.GRP001,
                f"group {group} exceeds port capacity at a "
                f"{inst.spec.fu.value} instruction", inst.index))
            tracker.reset()  # keep scanning from a fresh cycle
        tracker.issue(inst.spec.fu)
        reads = {r for r in inst.read_regs() if r not in HARDWIRED}
        writes = {d for d in inst.dests if d not in HARDWIRED}
        raw = reads & written
        waw = writes & written
        if raw or waw:
            kind = "RAW" if raw else "WAW"
            regs = sorted(raw or waw)
            out.append(Diagnostic(
                dc.GRP002,
                f"intra-group {kind} dependence on register(s) {regs} "
                f"in group {group}", inst.index))
        if inst.is_load and store_seen:
            out.append(Diagnostic(
                dc.GRP002,
                f"load follows a store inside group {group} "
                f"(conservative aliasing)", inst.index))
        written |= writes
        store_seen = store_seen or inst.is_store


def verify_compiled(program: Program,
                    options: Optional[VerifyOptions] = None
                    ) -> List[Diagnostic]:
    """Verify a post-compilation program, forcing issue-group checks."""
    options = options or VerifyOptions()
    return verify_program(
        program, VerifyOptions(ports=options.ports,
                               dominance_ratio=options.dominance_ratio,
                               check_groups=True,
                               check_liveness=options.check_liveness))
