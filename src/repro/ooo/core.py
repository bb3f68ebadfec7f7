"""Out-of-order execution models.

Two variants, both trace driven:

* **Ideal OOO** (Figure 6's ``OOO``): an idealized dynamically scheduled
  machine per Section 5.1 — scheduling and register-file read both happen
  in the REG stage (no speculative wakeup), the register renamer is ideal
  (predication included), the 128-entry scheduling window deallocates at
  issue, and instructions retire through a 256-entry reorder buffer.  The
  only extra costs modelled are the three additional scheduling/renaming
  stages, charged on every branch-misprediction refill.
* **Realistic OOO** (Section 5.2's comparison point): identical, except
  dynamic scheduling uses three decentralized 16-entry issue queues
  (memory, integer, floating point).  A full queue blocks dispatch in
  order, which throttles how far ahead the machine can look during a long
  miss — the reason multipass outperforms it.

Stall attribution follows the paper: a cycle with no instruction execution
is charged to the stall cause of the oldest in-flight instruction, or to
the front end when the instruction queue is empty.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from ..isa.registers import NUM_REGS
from ..isa.trace import Trace, TraceEntry
from ..machine import MachineConfig
from ..pipeline.base import BaseCore
from ..pipeline.stats import SimStats, StallCategory
from ..resources import QUEUE_CODE
from .columnar import run_columnar

#: Sentinel wake-up target meaning "no in-flight completion at all".
_INF = 1 << 62


class _RobEntry:
    """One in-flight instruction."""

    __slots__ = ("entry", "seq", "producers", "issued", "ready",
                 "is_load_wait", "blocked_on")

    def __init__(self, entry: TraceEntry, producers):
        self.entry = entry
        self.seq = entry.seq
        self.producers = producers   # seqs of in-flight producers
        self.issued = False
        self.ready = -1              # result-available cycle once issued
        self.is_load_wait = False
        self.blocked_on = None       # cached not-yet-ready producer seq


class OutOfOrderCore(BaseCore):
    """Dataflow-scheduled core with a ROB and (de)centralized windows."""

    model_name = "ooo"

    def __init__(self, trace: Trace, config: Optional[MachineConfig] = None,
                 decentralized_queues: Optional[int] = None,
                 ideal: bool = True, check: bool = False, tracer=None,
                 slow: bool = False):
        config = config or MachineConfig()
        # The deeper OOO pipe pays its extra stages on every refill.
        config = replace(
            config,
            mispredict_penalty=(config.mispredict_penalty
                                + config.ooo_extra_stages),
        )
        super().__init__(trace, config, config.ooo_rob, check=check,
                         tracer=tracer, slow=slow)
        self._tracker = config.ports.new_tracker()
        self.decentralized_queues = decentralized_queues
        #: The Section 5.1 idealizations: the ideal model performs
        #: scheduling and register-file read in the REG stage (no
        #: speculative-wakeup bubble) and renames predicates ideally.
        #: The realistic model pays one wakeup-loop cycle between
        #: dependent instructions and treats a qualifying predicate as a
        #: data dependence on both the predicate and the destination's
        #: prior value (conventional handling of predicated code [24]).
        self.ideal = ideal
        self.wakeup_delay = 0 if ideal else 1

    # ------------------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> SimStats:
        """Run the columnar kernel, or the scalar loop under ``--slow``.

        The event-driven columnar kernel (:mod:`repro.ooo.columnar`) is
        the production path, untraced or recording into a
        :class:`~repro.telemetry.timeline.Timeline`.  The scalar loop
        below steps every cycle and is the bit-identity reference;
        ``slow=True`` is the only way to run it.  Both paths support
        ``--check`` replay.  ``max_cycles`` defaults to
        :meth:`~repro.pipeline.base.BaseCore.cycle_budget`.
        """
        if max_cycles is None:
            max_cycles = self.cycle_budget()
        if self.slow:
            return self._run_scalar(max_cycles)
        return run_columnar(self, max_cycles)

    def _run_scalar(self, max_cycles: int) -> SimStats:
        trace = self.trace
        entries = trace.entries
        dec = trace.decoded
        n = dec.n
        d_ifu = dec.issue_fu
        d_srcs = dec.srcs
        d_dests = dec.dests
        d_sdests = dec.static_dests
        d_pred = dec.is_predicated
        d_lat = dec.latency
        d_mem = dec.mem_exec
        d_load = dec.is_load
        d_addr = dec.addr
        d_branch = dec.is_branch
        d_taken = dec.taken
        d_pc = dec.pc
        config = self.config
        frontend = self.frontend
        window = config.ooo_window
        rob_capacity = config.ooo_rob
        width = config.ports.width
        stats = self.stats
        counters = stats.counters
        access = self.hierarchy.access
        wakeup_delay = self.wakeup_delay
        merge_dests = not self.ideal
        # Issue ports: the scan below breaks at ``issued >= width``, so
        # only the tracker's per-class budgets ever refuse an issue.
        tracker = self._tracker
        EXECUTION = StallCategory.EXECUTION
        FRONT_END = StallCategory.FRONT_END
        LOAD = StallCategory.LOAD
        # Cycle-category tallies kept in locals (one add per cycle
        # instead of a method call + enum-keyed dict update); flushed
        # into stats.cycle_breakdown after the loop.
        c_exec = c_fe = c_load = c_other = 0

        tel = self.tracer
        replay = self.replay
        rob: List[_RobEntry] = []         # in seq order
        waiting: List[_RobEntry] = []     # un-issued entries, in seq order
        # seq -> result-available cycle; 0 means "not issued yet" (real
        # availability cycles are >= 1, as in the register scoreboards).
        value_ready = [0] * n
        # reg -> last producing seq (-1: none); writer_is_load is only
        # consulted while last_writer points at its seq, so stale slots
        # are harmless.
        last_writer = [-1] * NUM_REGS
        writer_is_load = [False] * NUM_REGS
        dispatch_ptr = 0
        commit_ptr = 0                    # next seq to commit
        now = 0
        queue_cap = self.decentralized_queues
        queue_fill = [0, 0, 0]            # indexed by QUEUE_CODE
        # A zero-issue scan over an unchanged window is a pure poll: its
        # outcome cannot change until the earliest blocking producer
        # completes (a squash needs an issue, and newly dispatched
        # entries join at the tail without unblocking older ones), so
        # the known-blocked prefix is not re-scanned until then — only
        # the tail positions added by dispatch.  This is a CPU-time
        # optimization only; no simulated state is touched by an elided
        # visit, and blocked_on caches are refreshed at the next full
        # scan.
        scan_sleep_until = 0
        blocked_prefix = 0            # leading waiting slots known blocked

        while commit_ptr < n:
            if now > max_cycles:
                self.check_cycle_budget(now, max_cycles)
            # tick() is a no-op once the whole trace is fetched (its
            # limit clamps to n); a squash rolls fetched_until back, so
            # the guard re-arms itself after redirects.
            if frontend.fetched_until < n:
                frontend.tick(now, commit_ptr)

            # ---- dispatch (rename) ------------------------------------
            dispatched = 0
            fetched_until = frontend.fetched_until
            while (dispatched < width
                   and dispatch_ptr < fetched_until
                   and len(rob) < rob_capacity):
                seq = dispatch_ptr
                fu = d_ifu[seq]
                if queue_cap is not None:
                    queue = QUEUE_CODE[fu]
                    if queue_fill[queue] >= queue_cap:
                        break             # in-order dispatch blocks
                    queue_fill[queue] += 1
                producers = {}
                for src in d_srcs[seq]:
                    pseq = last_writer[src]
                    if pseq >= 0:
                        r = value_ready[pseq]
                        if r == 0 or r > now:
                            producers[pseq] = writer_is_load[src]
                if merge_dests and d_pred[seq]:
                    # Without predicate renaming, a predicated write must
                    # merge with the destination's previous value.
                    dest_iter = d_sdests[seq]
                    for dest in dest_iter:
                        pseq = last_writer[dest]
                        if pseq >= 0:
                            r = value_ready[pseq]
                            if r == 0 or r > now:
                                producers[pseq] = writer_is_load[dest]
                else:
                    dest_iter = d_dests[seq]
                is_load = d_load[seq]
                for dest in dest_iter:
                    last_writer[dest] = seq
                    writer_is_load[dest] = is_load
                rob_entry = _RobEntry(entries[seq], producers)
                rob.append(rob_entry)
                waiting.append(rob_entry)
                dispatch_ptr += 1
                dispatched += 1

            # ---- issue (dataflow select) ------------------------------
            issued = 0
            squash_after = None
            scanned = 0 if now >= scan_sleep_until else blocked_prefix
            limit = len(waiting)
            if limit > window:
                limit = window
            if scanned < limit:
                full_scan = scanned == 0
                tracker.reset()
                retry_min = _INF
                while scanned < limit:
                    rob_entry = waiting[scanned]
                    scanned += 1
                    seq = rob_entry.seq
                    # Re-check the cached blocking producer first.
                    blocked = rob_entry.blocked_on
                    if blocked is not None:
                        r = value_ready[blocked]
                        if r == 0 or r > now:
                            if 0 < r < retry_min:
                                retry_min = r
                            continue
                        rob_entry.blocked_on = None
                    for pseq in rob_entry.producers:
                        r = value_ready[pseq]
                        if r == 0 or r > now:
                            rob_entry.blocked_on = pseq
                            if 0 < r < retry_min:
                                retry_min = r
                            break
                    if rob_entry.blocked_on is not None:
                        continue
                    fu = d_ifu[seq]
                    if not tracker.can_issue(fu):
                        continue
                    tracker.issue(fu)
                    latency = d_lat[seq]
                    rob_entry.is_load_wait = False
                    if d_mem[seq]:
                        if d_load[seq]:
                            result = access(d_addr[seq], now)
                            latency = result.latency
                            rob_entry.is_load_wait = result.l1_miss
                            counters["loads_issued"] += 1
                            if result.l1_miss:
                                counters["l1d_load_misses"] += 1
                                if tel is not None:
                                    tel.cache_miss(now, seq, result.level)
                        else:
                            access(d_addr[seq], now, kind="store")
                    if tel is not None:
                        tel.issue(now, seq)
                    rob_entry.issued = True
                    ready = now + latency
                    rob_entry.ready = ready
                    value_ready[seq] = ready + wakeup_delay
                    if queue_cap is not None:
                        queue_fill[QUEUE_CODE[d_ifu[seq]]] -= 1
                    issued += 1
                    if d_branch[seq] and frontend.resolve(
                            seq, d_pc[seq], d_taken[seq], now):
                        counters["mispredicts"] += 1
                        squash_after = seq
                        break
                    if issued >= width:
                        break
                if issued:
                    # Only now has the waiting list actually changed.
                    # Issued entries live in the scanned prefix, so only
                    # that slice needs filtering — the (often much
                    # longer) unscanned tail shifts down in C.
                    waiting[:scanned] = [
                        e for e in waiting[:scanned] if not e.issued]
                    scan_sleep_until = 0
                    blocked_prefix = 0
                else:
                    # Nothing issuable: this window can only change when
                    # a blocking producer completes (retry_min) or a
                    # squash occurs (impossible without an issue); newly
                    # dispatched tail entries get their own partial scan.
                    if not full_scan and scan_sleep_until < retry_min:
                        retry_min = scan_sleep_until
                    scan_sleep_until = retry_min
                    blocked_prefix = limit

            if squash_after is not None:
                # Squash wrong-path work younger than the branch.
                kept = []
                for rob_entry in rob:
                    if rob_entry.seq <= squash_after:
                        kept.append(rob_entry)
                        continue
                    if queue_cap is not None and not rob_entry.issued:
                        queue_fill[QUEUE_CODE[d_ifu[rob_entry.seq]]] -= 1
                    value_ready[rob_entry.seq] = 0
                rob = kept
                waiting = [e for e in waiting if e.seq <= squash_after]
                dispatch_ptr = squash_after + 1
                for reg in range(NUM_REGS):
                    if last_writer[reg] > squash_after:
                        last_writer[reg] = -1

            # ---- commit ------------------------------------------------
            committed = 0
            while rob and committed < width:
                head = rob[0]
                if not head.issued or head.ready > now:
                    break
                del rob[0]
                commit_ptr = head.seq + 1
                stats.instructions += 1
                if tel is not None:
                    self.commit_entry(head.entry, now)
                elif replay is not None:
                    replay.commit(head.entry)
                committed += 1

            # ---- attribution -------------------------------------------
            if issued:
                c_exec += 1
                if tel is not None:
                    tel.charge(now, EXECUTION)
            elif not rob:
                c_fe += 1
                if tel is not None:
                    has_blocked = dispatch_ptr < n
                    tel.charge(now, FRONT_END,
                               seq=dispatch_ptr if has_blocked else -1,
                               pc=d_pc[dispatch_ptr] if has_blocked else -1)
            else:
                cause = self._oldest_stall_cause(rob, now, value_ready)
                if cause is LOAD:
                    c_load += 1
                else:
                    c_other += 1
                if tel is not None:
                    head = rob[0]
                    tel.charge(now, cause, seq=head.seq,
                               pc=d_pc[head.seq])
            now += 1

        breakdown = stats.cycle_breakdown
        breakdown[EXECUTION] += c_exec
        breakdown[FRONT_END] += c_fe
        breakdown[LOAD] += c_load
        breakdown[StallCategory.OTHER] += c_other
        stats.cycles += c_exec + c_fe + c_load + c_other
        return self.finalize()

    # ------------------------------------------------------------------

    def _oldest_stall_cause(self, rob: List[_RobEntry], now: int,
                            value_ready: List[int]) -> StallCategory:
        """Attribute a zero-issue cycle to the oldest instruction's cause."""
        head = rob[0]
        if head.issued:
            return (StallCategory.LOAD if head.is_load_wait
                    else StallCategory.OTHER)
        for pseq, is_load in head.producers.items():
            ready = value_ready[pseq]
            if ready == 0 or ready > now:
                return (StallCategory.LOAD if is_load
                        else StallCategory.OTHER)
        return StallCategory.OTHER   # port conflict or window limit


class IdealOOOCore(OutOfOrderCore):
    """Alias with the Figure 6 model name."""

    model_name = "ooo"

    def __init__(self, trace: Trace,
                 config: Optional[MachineConfig] = None,
                 check: bool = False, tracer=None, slow: bool = False):
        super().__init__(trace, config, decentralized_queues=None,
                         check=check, tracer=tracer, slow=slow)


class RealisticOOOCore(OutOfOrderCore):
    """Decentralized 16-entry issue queues (Section 5.2)."""

    model_name = "ooo-realistic"

    def __init__(self, trace: Trace,
                 config: Optional[MachineConfig] = None,
                 queue_entries: int = 16, check: bool = False,
                 tracer=None, slow: bool = False):
        super().__init__(trace, config,
                         decentralized_queues=queue_entries, ideal=False,
                         check=check, tracer=tracer, slow=slow)


def simulate_ooo(trace: Trace, config: Optional[MachineConfig] = None
                 ) -> SimStats:
    """Run the idealized out-of-order model over ``trace``."""
    return IdealOOOCore(trace, config).run()


def simulate_realistic_ooo(trace: Trace,
                           config: Optional[MachineConfig] = None,
                           queue_entries: int = 16) -> SimStats:
    """Run the realistic decentralized-queue OOO model over ``trace``."""
    return RealisticOOOCore(trace, config,
                            queue_entries=queue_entries).run()
