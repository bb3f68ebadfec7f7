"""The multipass pipeline (paper Sections 3.1–3.6).

One physical in-order pipeline operating in three modes:

* **architectural** — conventional in-order issue; multipass structures
  are clock gated.
* **advance** — triggered when an architectural instruction stalls on an
  unready load result.  Subsequent instructions are released speculatively
  via the PEEK pointer: instructions with valid operands execute (their
  results preserved in the result store and speculative register file),
  instructions with invalid operands are suppressed and poison their
  consumers, loads prefetch and — when they miss the L1 — defer their
  consumers to a later pass (the Section 3.5 WAW rule).  A compiler-placed
  ``RESTART`` whose operand is unready rewinds the pass to the trigger.
* **rally** — entered when the triggering operand arrives: the
  architectural stream re-issues, merging preserved results (issue
  regrouping packs them densely), re-performing data-speculative loads
  with value-based verification, and falling back to advance mode when it
  stalls on another unready load.  When the DEQ pointer catches the
  farthest PEEK point the pipeline returns to architectural mode.

Ablation flags reproduce Figure 8 (``enable_regroup``/``enable_restart``),
and disabling result persistence (``persist_results=False``) with both
ablations yields the Dundas–Mudge runahead model of Figure 1(b).

Two loops run this machine.  The columnar kernel
(:mod:`repro.multipass.columnar`) is the production path, untraced or
recording a :class:`~repro.telemetry.timeline.Timeline`; it charges
provably idle cycles as one span with the per-cycle poll counters
replicated.  The scalar loop here steps every cycle and runs only under
``slow=True``: it is the specification the kernel is pinned against,
bit for bit.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from ..isa.opcodes import FUClass, Opcode
from ..isa.registers import NUM_REGS
from ..isa.trace import Trace, TraceEntry
from ..machine import MachineConfig
from ..pipeline.base import BaseCore
from ..pipeline.stats import SimStats, StallCategory
from .asc import (HIT, HIT_INVALID, INVALID, MISS_SPECULATIVE,
                  AdvanceStoreCache)
from .columnar import run_columnar
from .result_store import ResultStore


class Mode(enum.Enum):
    ARCHITECTURAL = "architectural"
    ADVANCE = "advance"
    RALLY = "rally"


class MultipassCore(BaseCore):
    """Cycle-level model of the multipass pipeline."""

    model_name = "multipass"

    def __init__(self, trace: Trace, config: Optional[MachineConfig] = None,
                 enable_regroup: bool = True, enable_restart: bool = True,
                 persist_results: bool = True,
                 l1_miss_writes_srf: bool = False,
                 hardware_restart: bool = False,
                 hw_restart_window: int = 16,
                 hw_restart_fraction: float = 0.125,
                 check: bool = False, tracer=None, slow: bool = False):
        config = config or MachineConfig()
        super().__init__(trace, config, config.multipass_queue_size,
                         check=check, tracer=tracer, slow=slow)
        self.enable_regroup = enable_regroup
        self.enable_restart = enable_restart
        self.persist_results = persist_results
        #: Section 3.5 ablation: the paper's design suppresses the SRF
        #: write-back of advance loads that miss the L1 (avoiding WAW
        #: hazards entirely); setting this models the more complex
        #: alternative that writes the SRF and lets in-flight consumers
        #: wait for the fill instead of deferring to a later pass.
        self.l1_miss_writes_srf = l1_miss_writes_srf
        #: Paper footnote 1: "A hardware mechanism could also have been
        #: used to detect these situations."  When enabled, a pass that
        #: has processed at least ``hw_restart_window`` non-merge slots
        #: with fewer than ``hw_restart_fraction`` of them executing —
        #: and that has an in-flight fill to wait for — restarts itself,
        #: scheduled for the earliest arriving operand.
        self.hardware_restart = hardware_restart
        self.hw_restart_window = hw_restart_window
        self.hw_restart_fraction = hw_restart_fraction
        self._pass_execs = 0
        self._pass_defers = 0
        #: Runahead's checkpoint-restore penalty on rally entry (paper
        #: Section 3.1.3): a column-level flag rather than a subclass
        #: hook so the columnar kernel inherits it the same way it
        #: inherits persistence/restart/regrouping.
        self.rally_exit_refill = False

        # The paper's result store and advance store cache, one of each,
        # shared by the columnar kernel and the scalar loop below: both
        # probe the store's per-seq columns and write through its methods.
        self.rs = ResultStore(len(trace), config.multipass_queue_size,
                              checked=check)
        self.asc = AdvanceStoreCache(config.asc_entries, config.asc_assoc)
        # Committed memory image, used to observe the (possibly stale)
        # value a data-speculative advance load would actually read.
        self.mem_vals: Dict[int, object] = dict(trace.program.memory_image)

        self.mode = Mode.ARCHITECTURAL
        self.arch_ptr = 0            # DEQ pointer (trace sequence index)
        self.adv_ptr = 0             # PEEK pointer
        self.max_peek = 0            # farthest advance point reached
        self.trigger_seq = -1
        self.trigger_ready = 0

        # Per-pass advance state (the SRF + A/I bits and friends), kept
        # as epoch-stamped flat columns indexed by register: a stamp
        # equal to the current epoch means "set this pass".  A pass
        # reset is then a single epoch bump instead of clearing three
        # containers, and the advance hot loop indexes preallocated
        # lists instead of hashing dict/set keys.
        self._srf_epoch = 1
        self._srf_stamp = [0] * NUM_REGS     # A-bit (SRF value present)
        self._srf_ready = [0] * NUM_REGS     # SRF value ready cycle
        self._poison_stamp = [0] * NUM_REGS  # I-bit
        # Known return times for poisoned values (in-flight fills): used
        # to schedule advance restarts so the restarted instruction meets
        # its input at the REG stage (paper footnote 2).  Deliberately a
        # separate lifetime from the I-bit: clearing the poison bit does
        # not forget the hint (the dict-based model it replaces kept
        # stale hints visible to the hardware-restart scan).
        self._pready_stamp = [0] * NUM_REGS
        self._pready_val = [0] * NUM_REGS
        self.unknown_store = False          # a deferred store's address
        self.pass_dead = False              # advance went down a wrong path
        self.adv_stall_until = 0
        self.arch_stall_until = 0
        # Decoded-trace cache handle (shared read-only with other cores
        # replaying the same trace).
        self._dec = trace.decoded
        # One cycle's issue ports, for both issue loops.  It counts only
        # the issues that claim a port, never more than the loop's
        # slots, so its width test never binds before the loop's own.
        self._tracker = config.ports.new_tracker()

    # ------------------------------------------------------------------
    # runtime invariants (the --check flag)
    # ------------------------------------------------------------------

    def _invariant(self, cond: bool, message: str,
                   entry: Optional[TraceEntry] = None) -> None:
        """Raise ``InvariantError`` when a checked invariant fails."""
        if cond:
            return
        from ..analysis.diagnostics import InvariantError
        where = (f" at #{entry.seq} {entry.inst.render()}"
                 if entry is not None else "")
        raise InvariantError(
            f"[{self.model_name}/{self.trace.program.name}]{where}: "
            f"{message}")

    def _check_merge(self, entry: TraceEntry, now: int) -> None:
        """Rally merges must consume exactly the preserved valid result."""
        rs = self.rs
        seq = entry.seq
        self._invariant(
            rs.ready[seq] <= now,
            f"merged RS entry not done until cycle {rs.ready[seq]} "
            f"(now={now}): stale in-flight result served", entry)
        self._invariant(
            not rs.sbit[seq],
            "data-speculative RS entry merged without verification", entry)
        if entry.is_load:
            self._invariant(
                rs.value[seq] == entry.value,
                f"merged load value {rs.value[seq]!r} differs from "
                f"architectural value {entry.value!r}", entry)

    # ------------------------------------------------------------------
    # mode transitions
    # ------------------------------------------------------------------

    def _enter_advance(self, trigger: TraceEntry, wait_until: int,
                       now: int) -> None:
        """Architectural stall on a load: start (or re-start) preexecution."""
        self.mode = Mode.ADVANCE
        self.trigger_seq = trigger.seq
        self.trigger_ready = wait_until
        self.adv_ptr = trigger.seq
        self.adv_stall_until = now + self.config.advance_entry_delay
        self._reset_pass_state()
        self.stats.counters["advance_entries"] += 1

    def _reset_pass_state(self) -> None:
        self._pass_execs = 0
        self._pass_defers = 0
        # O(1) wipe of the SRF/poison columns: old stamps never match
        # the new epoch (the counter only grows).
        self._srf_epoch += 1
        self.asc.clear()
        self.unknown_store = False
        self.pass_dead = False

    def _advance_restart(self, now: int,
                         operand_ready: Optional[int] = None) -> None:
        """Rewind the advance pass to the trigger (Section 3.3).

        When the unready operand's return time is known (an in-flight
        fill), the restarted pass is scheduled to arrive with it rather
        than spinning (paper footnote 2's PEEK-redirect refinement).
        """
        self._reset_pass_state()
        self.adv_ptr = self.trigger_seq
        refill = now + self.config.advance_restart_refill
        if operand_ready is not None:
            refill = max(refill, operand_ready
                         - self.config.advance_restart_refill)
        self.adv_stall_until = refill
        self.stats.counters["advance_restarts"] += 1
        if self.tracer is not None:
            self.tracer.restart(now, self.trigger_seq)

    def _enter_rally(self, now: int) -> None:
        """The trigger operand arrived: resume the architectural stream.

        Multipass resumes instantly: the latched architectural-stream
        instructions are unlatched and displace the advance instructions
        in their stages (Section 3.1.3).  Runahead instead pays a
        checkpoint-restore refill (``rally_exit_refill``): it restores
        the checkpointed state and refetches from the stalled
        instruction.
        """
        self.mode = Mode.RALLY
        self._reset_pass_state()
        if self.rally_exit_refill:
            self.arch_stall_until = max(
                self.arch_stall_until, now + self.config.mispredict_penalty)
            self.stats.counters["runahead_exit_refills"] += 1

    # ------------------------------------------------------------------
    # advance-mode operand resolution
    # ------------------------------------------------------------------

    def _advance_source_state(self, srcs, now: int):
        """Classify an advance instruction's operands.

        Returns ``(status, wait_until)`` where status is one of
        ``"ready"``, ``"wait"`` (a fixed-latency producer is in flight —
        the in-order advance stream waits for its bypass) or
        ``"invalid"`` (a poisoned or cache-missing producer: suppress).
        """
        wait_until = now
        epoch = self._srf_epoch
        srf_stamp = self._srf_stamp
        srf_ready = self._srf_ready
        poison_stamp = self._poison_stamp
        reg_ready = self.reg_ready
        pending = self.load_miss_pending
        for src in srcs:
            if srf_stamp[src] == epoch:        # A-bit: read the SRF value
                adv_ready = srf_ready[src]
                if adv_ready > wait_until:
                    wait_until = adv_ready
                continue
            if poison_stamp[src] == epoch:     # I-bit
                return "invalid", now
            arch_ready = reg_ready[src]
            if arch_ready > now:
                if pending[src] > now:
                    return "invalid", now      # missing load: defer
                if arch_ready > wait_until:
                    wait_until = arch_ready
        if wait_until > now:
            return "wait", wait_until
        return "ready", now

    # ------------------------------------------------------------------
    # advance-mode issue
    # ------------------------------------------------------------------

    def _issue_advance_cycle(self, now: int) -> int:
        """Issue one advance-mode cycle; returns its new executions."""
        if self.pass_dead or now < self.adv_stall_until:
            return 0
        dec = self.trace.decoded
        d_srcs = dec.srcs
        d_dests = dec.dests
        d_restart = dec.is_restart
        d_ifu = dec.issue_fu
        entries = self.trace.entries
        counters = self.stats.counters
        rs = self.rs
        rs_live = rs.live
        tel = self.tracer
        tracker = self._tracker
        tracker.reset()
        window_end = min(dec.n, self.frontend.fetched_until,
                         self.arch_ptr + self.buffer_size)
        epoch = self._srf_epoch
        srf_stamp = self._srf_stamp
        srf_ready = self._srf_ready
        poison_stamp = self._poison_stamp
        pready_stamp = self._pready_stamp
        pready_val = self._pready_val
        enable_restart = self.enable_restart
        width = self.config.ports.width
        slots = 0
        new_execs = 0

        while self.adv_ptr < window_end and slots < width:
            seq = self.adv_ptr
            counters["iq_peeks"] += 1

            # Only persistent models ever put, so a live entry implies
            # ``persist_results``.
            if rs_live[seq]:
                ready = rs.read(seq)
                if ready > now:
                    # Result (typically a missing load from an earlier
                    # pass) still in flight: consumers stay deferred.
                    for dest in d_dests[seq]:
                        poison_stamp[dest] = epoch
                        pready_stamp[dest] = epoch
                        pready_val[dest] = ready
                        srf_stamp[dest] = 0
                    self.adv_ptr = seq + 1
                    slots += 1
                    continue
                # Preserved result: no re-execution, breaks dependences.
                for dest in d_dests[seq]:
                    srf_stamp[dest] = epoch
                    srf_ready[dest] = now
                    poison_stamp[dest] = 0
                counters["advance_merges"] += 1
                if tel is not None:
                    tel.rs_hit(now, seq, mode="advance")
                self.adv_ptr = seq + 1
                slots += 1
                continue

            if d_restart[seq] and enable_restart:
                status, _ = self._advance_source_state(d_srcs[seq], now)
                if status != "ready":
                    pending = self.load_miss_pending
                    hints = []
                    for src in d_srcs[seq]:
                        if pready_stamp[src] == epoch:
                            hints.append(pready_val[src])
                        elif pending[src]:
                            hints.append(pending[src])
                    self._advance_restart(now, max(hints) if hints
                                          else None)
                    return new_execs
                self.adv_ptr = seq + 1
                slots += 1
                continue

            status, wait_until = self._advance_source_state(d_srcs[seq],
                                                            now)
            if status == "wait":
                break                  # in-order: wait for the bypass

            if status == "invalid":
                new_execs += self._defer_advance(entries[seq], now)
                self._pass_defers += 1
                slots += 1
                if self.pass_dead:
                    break
                continue

            # Valid operands: execute speculatively.
            fu = d_ifu[seq]
            if not tracker.can_issue(fu):
                break
            tracker.issue(fu)
            executed = self._execute_advance(entries[seq], now)
            new_execs += executed
            self._pass_execs += executed
            slots += 1
            if self.pass_dead:
                break
        if self.hardware_restart and not self.pass_dead:
            self._maybe_hardware_restart(now)
        return new_execs

    def _maybe_hardware_restart(self, now: int) -> None:
        """Footnote-1 mechanism: restart a fruitless pass on its own.

        Fires when the current pass is dominated by deferrals and a
        poisoned value has a known arrival time to rendezvous with;
        without an in-flight fill nothing would change, so the pass is
        left to keep prefetching instead.
        """
        processed = self._pass_execs + self._pass_defers
        if processed < self.hw_restart_window:
            return
        if self._pass_execs >= processed * self.hw_restart_fraction:
            return
        epoch = self._srf_epoch
        pready_stamp = self._pready_stamp
        pready_val = self._pready_val
        pending = [pready_val[r] for r in range(NUM_REGS)
                   if pready_stamp[r] == epoch and pready_val[r] > now]
        if not pending:
            return
        self._advance_restart(now, min(pending))
        self.stats.counters["hardware_restarts"] += 1

    def _defer_advance(self, entry: TraceEntry, now: int) -> int:
        """Suppress an advance instruction with invalid operands."""
        dec = self._dec
        seq = entry.seq
        self.stats.counters["advance_deferrals"] += 1
        epoch = self._srf_epoch
        for dest in dec.dests[seq]:
            self._poison_stamp[dest] = epoch
            self._srf_stamp[dest] = 0
        if dec.is_branch[seq]:
            # Direction unknown: follow the prediction.  When it disagrees
            # with the actual outcome the advance stream has gone down the
            # wrong path and the rest of this pass is unproductive.
            if not self.predictor.peek_correct(dec.pc[seq], entry.taken):
                self.pass_dead = True
                self.stats.counters["advance_wrong_path"] += 1
        elif dec.is_store[seq]:
            inst = entry.inst
            data_reg, base_reg = inst.srcs[0], inst.srcs[1]
            if self._advance_reg_invalid(base_reg, now) or \
                    (entry.addr is None):
                self.unknown_store = True
                self.stats.counters["unknown_address_stores"] += 1
            elif self._advance_reg_invalid(data_reg, now):
                self.asc.write(entry.addr, INVALID)
        self.adv_ptr += 1
        return 0

    def _advance_reg_invalid(self, reg: int, now: int) -> bool:
        epoch = self._srf_epoch
        if self._srf_stamp[reg] == epoch:
            return False
        if self._poison_stamp[reg] == epoch:
            return True
        return (self.reg_ready[reg] > now
                and self.load_miss_pending[reg] > now)

    def _execute_advance(self, entry: TraceEntry, now: int) -> int:
        """Execute one valid advance instruction; returns 1 if it counts
        as a new execution."""
        dec = self._dec
        seq = entry.seq
        self.stats.counters["advance_executions"] += 1
        if self.tracer is not None:
            self.tracer.issue(now, seq, mode="advance")

        if not dec.executed[seq]:
            # Predicate-nullified: flows through, nothing to preserve.
            if self.persist_results:
                self.rs.put(seq, now + 1)
            if dec.is_branch[seq]:
                self._resolve_advance_branch(entry, now)
            self.adv_ptr = seq + 1
            return 1

        if dec.is_branch[seq]:
            self._resolve_advance_branch(entry, now)
            if self.persist_results:
                self.rs.put(seq, now + 1)
            self.adv_ptr = seq + 1
            return 1

        if dec.is_store[seq]:
            self.asc.write(entry.addr, entry.value)
            self.stats.counters["advance_stores"] += 1
            if self.persist_results:
                self.rs.put(seq, now + 1)
            self.adv_ptr = seq + 1
            return 1

        if dec.is_load[seq]:
            self._execute_advance_load(entry, now)
            self.adv_ptr = seq + 1
            return 1

        # ALU / FP / mul-div / nop.
        latency = dec.latency[seq]
        dests = dec.dests[seq]
        epoch = self._srf_epoch
        for dest in dests:
            self._srf_stamp[dest] = epoch
            self._srf_ready[dest] = now + latency
            self._poison_stamp[dest] = 0
            self._pready_stamp[dest] = 0
        if self.persist_results and (dests or entry.inst.opcode is
                                     Opcode.NOP):
            self.rs.put(seq, now + latency)
        self.adv_ptr = seq + 1
        return 1

    def _resolve_advance_branch(self, entry: TraceEntry, now: int) -> None:
        """A branch with valid operands resolves during preexecution.

        The predictor is trained early; if it would have mispredicted, the
        *advance* stream pays the redirect penalty now and the
        architectural stream later merges the resolved branch with no
        flush — the source of multipass front-end-stall reduction.
        """
        correct = self.predictor.update(self._dec.pc[entry.seq],
                                        entry.taken and entry.executed)
        self.stats.counters["advance_branches"] += 1
        if not correct:
            self.adv_stall_until = max(
                self.adv_stall_until,
                now + self.config.mispredict_penalty)
            self.stats.counters["advance_redirects"] += 1

    def _execute_advance_load(self, entry: TraceEntry, now: int) -> None:
        """Advance load: ASC forwarding, prefetch, WAW rule, S-bits."""
        addr = entry.addr
        outcome, _forwarded = self.asc.read(addr)
        result = self.hierarchy.access(addr, now)   # prefetch effect
        self.stats.counters["advance_loads"] += 1
        if result.l1_miss and self.tracer is not None:
            self.tracer.cache_miss(now, entry.seq, result.level)

        epoch = self._srf_epoch
        srf_stamp = self._srf_stamp
        srf_ready = self._srf_ready
        poison_stamp = self._poison_stamp
        pready_stamp = self._pready_stamp
        if outcome == HIT:
            for dest in entry.dests:
                srf_stamp[dest] = epoch
                srf_ready[dest] = now + 1
                poison_stamp[dest] = 0
                pready_stamp[dest] = 0
            if self.persist_results:
                self.rs.put(entry.seq, now + 1, 0, entry.value)
            self.stats.counters["asc_forwards"] += 1
            return
        if outcome == HIT_INVALID:
            for dest in entry.dests:
                poison_stamp[dest] = epoch
                srf_stamp[dest] = 0
            return

        data_speculative = self.unknown_store or outcome == MISS_SPECULATIVE
        observed = (self.mem_vals.get(addr, 0) if data_speculative
                    else entry.value)
        l1_hit = not result.l1_miss
        if self.persist_results:
            self.rs.put(entry.seq, result.ready, data_speculative,
                        observed)
        if data_speculative:
            self.stats.counters["sbit_loads"] += 1
        if l1_hit:
            for dest in entry.dests:
                srf_stamp[dest] = epoch
                srf_ready[dest] = result.ready
                poison_stamp[dest] = 0
                pready_stamp[dest] = 0
        elif self.l1_miss_writes_srf:
            # Ablation of the Section 3.5 WAW rule: expose the fill time
            # through the SRF so in-flight consumers wait for the bypass.
            self.stats.counters["advance_load_misses"] += 1
            for dest in entry.dests:
                srf_stamp[dest] = epoch
                srf_ready[dest] = result.ready
                poison_stamp[dest] = 0
                pready_stamp[dest] = 0
        else:
            # Section 3.5: L1-missing advance loads do not write the SRF;
            # consumers defer to a later pass (the RS catches the fill).
            self.stats.counters["advance_load_misses"] += 1
            for dest in entry.dests:
                poison_stamp[dest] = epoch
                pready_stamp[dest] = epoch
                self._pready_val[dest] = result.ready
                srf_stamp[dest] = 0

    # ------------------------------------------------------------------
    # architectural / rally issue
    # ------------------------------------------------------------------

    def _merge_committed(self, entry: TraceEntry, now: int) -> None:
        """Commit a preserved result without re-execution."""
        if self.check:
            self._check_merge(entry, now)
        self.rs.pop(entry.seq)
        self.stats.counters["rally_merges"] += 1
        self.stats.instructions += 1
        if self.tracer is not None:
            self.tracer.rs_hit(now, entry.seq, mode="rally")
        self.commit_entry(entry, now)
        for dest in entry.dests:
            self.reg_ready[dest] = now
            self.load_miss_pending[dest] = 0
        if entry.is_store:
            # Pre-executed stores re-perform their access in rally mode
            # using the SMAQ address (Section 3.6).
            self.hierarchy.access(entry.addr, now, kind="store")
            self.mem_vals[entry.addr] = entry.value
            self.stats.counters["smaq_reads"] += 1

    def _verify_speculative_load(self, entry: TraceEntry, now: int) -> bool:
        """Re-perform a data-speculative load; flush on value mismatch."""
        rs = self.rs
        if self.check:
            self._invariant(
                rs.sbit[entry.seq],
                "speculative-load verification of a non-S-bit RS entry",
                entry)
        rs.pop(entry.seq)
        self.stats.counters["sbit_verifications"] += 1
        self.stats.counters["smaq_reads"] += 1
        result = self.hierarchy.access(entry.addr, now)
        if result.l1_miss and self.tracer is not None:
            self.tracer.cache_miss(now, entry.seq, result.level)
        if rs.value[entry.seq] == entry.value:
            self.stats.instructions += 1
            self.commit_entry(entry, now)
            self.writeback(entry, now, result.latency, result.l1_miss)
            return False
        # Mismatch: squash everything younger and re-execute it.
        self.stats.counters["value_flushes"] += 1
        self.stats.instructions += 1
        self.commit_entry(entry, now)
        self.writeback(entry, now, result.latency, result.l1_miss)
        rs.clear_from(entry.seq + 1)
        self.max_peek = min(self.max_peek, entry.seq + 1)
        self.arch_stall_until = now + self.config.flush_penalty
        if self.check:
            self._invariant(
                rs.max_seq() <= entry.seq,
                "RS retains entries younger than a value flush", entry)
        return True

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 500_000_000) -> SimStats:
        """Run the columnar kernel, or the scalar loop under ``--slow``.

        The columnar kernel (:mod:`repro.multipass.columnar`) is the
        production path, untraced or recording into a
        :class:`~repro.telemetry.timeline.Timeline`.  The scalar loop
        below steps every cycle and is the bit-identity reference;
        ``slow=True`` is the only way to run it.  Stats and recorded
        timelines are identical either way — the differential suites
        pin it.
        """
        if self.slow:
            return self._run_scalar(max_cycles)
        return run_columnar(self, max_cycles)

    def _run_scalar(self, max_cycles: int = 500_000_000) -> SimStats:
        entries = self.trace.entries
        n = len(entries)
        frontend = self.frontend
        stats = self.stats
        counters = stats.counters
        tel = self.tracer
        check = self.check
        dec = self.trace.decoded
        d_srcs = dec.srcs
        d_dests = dec.dests
        d_lat = dec.latency
        d_mem = dec.mem_exec
        d_load = dec.is_load
        d_addr = dec.addr
        d_value = dec.value
        d_branch = dec.is_branch
        d_taken = dec.taken
        d_pc = dec.pc
        d_ifu = dec.issue_fu
        d_stop = dec.stop
        reg_ready = self.reg_ready
        pending = self.load_miss_pending
        access = self.hierarchy.access
        mem_vals = self.mem_vals
        replay = self.replay
        rs = self.rs
        rs_live = rs.live
        rs_ready = rs.ready
        rs_sbit = rs.sbit
        enable_regroup = self.enable_regroup
        width = self.config.ports.width
        tracker = self._tracker
        ADVANCE = Mode.ADVANCE
        ARCH = Mode.ARCHITECTURAL
        RALLY = Mode.RALLY
        EXECUTION = StallCategory.EXECUTION
        FRONT_END = StallCategory.FRONT_END
        LOAD = StallCategory.LOAD
        OTHER = StallCategory.OTHER
        # Per-category cycle tallies, flushed into the stats once at the
        # end of the run — identical totals to per-cycle charge() without
        # a dict update in the hot loop.
        c_exec = c_fe = c_load = c_other = 0
        now = 0

        while self.arch_ptr < n:
            if now > max_cycles:
                self.check_cycle_budget(now, max_cycles)
            # tick() is a no-op once the whole trace is fetched (its
            # limit clamps to n); a restart rolls fetched_until back, so
            # the guard re-arms itself after redirects.
            if frontend.fetched_until < n:
                frontend.tick(now, self.arch_ptr)

            if self.mode is ADVANCE and now >= self.trigger_ready:
                self._enter_rally(now)
            if tel is not None:
                tel.mode(now, self.mode.value)

            if self.mode is ADVANCE:
                new_execs = self._issue_advance_cycle(now)
                if check:
                    self._invariant(
                        self.adv_ptr >= self.arch_ptr,
                        f"advance pointer {self.adv_ptr} fell behind "
                        f"architectural pointer {self.arch_ptr}")
                if self.adv_ptr > self.max_peek:
                    self.max_peek = self.adv_ptr
                if new_execs:
                    c_exec += 1
                    if tel is not None:
                        tel.charge(now, EXECUTION)
                else:
                    # No new executions: the cycle belongs to the latency
                    # that initiated advance mode.
                    c_load += 1
                    if tel is not None:
                        # Attributed to the load that triggered advance
                        # mode — the same charging rule as the stats.
                        trig = self.trigger_seq
                        tel.charge(now, LOAD, seq=trig, pc=dec.pc[trig])
                counters["advance_cycles"] += 1
                now += 1
                continue

            if now < self.arch_stall_until:
                c_other += 1
                if tel is not None:
                    tel.charge(now, OTHER)
                now += 1
                continue

            # ---- architectural / rally issue (inlined hot loop) ------
            fetched_until = frontend.fetched_until
            tracker.reset()
            issued = 0
            reason = None
            wait_until = now + 1
            trigger = None
            aptr = self.arch_ptr
            rallying = aptr < self.max_peek
            dynamic_groups = enable_regroup and rallying

            while aptr < fetched_until and issued < width:
                seq = aptr
                counters["iq_dequeues"] += 1

                if rs_live[seq]:
                    if rs_ready[seq] > now:
                        # Preserved result still in flight (missing load
                        # from an earlier pass): the rally stream stalls
                        # on it without re-executing, and the stall
                        # re-triggers advance mode so preexecution
                        # continues beyond it.
                        reason = LOAD
                        wait_until = rs_ready[seq]
                        trigger = entries[seq]
                        break
                    if not rs_sbit[seq]:
                        self.arch_ptr = aptr
                        self._merge_committed(entries[seq], now)
                        issued += 1
                        aptr = seq + 1
                        if not dynamic_groups and d_stop[seq]:
                            break
                        continue
                    # S-bit verification re-performs the load on an M port.
                    if not tracker.can_issue(FUClass.MEM):
                        reason = OTHER
                        break
                    tracker.issue(FUClass.MEM)
                    self.arch_ptr = aptr
                    flushed = self._verify_speculative_load(entries[seq],
                                                            now)
                    issued += 1
                    aptr = seq + 1
                    if flushed:
                        reason = OTHER
                        wait_until = self.arch_stall_until
                        break
                    if not dynamic_groups and d_stop[seq]:
                        break
                    continue

                # Normal in-order execution: the port is claimed only once
                # the operands and destinations are known not to stall.
                fu = d_ifu[seq]
                if not tracker.can_issue(fu):
                    reason = OTHER
                    break
                stall = 0
                load_wait = False
                for s in d_srcs[seq]:
                    r = reg_ready[s]
                    if r > now:
                        if r > stall:
                            stall = r
                        if pending[s] > now:
                            load_wait = True
                if stall:
                    wait_until = stall
                    if load_wait:
                        reason = LOAD
                        trigger = entries[seq]
                    else:
                        reason = OTHER
                    break

                latency = d_lat[seq]
                l1_miss = False
                mem = d_mem[seq]
                if mem:
                    if d_load[seq]:
                        result = access(d_addr[seq], now)
                        latency = result.latency
                        l1_miss = result.l1_miss
                        counters["loads_issued"] += 1
                        if l1_miss:
                            counters["l1d_load_misses"] += 1
                            if tel is not None:
                                tel.cache_miss(now, seq, result.level)
                    else:
                        addr = d_addr[seq]
                        access(addr, now, kind="store")
                        mem_vals[addr] = d_value[seq]

                done = now + latency
                stall = 0
                load_horizon = 0
                waw_count = 0
                for d in d_dests[seq]:
                    r = reg_ready[d]
                    if r > done:
                        waw_count += 1
                        if r > stall:
                            stall = r
                        p = pending[d]
                        if p > now and p > load_horizon:
                            load_horizon = p
                if waw_count:
                    wait_until = stall
                    reason = LOAD if load_horizon else OTHER
                    counters["waw_stalls"] += 1
                    break

                tracker.issue(fu)
                for d in d_dests[seq]:
                    reg_ready[d] = done
                    pending[d] = done if l1_miss else 0
                stats.instructions += 1
                if tel is not None:
                    tel.issue(now, seq)
                    self.commit_entry(entries[seq], now)
                elif replay is not None:
                    replay.commit(entries[seq])
                issued += 1
                aptr = seq + 1
                if d_branch[seq] and frontend.resolve(
                        seq, d_pc[seq], d_taken[seq], now):
                    counters["mispredicts"] += 1
                    rs.clear_from(seq + 1)
                    if seq + 1 < self.max_peek:
                        self.max_peek = seq + 1
                    if check:
                        self._invariant(
                            rs.max_seq() <= seq,
                            "RS retains entries younger than a "
                            "mispredict flush", entries[seq])
                    break
                if d_stop[seq] and not dynamic_groups:
                    break
            self.arch_ptr = aptr
            # ---- end inlined issue loop ------------------------------

            if self.mode is RALLY:
                counters["rally_cycles"] += 1
                if aptr >= self.max_peek and rs.max_seq() < aptr:
                    self.mode = ARCH

            front_end_stall = aptr >= frontend.fetched_until
            if issued:
                c_exec += 1
                if tel is not None:
                    tel.charge(now, EXECUTION)
            elif front_end_stall:
                c_fe += 1
                if tel is not None:
                    if aptr < n:
                        tel.charge(now, FRONT_END, seq=aptr,
                                   pc=dec.pc[aptr])
                    else:
                        tel.charge(now, FRONT_END)
            else:
                if reason is LOAD:
                    c_load += 1
                else:
                    c_other += 1
                if tel is not None:
                    tel.charge(now, reason or OTHER, seq=aptr,
                               pc=dec.pc[aptr])
            now += 1

            if trigger is not None and wait_until > now:
                self._enter_advance(trigger, wait_until, now)

        breakdown = stats.cycle_breakdown
        breakdown[EXECUTION] += c_exec
        breakdown[FRONT_END] += c_fe
        breakdown[LOAD] += c_load
        breakdown[OTHER] += c_other
        stats.cycles += c_exec + c_fe + c_load + c_other
        return self.finalize()

    def finalize(self) -> SimStats:
        stats = super().finalize()
        stats.counters["rs_writes"] = self.rs.writes
        stats.counters["rs_reads"] = self.rs.reads
        stats.counters["asc_writes"] = self.asc.writes
        stats.counters["asc_reads"] = self.asc.reads
        return stats


def simulate_multipass(trace: Trace,
                       config: Optional[MachineConfig] = None,
                       enable_regroup: bool = True,
                       enable_restart: bool = True) -> SimStats:
    """Run the multipass model over ``trace``."""
    return MultipassCore(trace, config, enable_regroup=enable_regroup,
                         enable_restart=enable_restart).run()
