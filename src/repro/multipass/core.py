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

The simulation loop has a fast path (see
:meth:`~repro.pipeline.base.BaseCore.next_event_cycle`): cycles that are
provably pure polls — nothing can change before a known wake-up cycle —
are charged as one span with the per-cycle poll counters replicated, so
stats stay bit-identical to the cycle-by-cycle loop.  ``slow=True``
disables the skips; an event tracer and ``record_modes`` also force the
per-cycle loop because they observe every cycle (a
:class:`~repro.telemetry.timeline.Timeline` records on the columnar
kernel instead).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from ..isa.columns import columns_of
from ..isa.opcodes import Opcode
from ..isa.registers import NUM_REGS
from ..isa.trace import Trace, TraceEntry
from ..machine import MachineConfig
from ..pipeline.base import BaseCore
from ..pipeline.stats import SimStats, StallCategory
from ..telemetry.events import Tracer
from .asc import (HIT, HIT_INVALID, INVALID, MISS_SPECULATIVE,
                  AdvanceStoreCache)
from .columnar import run_columnar
from .result_store import ResultStore, RSEntry

#: "No internal event": a fast-forward hint meaning the issue logic found
#: nothing that could change on its own — the skip is bounded only by the
#: mode deadline (``trigger_ready``) and the front end.
_INF = 1 << 62


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
                 record_modes: bool = False,
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
        #: Optional per-cycle mode log [(cycle, Mode, arch_ptr, adv_ptr)]
        #: for visualization (see examples/pipeline_viewer.py); off by
        #: default to keep the simulation loop lean.
        self.record_modes = record_modes
        self.mode_log = []
        #: Runahead's checkpoint-restore penalty on rally entry (paper
        #: Section 3.1.3): a column-level flag rather than a subclass
        #: hook so the columnar kernel inherits it the same way it
        #: inherits persistence/restart/regrouping.
        self.rally_exit_refill = False

        self.rs = ResultStore(config.multipass_queue_size, checked=check)
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
        # Small-int port class per seq for the inlined issue-port
        # counters in both issue loops (shared column, built once per
        # trace).
        self._port_code = columns_of(self._dec).port_code

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

    def _check_merge(self, entry: TraceEntry, rs_entry: RSEntry,
                     now: int) -> None:
        """Rally merges must consume exactly the preserved valid result."""
        self._invariant(
            rs_entry.seq == entry.seq,
            f"RS entry seq {rs_entry.seq} merged into committing seq "
            f"{entry.seq}", entry)
        self._invariant(
            rs_entry.done(now),
            f"merged RS entry not done until cycle {rs_entry.ready} "
            f"(now={now}): stale in-flight result served", entry)
        self._invariant(
            not rs_entry.sbit,
            "data-speculative RS entry merged without verification", entry)
        if entry.is_load:
            self._invariant(
                rs_entry.value == entry.value,
                f"merged load value {rs_entry.value!r} differs from "
                f"architectural value {entry.value!r}", entry)
        if rs_entry.is_store:
            self._invariant(
                rs_entry.addr == entry.addr,
                f"merged store address {rs_entry.addr!r} differs from "
                f"architectural address {entry.addr!r}", entry)

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
        if self.tracer.enabled:
            trigger = self.trace.entries[self.trigger_seq]
            self.tracer.restart(now, trigger.seq, trigger.inst.index)

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

    def _issue_advance_cycle(self, now: int):
        """Issue one advance-mode cycle.

        Returns ``(new_execs, wake, peeks)``.  ``wake`` is the
        fast-forward hint for this cycle: ``None`` means state changed
        (not skippable); a cycle number means the cycle was a pure poll
        that repeats identically until then; ``_INF`` means there is no
        advance-internal event at all (window edge / dead pass), so the
        skip is bounded only by ``trigger_ready`` and the front end.
        ``peeks`` is the per-cycle ``iq_peeks`` poll count to replicate
        over skipped cycles.
        """
        if self.pass_dead:
            return 0, _INF, 0
        if now < self.adv_stall_until:
            return 0, self.adv_stall_until, 0
        dec = self.trace.decoded
        d_srcs = dec.srcs
        d_dests = dec.dests
        d_restart = dec.is_restart
        entries = self.trace.entries
        counters = self.stats.counters
        rs_get = self.rs.get if self.persist_results else None
        tel = self.tracer if self.tracer.enabled else None
        ports = self.config.ports
        m_ports = ports.m_ports
        i_ports = ports.i_ports
        f_ports = ports.f_ports
        b_ports = ports.b_ports
        port_code = self._port_code
        m_used = i_used = f_used = b_used = 0
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
        wake = _INF
        peeks = 0

        while self.adv_ptr < window_end and slots < width:
            seq = self.adv_ptr
            wake = None
            counters["iq_peeks"] += 1

            rs_entry = rs_get(seq) if rs_get is not None else None
            if rs_entry is not None:
                if rs_entry.ready > now:
                    # Result (typically a missing load from an earlier
                    # pass) still in flight: consumers stay deferred.
                    for dest in d_dests[seq]:
                        poison_stamp[dest] = epoch
                        pready_stamp[dest] = epoch
                        pready_val[dest] = rs_entry.ready
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
                    tel.rs_hit(now, seq, entries[seq].inst.index,
                               mode="advance")
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
                    return new_execs, None, 0
                self.adv_ptr = seq + 1
                slots += 1
                continue

            status, wait_until = self._advance_source_state(d_srcs[seq],
                                                            now)
            if status == "wait":
                # In-order advance stream waits for a bypass.  Breaking
                # on the very first slot is a pure poll (only the peek
                # counter moved) and repeats identically every cycle
                # until the bypass arrives.
                if slots == 0:
                    wake = wait_until
                    peeks = 1
                break

            if status == "invalid":
                new_execs += self._defer_advance(entries[seq], now)
                self._pass_defers += 1
                slots += 1
                if self.pass_dead:
                    break
                continue

            # Valid operands: execute speculatively.
            code = port_code[seq]
            if code == 0:          # MEM
                if m_used >= m_ports:
                    break
                m_used += 1
            elif code == 1:        # ALU: I port with M fallback
                if i_used < i_ports:
                    i_used += 1
                elif m_used < m_ports:
                    m_used += 1
                else:
                    break
            elif code == 2:        # FP / MULDIV
                if f_used >= f_ports:
                    break
                f_used += 1
            elif code == 3:        # BR
                if b_used >= b_ports:
                    break
                b_used += 1
            executed = self._execute_advance(entries[seq], now)
            new_execs += executed
            self._pass_execs += executed
            slots += 1
            if self.pass_dead:
                break
        if self.hardware_restart and not self.pass_dead:
            if self._maybe_hardware_restart(now):
                wake = None
        return new_execs, wake, peeks

    def _maybe_hardware_restart(self, now: int) -> bool:
        """Footnote-1 mechanism: restart a fruitless pass on its own.

        Fires when the current pass is dominated by deferrals and a
        poisoned value has a known arrival time to rendezvous with;
        without an in-flight fill nothing would change, so the pass is
        left to keep prefetching instead.  Returns True when it fired.
        Every blocker is stable or monotone while the pass is idle, so a
        non-firing check stays non-firing across a fast-forward span.
        """
        processed = self._pass_execs + self._pass_defers
        if processed < self.hw_restart_window:
            return False
        if self._pass_execs >= processed * self.hw_restart_fraction:
            return False
        epoch = self._srf_epoch
        pready_stamp = self._pready_stamp
        pready_val = self._pready_val
        pending = [pready_val[r] for r in range(NUM_REGS)
                   if pready_stamp[r] == epoch and pready_val[r] > now]
        if not pending:
            return False
        self._advance_restart(now, min(pending))
        self.stats.counters["hardware_restarts"] += 1
        return True

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
        if self.tracer.enabled:
            self.tracer.issue(now, seq, dec.pc[seq], mode="advance")

        if not dec.executed[seq]:
            # Predicate-nullified: flows through, nothing to preserve.
            if self.persist_results:
                self.rs.put(RSEntry(seq, now + 1,
                                    resolved_branch=dec.is_branch[seq]))
            if dec.is_branch[seq]:
                self._resolve_advance_branch(entry, now)
            self.adv_ptr = seq + 1
            return 1

        if dec.is_branch[seq]:
            self._resolve_advance_branch(entry, now)
            if self.persist_results:
                self.rs.put(RSEntry(seq, now + 1, resolved_branch=True))
            self.adv_ptr = seq + 1
            return 1

        if dec.is_store[seq]:
            self.asc.write(entry.addr, entry.value)
            self.stats.counters["advance_stores"] += 1
            if self.persist_results:
                self.rs.put(RSEntry(seq, now + 1, addr=entry.addr,
                                    is_store=True))
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
            self.rs.put(RSEntry(seq, now + latency))
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
        if result.l1_miss and self.tracer.enabled:
            self.tracer.cache_miss(now, entry.seq, entry.inst.index,
                                   result.level)

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
                self.rs.put(RSEntry(entry.seq, now + 1, value=entry.value,
                                    addr=addr))
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
            self.rs.put(RSEntry(entry.seq, result.ready,
                                sbit=data_speculative, value=observed,
                                addr=addr))
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

    def _merge_committed(self, entry: TraceEntry, rs_entry: RSEntry,
                         now: int) -> None:
        """Commit a preserved result without re-execution."""
        if self.check:
            self._check_merge(entry, rs_entry, now)
        self.rs.pop(entry.seq)
        self.stats.counters["rally_merges"] += 1
        self.stats.instructions += 1
        if self.tracer.enabled:
            self.tracer.rs_hit(now, entry.seq, entry.inst.index,
                               mode="rally")
        self.commit_entry(entry, now)
        for dest in entry.dests:
            self.reg_ready[dest] = now
            self.load_miss_pending[dest] = 0
        if rs_entry.is_store:
            # Pre-executed stores re-perform their access in rally mode
            # using the SMAQ address (Section 3.6).
            self.hierarchy.access(rs_entry.addr, now, kind="store")
            self.mem_vals[rs_entry.addr] = entry.value
            self.stats.counters["smaq_reads"] += 1
        if self._dec.is_branch[entry.seq]:
            self.frontend.resolve_branch(entry, now, already_resolved=True)

    def _verify_speculative_load(self, entry: TraceEntry,
                                 rs_entry: RSEntry, now: int) -> bool:
        """Re-perform a data-speculative load; flush on value mismatch."""
        if self.check:
            self._invariant(
                rs_entry.sbit,
                "speculative-load verification of a non-S-bit RS entry",
                entry)
            self._invariant(
                rs_entry.seq == entry.seq,
                f"RS entry seq {rs_entry.seq} served for committing seq "
                f"{entry.seq}", entry)
        self.rs.pop(entry.seq)
        self.stats.counters["sbit_verifications"] += 1
        self.stats.counters["smaq_reads"] += 1
        result = self.hierarchy.access(rs_entry.addr, now)
        if result.l1_miss and self.tracer.enabled:
            self.tracer.cache_miss(now, entry.seq, entry.inst.index,
                                   result.level)
        if rs_entry.value == entry.value:
            self.stats.instructions += 1
            self.commit_entry(entry, now)
            self.writeback(entry, now, result.latency, result.l1_miss)
            return False
        # Mismatch: squash everything younger and re-execute it.
        self.stats.counters["value_flushes"] += 1
        self.stats.instructions += 1
        self.commit_entry(entry, now)
        self.writeback(entry, now, result.latency, result.l1_miss)
        self.rs.clear_from(entry.seq + 1)
        self.max_peek = min(self.max_peek, entry.seq + 1)
        self.arch_stall_until = now + self.config.flush_penalty
        if self.check:
            self._invariant(
                self.rs.max_seq() <= entry.seq,
                "RS retains entries younger than a value flush", entry)
        return True

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 500_000_000) -> SimStats:
        """Route to the columnar kernel or the scalar reference loop.

        The columnar kernel (:mod:`repro.multipass.columnar`) is the
        production path, untraced or recording into a
        :class:`~repro.telemetry.timeline.Timeline`.  The scalar loop
        below is the bit-identity reference; it serves ``--slow``, an
        event :class:`~repro.telemetry.events.Tracer` (``repro trace``),
        ``record_modes`` (which logs every cycle) and an instance-level
        override of the advance-issue hook (how tests instrument the
        per-cycle advance stream).  Stats are bit-identical either way —
        the differential suites pin it.
        """
        if (self.slow or isinstance(self.tracer, Tracer) or self.record_modes
                or "_issue_advance_cycle" in self.__dict__):
            return self._run_scalar(max_cycles)
        return run_columnar(self, max_cycles)

    def _run_scalar(self, max_cycles: int = 500_000_000) -> SimStats:
        entries = self.trace.entries
        n = len(entries)
        frontend = self.frontend
        stats = self.stats
        counters = stats.counters
        tel = self.tracer if self.tracer.enabled else None
        record = self.record_modes
        # The fast path requires that nothing observes individual cycles:
        # tracing emits a per-cycle mode event and record_modes logs one,
        # so both force the reference loop (stats are identical either
        # way — the differential suite pins it).
        fast = not self.slow and tel is None and not record
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
        d_stop = dec.stop
        reg_ready = self.reg_ready
        pending = self.load_miss_pending
        access = self.hierarchy.access
        mem_vals = self.mem_vals
        replay = self.replay
        rs = self.rs
        rs_peek = rs.peek if self.persist_results else None
        enable_regroup = self.enable_regroup
        ports = self.config.ports
        width = ports.width
        m_ports = ports.m_ports
        i_ports = ports.i_ports
        f_ports = ports.f_ports
        b_ports = ports.b_ports
        port_code = self._port_code
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
            if record:
                self.mode_log.append((now, self.mode, self.arch_ptr,
                                      self.adv_ptr))
            if tel is not None:
                tel.mode(now, self.mode.value)

            if self.mode is ADVANCE:
                new_execs, wake, peeks = self._issue_advance_cycle(now)
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
                        trig = entries[self.trigger_seq]
                        tel.charge(now, LOAD,
                                   seq=trig.seq, pc=trig.inst.index)
                counters["advance_cycles"] += 1
                now += 1
                if fast and wake is not None and not new_execs:
                    # Nothing can change before min(wake, trigger_ready):
                    # jump there, replicating the per-cycle attribution
                    # (zero-execution advance cycles charge LOAD) and
                    # the per-cycle poll counters.
                    target = wake if wake < self.trigger_ready \
                        else self.trigger_ready
                    skip_to = self.next_event_cycle(now, target,
                                                    self.arch_ptr)
                    if skip_to > now:
                        k = skip_to - now
                        c_load += k
                        counters["advance_cycles"] += k
                        if peeks:
                            counters["iq_peeks"] += peeks * k
                        now = skip_to
                continue

            if now < self.arch_stall_until:
                c_other += 1
                if tel is not None:
                    tel.charge(now, OTHER)
                now += 1
                if fast:
                    skip_to = self.next_event_cycle(
                        now, self.arch_stall_until, self.arch_ptr)
                    if skip_to > now:
                        c_other += skip_to - now
                        now = skip_to
                continue

            # ---- architectural / rally issue (inlined hot loop) ------
            # ``wake`` is the fast-forward hint for zero-issue cycles
            # (None: state changed, not skippable; _INF: a pure front-end
            # stall; a cycle: a pure operand/WAW stall repeating
            # identically until then); ``dq``/``waw_poll`` are the
            # per-cycle iq_dequeues/waw_stalls poll counts to replicate
            # over skipped cycles.
            fetched_until = frontend.fetched_until
            m_used = i_used = f_used = b_used = 0
            issued = 0
            reason = None
            wait_until = now + 1
            trigger = None
            wake = _INF
            dq = waw_poll = 0
            aptr = self.arch_ptr
            rallying = aptr < self.max_peek
            dynamic_groups = enable_regroup and rallying

            while aptr < fetched_until and issued < width:
                seq = aptr
                wake = None
                counters["iq_dequeues"] += 1

                rs_entry = rs_peek(seq) if rs_peek is not None else None
                if rs_entry is not None:
                    if not rs_entry.done(now):
                        # Preserved result still in flight (missing load
                        # from an earlier pass): the rally stream stalls
                        # on it without re-executing, and the stall
                        # re-triggers advance mode so preexecution
                        # continues beyond it.
                        reason = LOAD
                        wait_until = rs_entry.ready
                        trigger = entries[seq]
                        break
                    if not rs_entry.sbit:
                        self.arch_ptr = aptr
                        self._merge_committed(entries[seq], rs_entry, now)
                        issued += 1
                        aptr = seq + 1
                        if not dynamic_groups and d_stop[seq]:
                            break
                        continue
                    if m_used >= m_ports:
                        reason = OTHER
                        break
                    m_used += 1
                    self.arch_ptr = aptr
                    flushed = self._verify_speculative_load(entries[seq],
                                                            rs_entry, now)
                    issued += 1
                    aptr = seq + 1
                    if flushed:
                        reason = OTHER
                        wait_until = self.arch_stall_until
                        break
                    if not dynamic_groups and d_stop[seq]:
                        break
                    continue

                # Normal in-order execution.
                code = port_code[seq]
                if code == 0:          # MEM
                    if m_used >= m_ports:
                        reason = OTHER
                        break
                elif code == 1:        # ALU: I port with M fallback
                    if i_used >= i_ports and m_used >= m_ports:
                        reason = OTHER
                        break
                elif code == 2:        # FP / MULDIV
                    if f_used >= f_ports:
                        reason = OTHER
                        break
                elif code == 3:        # BR
                    if b_used >= b_ports:
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
                    elif issued == 0:
                        # Pure operand poll: the break repeats
                        # identically every cycle until the producers
                        # complete.
                        reason = OTHER
                        wake = wait_until
                        dq = 1
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
                                tel.cache_miss(now, seq,
                                               entries[seq].inst.index,
                                               result.level)
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
                    if issued == 0 and not mem and waw_count == 1:
                        # Pure WAW poll (no cache access to repeat,
                        # single conflicting register so the category is
                        # stable).  The stall ends as soon as the
                        # in-flight writer's completion no longer
                        # exceeds now + latency.
                        wake = wait_until - latency
                        if load_horizon and load_horizon < wake:
                            wake = load_horizon
                        dq = 1
                        waw_poll = 1
                    break

                if code == 0:
                    m_used += 1
                elif code == 1:
                    if i_used < i_ports:
                        i_used += 1
                    else:
                        m_used += 1
                elif code == 2:
                    f_used += 1
                elif code == 3:
                    b_used += 1
                for d in d_dests[seq]:
                    reg_ready[d] = done
                    pending[d] = done if l1_miss else 0
                stats.instructions += 1
                if tel is not None:
                    tel.issue(now, seq, entries[seq].inst.index)
                    self.commit_entry(entries[seq], now)
                elif replay is not None:
                    replay.commit(entries[seq])
                issued += 1
                aptr = seq + 1
                if d_branch[seq]:
                    if frontend.resolve_branch(entries[seq], now):
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

            in_rally = self.mode is RALLY
            if in_rally:
                counters["rally_cycles"] += 1
                if aptr >= self.max_peek and rs.max_seq() < aptr:
                    self.mode = ARCH
                    in_rally = False

            front_end_stall = aptr >= frontend.fetched_until
            if issued:
                c_exec += 1
                if tel is not None:
                    tel.charge(now, EXECUTION)
            elif front_end_stall:
                c_fe += 1
                if tel is not None:
                    blocked = entries[aptr] if aptr < n else None
                    tel.charge(now, FRONT_END,
                               seq=blocked.seq if blocked else -1,
                               pc=blocked.inst.index if blocked else -1)
            else:
                if reason is LOAD:
                    c_load += 1
                else:
                    c_other += 1
                if tel is not None:
                    blocked = entries[aptr]
                    tel.charge(now, reason or OTHER,
                               seq=blocked.seq, pc=blocked.inst.index)
            now += 1

            if trigger is not None and wait_until > now:
                self._enter_advance(trigger, wait_until, now)
            elif fast and not issued and wake is not None:
                # A pure stall cycle: every cycle until the wake target
                # repeats the same poll with the same attribution, so
                # jump the clock and replicate the poll counters.
                skip_to = self.next_event_cycle(now, wake, aptr)
                if now < skip_to < _INF:
                    k = skip_to - now
                    if front_end_stall:
                        c_fe += k
                    elif reason is LOAD:
                        c_load += k
                    else:
                        c_other += k
                    if in_rally:
                        counters["rally_cycles"] += k
                    if dq:
                        counters["iq_dequeues"] += k
                    if waw_poll:
                        counters["waw_stalls"] += k
                    now = skip_to

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
