"""Event-driven columnar kernel for the multipass-family cores.

Drop-in replacement for the scalar cycle loop in
:mod:`repro.multipass.core` (kept there as the ``--slow``/event-tracer/
``record_modes`` reference): same machine, same statistics,
bit-identical cycle counts and stall attribution, but the per-cycle
*work* is restructured around preallocated flat columns, following the
PR 7 OOO kernel (:mod:`repro.ooo.columnar`):

* **The result store is a set of flat per-seq columns** (``rs_live`` /
  ``rs_ready`` / ``rs_value`` / ``rs_addr`` / ``rs_sbit`` /
  ``rs_store``) instead of a dict of ``RSEntry`` objects.  A flush
  (``clear_from``) is one ``bytearray`` slice wipe of the live bits and
  a clamp of the high-water mark ``rs_hi``; ``max_seq()`` is a lazy
  downward tightening of ``rs_hi`` past dead tops.  Counter semantics
  are preserved exactly: a *write* per put, a *read* only when the
  advance stream's probe finds a live entry, a *merge* per pop.
* **Pass resets are generation bumps.**  The SRF/poison/pready columns
  already use the core's epoch stamps (one ``epoch += 1`` per reset,
  PR 7); the advance store cache joins them here: per-set dicts carry a
  generation stamp (``asc_set_gen``) and a stale set is lazily purged
  on first touch, so ``asc.clear()`` becomes a single ``asc_gen += 1``
  that also invalidates the per-set *replaced* flags
  (``asc_rep_gen``).  The ASC clock is globally monotone instead of
  per-pass — only the relative order within a set matters for the LRU
  victim, so the choice is identical.
* **The hardware-restart rendezvous is a timing wheel + far-event
  heap.**  The footnote-1 mechanism needs ``min`` over the pready
  hints still in flight; the scalar loop scans all ``NUM_REGS`` pready
  stamps per check.  Here every pready fill *event* is pushed once —
  near fills (under :data:`WHEEL` cycles out) into a 64-slot wheel,
  far fills (memory misses) into a heap — stamped with the pass epoch,
  so a pass restart invalidates the whole calendar wholesale and stale
  entries are discarded lazily at query time (generation-stamped
  staleness, exactly the OOO kernel's squash discipline).  The
  calendar is only maintained when ``hardware_restart`` is enabled;
  the *hints* themselves stay in the epoch-stamped pready columns with
  their deliberate clear-the-poison-keep-the-hint lifetime (see
  ``MultipassCore``), which the restart-slot scan also consults.
* **Fetch, gshare and the L1s are inlined** with the same localized
  front-end scalars, batched predictor tallies and L1 hit fast paths
  as the OOO kernel (fall back to ``hierarchy.access`` whenever the
  line is absent or a fill is pending — same stats, same LRU clocks,
  same MSHR effects).

Mode-machine equivalence: the kernel replicates the scalar ``run()``
cycle-for-cycle — fetch, rally entry at ``trigger_ready``, the advance
slot loop (RS probe, RESTART, operand classification, port budgeting,
defer/execute), the architectural/rally issue loop (merge, S-bit
verification, in-order issue, branch resolve) and the two fast-forward
skips with their replicated poll counters — so every counter, the
4-way stall breakdown and the retired stream are bit-identical.  The
differential suites (``tests/property/test_columnar.py``,
``tests/property/test_fast_path.py``), the idle-skip boundary sweep
and the golden matrix pin all of this against the scalar loop; see
``docs/architecture.md`` §13.

Recording: a core whose tracer is a
:class:`~repro.telemetry.timeline.Timeline` runs this kernel too.  The
kernel records the scalar loop's timeline exactly — fetch groups, issues
(advance and architectural), commits, merges, restarts, misses, stall
charges and mode changes — behind one ``rec`` flag fixed at entry; the
skips and bulk paths record their replayed cycles as spans and groups.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..isa.columns import columns_of
from ..isa.opcodes import Opcode
from ..pipeline.eventq import WHEEL, EventCalendar
from ..pipeline.stats import SimStats, StallCategory
from .asc import INVALID

#: "No internal event" fast-forward hint (see ``multipass.core``).
_INF = 1 << 62


def run_columnar(core, max_cycles: int) -> SimStats:
    """Run a :class:`~repro.multipass.core.MultipassCore` to completion.

    ``core`` must be freshly constructed, not in ``--slow`` mode, not
    recording modes, and either un-traced or recording into a
    :class:`~repro.telemetry.timeline.Timeline` (the caller routes the
    rest to the scalar reference loop).
    """
    trace = core.trace
    dec = trace.decoded
    n = dec.n
    d_srcs = dec.srcs
    d_dests = dec.dests
    d_lat = dec.latency
    d_mem = dec.mem_exec
    d_load = dec.is_load
    d_store = dec.is_store
    d_branch = dec.is_branch
    d_restart = dec.is_restart
    d_executed = dec.executed
    d_stop = dec.stop
    d_addr = dec.addr
    d_value = dec.value
    d_taken = dec.taken
    d_pc = dec.pc
    port_code = core._port_code
    # Advance-dispatch class (0 ALU/other, 1 nullified, 2 branch,
    # 3 store, 4 load), trace-static and shared across models.
    d_kind = columns_of(dec).multipass_kind()

    config = core.config
    frontend = core.frontend
    stats = core.stats
    replay = core.replay
    # TraceEntry objects only for the --check replay; the static fields
    # the kernel needs beyond the decoded columns come from the program.
    entries = trace.entries if replay is not None else None
    insts = trace.program.instructions
    buffer_size = core.buffer_size
    ports = config.ports
    width = ports.width
    m_ports = ports.m_ports
    i_ports = ports.i_ports
    f_ports = ports.f_ports
    b_ports = ports.b_ports
    mispredict_penalty = config.mispredict_penalty
    advance_entry_delay = config.advance_entry_delay
    advance_restart_refill = config.advance_restart_refill
    flush_penalty = config.flush_penalty

    # Column-level model flags: runahead and two-pass inherit the kernel
    # purely through these (no subclass hooks on the fast path).
    enable_regroup = core.enable_regroup
    enable_restart = core.enable_restart
    if not enable_restart:
        # Fold the model flag into the column: one falsy subscript per
        # slot instead of a flag test plus a subscript.
        d_restart = bytes(len(d_restart))
    persist = core.persist_results
    l1_miss_writes_srf = core.l1_miss_writes_srf
    hardware_restart = core.hardware_restart
    hw_window = core.hw_restart_window
    hw_fraction = core.hw_restart_fraction
    rally_refill = core.rally_exit_refill

    reg_ready = core.reg_ready
    pending = core.load_miss_pending
    epoch = core._srf_epoch
    srf_ready = core._srf_ready
    pready_stamp = core._pready_stamp
    pready_val = core._pready_val
    mem_vals = core.mem_vals
    # Fused SRF/poison state: one stamp cell per register, holding
    # ``epoch * 4 + 1`` (A-bit set, value time in ``srf_ready``) or
    # ``epoch * 4 + 2`` (I-bit set); anything below the pass's ``sA``
    # is stale, so a pass reset stays a single epoch bump.  This is
    # exactly the scalar loop's two stamp arrays folded together:
    # every I-bit write there clears the A-bit and vice versa (the
    # A-bit shadows the I-bit for readers), so one last-write-wins
    # cell per register carries the same observable state.  The
    # pready hint keeps its own stamp column — its deliberately
    # longer lifetime (cleared only by real values, surviving merges)
    # is the hint-lifetime quirk the restart paths depend on.
    sp_state = [0] * len(srf_ready)
    sA = epoch * 4 + 1
    sI = sA + 1

    # Inline L1 fast paths (same discipline as the OOO kernel): probe
    # the L1 dicts directly, fall back to ``hierarchy.access`` whenever
    # the line is absent or any fill is pending.
    hierarchy = core.hierarchy
    access = hierarchy.access
    h_pending = hierarchy._pending
    l1i_cache = hierarchy.l1i
    l1i_id = id(l1i_cache)
    l1i_sets = l1i_cache._sets
    l1i_nsets = l1i_cache._num_sets
    l1i_latency = l1i_cache.config.latency
    l1d_cache = hierarchy.l1d
    l1d_id = id(l1d_cache)
    l1d_sets = l1d_cache._sets
    l1d_line = l1d_cache._line_size
    l1d_nsets = l1d_cache._num_sets
    l1d_latency = l1d_cache.config.latency
    # L1 hit-path statistics and LRU clocks, localized.  ``access``
    # reads and advances the same counters, so every fallback call is
    # bracketed by a write-back/reload pair (and refreshes the pending
    # horizon, which only ``access`` extends).
    l1i_acc = l1i_cache.accesses
    l1i_hit = l1i_cache.hits
    l1i_clk = l1i_cache._clock
    l1d_acc = l1d_cache.accesses
    l1d_hit = l1d_cache.hits
    l1d_clk = l1d_cache._clock
    h_horizon = hierarchy._pending_horizon
    fetch_width = frontend._fetch_width
    inst_bytes = frontend._inst_bytes
    f_pcs = frontend._pcs
    f_lines = frontend._lines
    # Same-line fetch runs: ``f_run[i]`` is the first seq past ``i`` on
    # a different cache line, so a fetch group whose line is already
    # hot advances to the run end in one step instead of per-seq.
    f_run = columns_of(dec).fetch_runs(inst_bytes,
                                       frontend._line_size)
    # Front-end scalars, localized for the whole run (written back at
    # the bottom; nothing else reads them while the kernel runs).
    f_fetched = frontend.fetched_until
    f_stall = frontend.stall_until
    f_last = frontend._last_line
    fe_redirects = 0

    # Branch predictor state, inlined (two table reads and a history
    # shift per update).
    predictor = frontend.predictor
    bp_counters = predictor._counters
    bp_mask = predictor._mask
    bp_hist_mask = (1 << predictor._history_bits) - 1
    bp_history = predictor._history
    n_bp = n_bp_wrong = 0
    #: 2-bit counter transition tables (branchless saturating update).
    BP_INC = (1, 2, 3, 3)
    BP_DEC = (0, 0, 1, 2)

    # Result store, flattened into per-seq columns.  A seq's address
    # and store-ness are pure functions of the trace (``d_addr`` /
    # ``d_store``), so they are never stored; ``rs_sbit`` is only ever
    # written by load puts (a seq's kind is fixed), so non-load entries
    # read a pristine 0 and no flush has to wipe it; ``rs_value`` is
    # only read under ``rs_sbit``, so only data-speculative puts write
    # it.  Counter semantics match ``ResultStore`` exactly.
    rs_live = bytearray(n)
    rs_ready = [0] * n
    rs_value: list = [None] * n
    rs_sbit = bytearray(n)
    rs_hi = 0                      # exclusive live high-water mark
    n_rs_writes = n_rs_reads = n_rs_merges = 0

    # Advance store cache, flattened: per-set dicts with generation
    # stamps; ``clear()`` is one ``asc_gen`` bump.
    asc = core.asc
    asc_assoc = asc.assoc
    asc_nsets = asc.num_sets
    asc_word = asc.word_size
    asc_sets: list = [{} for _ in range(asc_nsets)]
    asc_set_gen = [0] * asc_nsets
    asc_rep_gen = [0] * asc_nsets
    asc_gen = 1
    asc_clock = 0
    n_asc_writes = n_asc_reads = n_asc_forwards = n_asc_repl = 0

    # pready fill calendar for the hardware-restart rendezvous query
    # (dormant unless the ablation is enabled — pushes are gated so the
    # primary models pay nothing for it).  Entries are (cycle, reg,
    # epoch) in both tiers — the rendezvous min-scans wheel slots out
    # of drain order, so wheel entries carry their time explicitly.
    # Staleness = epoch mismatch, hint cleared, or hint overwritten
    # with a different fill time (see repro.pipeline.eventq).
    cal = EventCalendar()
    wheel = cal.wheel
    heap = cal.heap

    # Mode machine state (0 = architectural, 1 = advance, 2 = rally).
    mode = 0
    arch_ptr = core.arch_ptr
    adv_ptr = core.adv_ptr
    max_peek = core.max_peek
    trigger_seq = core.trigger_seq
    trigger_ready = core.trigger_ready
    adv_stall_until = core.adv_stall_until
    arch_stall_until = core.arch_stall_until
    unknown_store = core.unknown_store
    pass_dead = core.pass_dead
    pass_execs = core._pass_execs
    pass_defers = core._pass_defers

    EXECUTION = StallCategory.EXECUTION
    FRONT_END = StallCategory.FRONT_END
    LOAD = StallCategory.LOAD
    OTHER = StallCategory.OTHER
    NOP = Opcode.NOP
    c_exec = c_fe = c_load = c_other = 0
    n_instructions = 0
    n_iq_peeks = n_iq_dequeues = n_waw_stalls = 0
    n_advance_cycles = n_rally_cycles = 0
    n_advance_entries = n_advance_restarts = n_hw_restarts = 0
    n_advance_merges = n_advance_deferrals = n_advance_wrong = 0
    n_unknown_stores = n_advance_execs = 0
    n_advance_branches = n_advance_redirects = 0
    n_advance_loads = n_sbit_loads = n_advance_load_misses = 0
    n_advance_stores = 0
    n_rally_merges = n_smaq_reads = n_sbit_verifications = 0
    n_value_flushes = n_mispredicts = 0
    n_loads = n_load_misses = 0
    n_refills = 0
    now = 0

    # Timeline recording, decided here once: ``rec`` guards every
    # recording site (see docs/architecture.md §13 for what each one
    # records and where the scalar loop records the same thing).
    tl = core.tracer if core.tracer.enabled else None
    rec = tl is not None
    if rec:
        tl_charge = tl.charge
        tl_miss = tl.cache_miss
        l1d_name = l1d_cache.config.name
        from .core import Mode
        mode_names = (Mode.ARCHITECTURAL.value, Mode.ADVANCE.value,
                      Mode.RALLY.value)
        recorded_mode = -1             # no mode span open yet

    while arch_ptr < n:
        if now > max_cycles:
            core.check_cycle_budget(now, max_cycles)

        # ---- fetch (inlined frontend.tick) ----------------------------
        if f_fetched < n and now >= f_stall:
            limit = arch_ptr + buffer_size
            if limit > n:
                limit = n
            if f_fetched < limit:
                stop = f_fetched + fetch_width
                if stop > limit:
                    stop = limit
                fu = first = f_fetched
                last = f_last
                while fu < stop:
                    line = f_lines[fu]
                    if line != last:
                        cset = l1i_sets[line % l1i_nsets]
                        if cset is not None and line in cset:
                            # L1I hit: bump stats and LRU exactly like
                            # Cache.access; serve a still-in-flight
                            # fill with its remaining time, like the
                            # hierarchy's pending probe.
                            fill_wait = 0
                            if h_pending and now < h_horizon:
                                key = (l1i_id, line)
                                r = h_pending.get(key)
                                if r is not None:
                                    if r <= now:
                                        del h_pending[key]
                                    else:
                                        fill_wait = r - now
                            l1i_acc += 1
                            l1i_clk += 1
                            cset[line] = l1i_clk
                            l1i_hit += 1
                            if fill_wait > l1i_latency:
                                f_stall = now + fill_wait
                                frontend.icache_stall_cycles += fill_wait
                                f_last = line
                                f_fetched = fu
                                break
                        else:
                            l1i_cache.accesses = l1i_acc
                            l1i_cache.hits = l1i_hit
                            l1i_cache._clock = l1i_clk
                            result = access(f_pcs[fu] * inst_bytes, now,
                                            "ifetch")
                            l1i_acc = l1i_cache.accesses
                            l1i_hit = l1i_cache.hits
                            l1i_clk = l1i_cache._clock
                            h_horizon = hierarchy._pending_horizon
                            if result.latency > l1i_latency:
                                f_stall = result.ready
                                frontend.icache_stall_cycles += \
                                    result.latency
                                f_last = line
                                f_fetched = fu
                                break
                        last = line
                    # The rest of this line's run needs no new probe.
                    e = f_run[fu]
                    fu = e if e < stop else stop
                else:
                    f_last = last
                    f_fetched = fu
                if rec and f_fetched > first:
                    tl.fetch_many(now, range(first, f_fetched))

        if mode == 1 and now >= trigger_ready:
            # Rally entry: unlatch the architectural stream (one pass
            # reset = one generation bump on every stamped structure).
            mode = 2
            pass_execs = 0
            pass_defers = 0
            epoch += 1
            sA += 4
            sI += 4
            asc_gen += 1
            unknown_store = False
            pass_dead = False
            if rally_refill:
                # Runahead pays a checkpoint-restore refill on exit.
                t = now + mispredict_penalty
                if t > arch_stall_until:
                    arch_stall_until = t
                n_refills += 1
        if rec and mode != recorded_mode:
            # The mode occupying this cycle; skips never cross a change.
            tl.mode(now, mode_names[mode])
            recorded_mode = mode

        if mode == 1:
            # ---- advance-mode issue (one cycle) -----------------------
            new_execs = 0
            wake = _INF
            peeks = 0
            restarted = False
            if pass_dead:
                pass
            elif now < adv_stall_until:
                wake = adv_stall_until
            else:
                m_used = i_used = f_used = b_used = 0
                window_end = f_fetched
                if n < window_end:
                    window_end = n
                lim = arch_ptr + buffer_size
                if lim < window_end:
                    window_end = lim
                if (adv_ptr + width <= window_end and rs_live[adv_ptr]
                        and not hardware_restart
                        and (f_fetched >= n or f_fetched >= lim)):
                    # Bulk pure-merge fast path: a restarted pass
                    # re-walking preserved results merges exactly
                    # ``width`` entries per cycle with no effect beyond
                    # SRF refreshes.  With fetch quiescent (window
                    # frozen) and no restart calendar to consult, whole
                    # such cycles are replayed in one step; the first
                    # partial cycle falls through to the slot loop.
                    i = adv_ptr
                    while (i < window_end and rs_live[i]
                           and rs_ready[i] <= now):
                        i += 1
                    cycles = (i - adv_ptr) // width
                    tmax = trigger_ready - now
                    if cycles > tmax:
                        cycles = tmax
                    if cycles > 0:
                        count = cycles * width
                        n_iq_peeks += count
                        n_rs_reads += count
                        n_advance_merges += count
                        cyc = now
                        left = width
                        for seq in range(adv_ptr, adv_ptr + count):
                            for dest in d_dests[seq]:
                                sp_state[dest] = sA
                                srf_ready[dest] = cyc
                            left -= 1
                            if not left:
                                left = width
                                cyc += 1
                        if rec:
                            for k in range(count):
                                seq = adv_ptr + k
                                tl.rs_hit(now + k // width, seq, d_pc[seq],
                                          "advance")
                            # Merges are not executions: every replayed
                            # cycle is charged to the trigger load.
                            tl_charge(now, LOAD, trigger_seq,
                                      d_pc[trigger_seq], cycles)
                        adv_ptr += count
                        if adv_ptr > max_peek:
                            max_peek = adv_ptr
                        n_advance_cycles += cycles
                        c_load += cycles
                        now += cycles
                        continue
                slots = 0
                if adv_ptr < window_end and width:
                    # The scalar loop re-arms wake=None at the top of
                    # every slot; only the final iteration's value
                    # survives, so arming once before the loop (and on
                    # the explicit break paths) is equivalent.
                    wake = None
                while adv_ptr < window_end and slots < width:
                    seq = adv_ptr
                    n_iq_peeks += 1

                    # Only persistent models ever set a live bit, so the
                    # probe needs no ``persist`` guard.
                    if rs_live[seq]:
                        n_rs_reads += 1
                        r = rs_ready[seq]
                        if r > now:
                            # Result (typically a missing load from an
                            # earlier pass) still in flight: consumers
                            # stay deferred.
                            for dest in d_dests[seq]:
                                sp_state[dest] = sI
                                pready_stamp[dest] = epoch
                                pready_val[dest] = r
                                if hardware_restart:
                                    if r - now < WHEEL:
                                        slot = wheel[r & 63]
                                        if slot:
                                            slot[:] = [
                                                e for e in slot
                                                if e[2] == epoch
                                                and e[0] > now]
                                        slot.append((r, dest, epoch))
                                    else:
                                        heappush(heap, (r, dest, epoch))
                            adv_ptr = seq + 1
                            slots += 1
                            continue
                        # Preserved result: no re-execution.
                        for dest in d_dests[seq]:
                            sp_state[dest] = sA
                            srf_ready[dest] = now
                        n_advance_merges += 1
                        if rec:
                            tl.rs_hit(now, seq, d_pc[seq], "advance")
                        adv_ptr = seq + 1
                        slots += 1
                        continue

                    if d_restart[seq]:
                        # RESTART with an unready operand rewinds the
                        # pass to the trigger (Section 3.3).
                        ok = True
                        for src in d_srcs[seq]:
                            st = sp_state[src]
                            if st < sA:
                                if reg_ready[src] > now:
                                    ok = False
                                    break
                            elif st == sA:
                                if srf_ready[src] > now:
                                    ok = False
                                    break
                            else:
                                ok = False
                                break
                        if not ok:
                            hint = -1
                            for src in d_srcs[seq]:
                                if pready_stamp[src] == epoch:
                                    h = pready_val[src]
                                elif pending[src]:
                                    h = pending[src]
                                else:
                                    continue
                                if h > hint:
                                    hint = h
                            pass_execs = 0
                            pass_defers = 0
                            epoch += 1
                            sA += 4
                            sI += 4
                            asc_gen += 1
                            unknown_store = False
                            pass_dead = False
                            # Bump the lazy RS high-water before the
                            # rewind: puts earlier this cycle sit below
                            # the pre-rewind adv_ptr.
                            if persist and adv_ptr > rs_hi:
                                rs_hi = adv_ptr
                            adv_ptr = trigger_seq
                            refill = now + advance_restart_refill
                            if hint >= 0:
                                alt = hint - advance_restart_refill
                                if alt > refill:
                                    refill = alt
                            adv_stall_until = refill
                            n_advance_restarts += 1
                            if rec:
                                tl.restart(now, trigger_seq,
                                           d_pc[trigger_seq])
                            wake = None
                            peeks = 0
                            restarted = True
                            break
                        adv_ptr = seq + 1
                        slots += 1
                        continue

                    # Classify operands: ready / wait / invalid (the
                    # first invalid source wins, like the scalar walk).
                    wait_until_a = now
                    invalid = False
                    for src in d_srcs[seq]:
                        st = sp_state[src]
                        if st == sA:                   # A-bit: SRF value
                            r = srf_ready[src]
                            if r > wait_until_a:
                                wait_until_a = r
                        elif st < sA:                  # stale: arch state
                            ar = reg_ready[src]
                            if ar > now:
                                if pending[src] > now:
                                    invalid = True  # missing load: defer
                                    break
                                if ar > wait_until_a:
                                    wait_until_a = ar
                        else:                          # I-bit
                            invalid = True
                            break

                    if invalid:
                        # Suppress: poison the destinations.
                        n_advance_deferrals += 1
                        for dest in d_dests[seq]:
                            sp_state[dest] = sI
                        if d_branch[seq]:
                            # Direction unknown: follow the prediction;
                            # a disagreement means the rest of the pass
                            # is down the wrong path.
                            predicted = bp_counters[
                                (d_pc[seq] ^ bp_history) & bp_mask] >= 2
                            if predicted != d_taken[seq]:
                                pass_dead = True
                                n_advance_wrong += 1
                        elif d_store[seq]:
                            inst = insts[d_pc[seq]]
                            data_reg = inst.srcs[0]
                            base_reg = inst.srcs[1]
                            st = sp_state[base_reg]
                            base_inv = (
                                st != sA
                                and (st == sI
                                     or (reg_ready[base_reg] > now
                                         and pending[base_reg] > now)))
                            if base_inv or d_addr[seq] is None:
                                unknown_store = True
                                n_unknown_stores += 1
                            else:
                                st = sp_state[data_reg]
                                data_inv = (
                                    st != sA
                                    and (st == sI
                                         or (reg_ready[data_reg] > now
                                             and pending[data_reg]
                                             > now)))
                                if data_inv:
                                    # ASC write of the INVALID marker.
                                    n_asc_writes += 1
                                    asc_clock += 1
                                    addr = d_addr[seq]
                                    si = (addr // asc_word) % asc_nsets
                                    if asc_set_gen[si] != asc_gen:
                                        asc_sets[si].clear()
                                        asc_set_gen[si] = asc_gen
                                    aset = asc_sets[si]
                                    if addr not in aset and \
                                            len(aset) >= asc_assoc:
                                        victim = min(
                                            aset,
                                            key=lambda a: aset[a][1])
                                        del aset[victim]
                                        asc_rep_gen[si] = asc_gen
                                        n_asc_repl += 1
                                    aset[addr] = (INVALID, asc_clock)
                        adv_ptr = seq + 1
                        pass_defers += 1
                        slots += 1
                        if pass_dead:
                            break
                        continue

                    if wait_until_a > now:
                        # In-order advance stream waits for a bypass.
                        if slots == 0:
                            wake = wait_until_a
                            peeks = 1
                        break

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

                    n_advance_execs += 1
                    if rec:
                        tl.issue(now, seq, d_pc[seq], "advance")
                    k = d_kind[seq]
                    if k == 1:
                        # Predicate-nullified: flows through.
                        if persist:
                            n_rs_writes += 1
                            rs_live[seq] = 1
                            rs_ready[seq] = now + 1
                        if d_branch[seq]:
                            # Early resolve + train (nullified branches
                            # train not-taken).
                            idx = (d_pc[seq] ^ bp_history) & bp_mask
                            counter = bp_counters[idx]
                            n_bp += 1
                            bp_counters[idx] = BP_DEC[counter]
                            bp_history = (bp_history << 1) & bp_hist_mask
                            n_advance_branches += 1
                            if counter >= 2:
                                n_bp_wrong += 1
                                t = now + mispredict_penalty
                                if t > adv_stall_until:
                                    adv_stall_until = t
                                n_advance_redirects += 1
                        adv_ptr = seq + 1
                    elif k == 2:
                        # Resolve during preexecution: train early; a
                        # would-be mispredict charges the *advance*
                        # stream, and rally later merges with no flush.
                        idx = (d_pc[seq] ^ bp_history) & bp_mask
                        counter = bp_counters[idx]
                        tk = d_taken[seq]
                        n_bp += 1
                        if tk:
                            bp_counters[idx] = BP_INC[counter]
                            bp_history = ((bp_history << 1) | 1) \
                                & bp_hist_mask
                            wrong = counter < 2
                        else:
                            bp_counters[idx] = BP_DEC[counter]
                            bp_history = (bp_history << 1) & bp_hist_mask
                            wrong = counter >= 2
                        n_advance_branches += 1
                        if wrong:
                            n_bp_wrong += 1
                            t = now + mispredict_penalty
                            if t > adv_stall_until:
                                adv_stall_until = t
                            n_advance_redirects += 1
                        if persist:
                            n_rs_writes += 1
                            rs_live[seq] = 1
                            rs_ready[seq] = now + 1
                        adv_ptr = seq + 1
                    elif k == 3:
                        # ASC write of the store data.
                        n_asc_writes += 1
                        asc_clock += 1
                        addr = d_addr[seq]
                        si = (addr // asc_word) % asc_nsets
                        if asc_set_gen[si] != asc_gen:
                            asc_sets[si].clear()
                            asc_set_gen[si] = asc_gen
                        aset = asc_sets[si]
                        if addr not in aset and len(aset) >= asc_assoc:
                            victim = min(aset, key=lambda a: aset[a][1])
                            del aset[victim]
                            asc_rep_gen[si] = asc_gen
                            n_asc_repl += 1
                        aset[addr] = (d_value[seq], asc_clock)
                        n_advance_stores += 1
                        if persist:
                            n_rs_writes += 1
                            rs_live[seq] = 1
                            rs_ready[seq] = now + 1
                        adv_ptr = seq + 1
                    elif k == 4:
                        # Advance load: ASC forwarding, prefetch, the
                        # Section 3.5 WAW rule and S-bits.
                        addr = d_addr[seq]
                        n_asc_reads += 1
                        si = (addr // asc_word) % asc_nsets
                        if asc_set_gen[si] == asc_gen:
                            e = asc_sets[si].get(addr)
                        else:
                            e = None
                        if e is not None:
                            outcome = 2 if e[0] is INVALID else 1
                        elif asc_rep_gen[si] == asc_gen:
                            outcome = 3        # miss-speculative
                        else:
                            outcome = 0        # miss
                        # Prefetch effect (inline L1D hit fast path).
                        line = addr // l1d_line
                        cset = l1d_sets[line % l1d_nsets]
                        if cset is not None and line in cset:
                            fill_wait = 0
                            if h_pending and now < h_horizon:
                                key = (l1d_id, line)
                                r = h_pending.get(key)
                                if r is not None:
                                    if r <= now:
                                        del h_pending[key]
                                    else:
                                        fill_wait = r - now
                            l1d_acc += 1
                            l1d_clk += 1
                            cset[line] = l1d_clk
                            l1d_hit += 1
                            if fill_wait:
                                l1_miss = True
                                lat = (fill_wait
                                       if fill_wait > l1d_latency
                                       else l1d_latency)
                                if rec:
                                    tl_miss(now, seq, d_pc[seq], l1d_name)
                            else:
                                l1_miss = False
                                lat = l1d_latency
                            res_ready = now + lat
                        else:
                            l1d_cache.accesses = l1d_acc
                            l1d_cache.hits = l1d_hit
                            l1d_cache._clock = l1d_clk
                            result = access(addr, now)
                            l1d_acc = l1d_cache.accesses
                            l1d_hit = l1d_cache.hits
                            l1d_clk = l1d_cache._clock
                            h_horizon = hierarchy._pending_horizon
                            l1_miss = result.l1_miss
                            res_ready = result.ready
                            if rec and l1_miss:
                                tl_miss(now, seq, d_pc[seq], result.level)
                        n_advance_loads += 1
                        if outcome == 1:       # ASC hit: forward
                            for dest in d_dests[seq]:
                                sp_state[dest] = sA
                                srf_ready[dest] = now + 1
                                pready_stamp[dest] = 0
                            if persist:
                                n_rs_writes += 1
                                rs_live[seq] = 1
                                rs_ready[seq] = now + 1
                                rs_sbit[seq] = 0
                            n_asc_forwards += 1
                        elif outcome == 2:     # hit-invalid: suppress
                            for dest in d_dests[seq]:
                                sp_state[dest] = sI
                        else:
                            if unknown_store or outcome == 3:
                                data_spec = 1
                                observed = mem_vals.get(addr, 0)
                                n_sbit_loads += 1
                            else:
                                data_spec = 0
                                observed = d_value[seq]
                            if persist:
                                n_rs_writes += 1
                                rs_live[seq] = 1
                                rs_ready[seq] = res_ready
                                rs_value[seq] = observed
                                rs_sbit[seq] = data_spec
                            if not l1_miss:
                                for dest in d_dests[seq]:
                                    sp_state[dest] = sA
                                    srf_ready[dest] = res_ready
                                    pready_stamp[dest] = 0
                            elif l1_miss_writes_srf:
                                # Section 3.5 ablation: expose the fill
                                # through the SRF.
                                n_advance_load_misses += 1
                                for dest in d_dests[seq]:
                                    sp_state[dest] = sA
                                    srf_ready[dest] = res_ready
                                    pready_stamp[dest] = 0
                            else:
                                # Section 3.5: consumers defer to a
                                # later pass (the RS catches the fill).
                                n_advance_load_misses += 1
                                for dest in d_dests[seq]:
                                    sp_state[dest] = sI
                                    pready_stamp[dest] = epoch
                                    pready_val[dest] = res_ready
                                    if hardware_restart:
                                        if res_ready - now < WHEEL:
                                            slot = wheel[res_ready & 63]
                                            if slot:
                                                slot[:] = [
                                                    e for e in slot
                                                    if e[2] == epoch
                                                    and e[0] > now]
                                            slot.append(
                                                (res_ready, dest, epoch))
                                        else:
                                            heappush(heap, (res_ready,
                                                            dest, epoch))
                        adv_ptr = seq + 1
                    else:
                        # ALU / FP / mul-div / nop.
                        latency = d_lat[seq]
                        dests = d_dests[seq]
                        for dest in dests:
                            sp_state[dest] = sA
                            srf_ready[dest] = now + latency
                            pready_stamp[dest] = 0
                        if persist and (dests or insts[d_pc[seq]].opcode
                                        is NOP):
                            n_rs_writes += 1
                            rs_live[seq] = 1
                            rs_ready[seq] = now + latency
                        adv_ptr = seq + 1
                    new_execs += 1
                    pass_execs += 1
                    slots += 1

                # RS puts above track the high-water lazily: every put
                # seq is < adv_ptr by loop end, so one bump keeps rs_hi
                # a valid upper bound (reads only tighten downward).
                if persist and adv_ptr > rs_hi:
                    rs_hi = adv_ptr

                if hardware_restart and not pass_dead and not restarted:
                    # Footnote-1 mechanism: a fruitless pass restarts
                    # itself when there is an in-flight fill to
                    # rendezvous with.  min-pending query over the
                    # epoch-stamped fill calendar (wheel slots scanned
                    # in arrival order, then the far heap).
                    processed = pass_execs + pass_defers
                    if processed >= hw_window and \
                            pass_execs < processed * hw_fraction:
                        best = _INF
                        for k in range(WHEEL):
                            slot = wheel[(now + 1 + k) & 63]
                            if not slot:
                                continue
                            found = False
                            live = []
                            for e in slot:
                                if (e[2] == epoch and e[0] > now
                                        and pready_stamp[e[1]] == epoch
                                        and pready_val[e[1]] == e[0]):
                                    live.append(e)
                                    found = True
                            slot[:] = live
                            if found:
                                # All live entries in one slot share a
                                # fill cycle (unique residue in the
                                # wheel horizon).
                                best = live[0][0]
                                break
                        while heap:
                            e = heap[0]
                            if (e[2] != epoch or e[0] <= now
                                    or pready_stamp[e[1]] != epoch
                                    or pready_val[e[1]] != e[0]):
                                heappop(heap)
                                continue
                            if e[0] < best:
                                best = e[0]
                            break
                        if best < _INF:
                            pass_execs = 0
                            pass_defers = 0
                            epoch += 1
                            sA += 4
                            sI += 4
                            asc_gen += 1
                            unknown_store = False
                            pass_dead = False
                            adv_ptr = trigger_seq
                            refill = now + advance_restart_refill
                            alt = best - advance_restart_refill
                            if alt > refill:
                                refill = alt
                            adv_stall_until = refill
                            n_advance_restarts += 1
                            n_hw_restarts += 1
                            if rec:
                                tl.restart(now, trigger_seq,
                                           d_pc[trigger_seq])
                            wake = None

            if adv_ptr > max_peek:
                max_peek = adv_ptr
            if new_execs:
                c_exec += 1
                if rec:
                    tl_charge(now, EXECUTION)
            else:
                # No new executions: the cycle belongs to the latency
                # that initiated advance mode.
                c_load += 1
                if rec:
                    tl_charge(now, LOAD, trigger_seq, d_pc[trigger_seq])
            n_advance_cycles += 1
            now += 1
            if wake is not None and not new_execs:
                # Nothing can change before min(wake, trigger_ready):
                # jump there, replicating the per-cycle attribution and
                # poll counters.
                target = wake if wake < trigger_ready else trigger_ready
                if target > now:
                    limit = arch_ptr + buffer_size
                    if limit > n:
                        limit = n
                    if f_fetched < limit:
                        if f_stall > now:
                            skip_to = (target if target < f_stall
                                       else f_stall)
                        else:
                            skip_to = now
                    else:
                        skip_to = target
                    if skip_to > now:
                        k = skip_to - now
                        c_load += k
                        n_advance_cycles += k
                        if peeks:
                            n_iq_peeks += peeks * k
                        if rec:
                            tl_charge(now, LOAD, trigger_seq,
                                      d_pc[trigger_seq], k)
                        now = skip_to
            continue

        if now < arch_stall_until:
            c_other += 1
            if rec:
                tl_charge(now, OTHER)
            now += 1
            if arch_stall_until > now:
                limit = arch_ptr + buffer_size
                if limit > n:
                    limit = n
                if f_fetched < limit:
                    if f_stall > now:
                        skip_to = (arch_stall_until
                                   if arch_stall_until < f_stall
                                   else f_stall)
                    else:
                        skip_to = now
                else:
                    skip_to = arch_stall_until
                if skip_to > now:
                    c_other += skip_to - now
                    if rec:
                        tl_charge(now, OTHER, cycles=skip_to - now)
                    now = skip_to
            continue

        if (mode == 2 and enable_regroup
                and arch_ptr + width <= max_peek and rs_live[arch_ptr]):
            # Bulk rally-merge fast path: with dynamic regrouping, a
            # run of preserved non-store, non-S-bit results merges
            # exactly ``width`` per cycle (merges consume no ports) and
            # touches only ``reg_ready``/``pending``.  Replay whole
            # such cycles here — fetch still advances per cycle — and
            # stop strictly before ``max_peek`` so the rally-exit check
            # of the ordinary path below stays the one that fires.
            i = arch_ptr
            bound = max_peek - 1
            while (i < bound and rs_live[i] and not rs_sbit[i]
                   and rs_ready[i] <= now and not d_store[i]):
                i += 1
            cycles = (i - arch_ptr) // width
            if cycles > 0:
                aptr = arch_ptr
                cyc = now
                for ci in range(cycles):
                    # Inline fetch at ``cyc`` (same as the top block);
                    # the first batched cycle's fetch already ran at
                    # the top of the main loop.
                    if ci and f_fetched < n and cyc >= f_stall:
                        limit = aptr + buffer_size
                        if limit > n:
                            limit = n
                        if f_fetched < limit:
                            stop = f_fetched + fetch_width
                            if stop > limit:
                                stop = limit
                            fu = first = f_fetched
                            last = f_last
                            while fu < stop:
                                line = f_lines[fu]
                                if line != last:
                                    cset = l1i_sets[line % l1i_nsets]
                                    if cset is not None and line in cset:
                                        fill_wait = 0
                                        if h_pending and cyc < h_horizon:
                                            key = (l1i_id, line)
                                            r = h_pending.get(key)
                                            if r is not None:
                                                if r <= cyc:
                                                    del h_pending[key]
                                                else:
                                                    fill_wait = r - cyc
                                        l1i_acc += 1
                                        l1i_clk += 1
                                        cset[line] = l1i_clk
                                        l1i_hit += 1
                                        if fill_wait > l1i_latency:
                                            f_stall = cyc + fill_wait
                                            frontend \
                                                .icache_stall_cycles \
                                                += fill_wait
                                            f_last = line
                                            f_fetched = fu
                                            break
                                    else:
                                        l1i_cache.accesses = l1i_acc
                                        l1i_cache.hits = l1i_hit
                                        l1i_cache._clock = l1i_clk
                                        result = access(
                                            f_pcs[fu] * inst_bytes, cyc,
                                            "ifetch")
                                        l1i_acc = l1i_cache.accesses
                                        l1i_hit = l1i_cache.hits
                                        l1i_clk = l1i_cache._clock
                                        h_horizon = \
                                            hierarchy._pending_horizon
                                        if result.latency > l1i_latency:
                                            f_stall = result.ready
                                            frontend \
                                                .icache_stall_cycles \
                                                += result.latency
                                            f_last = line
                                            f_fetched = fu
                                            break
                                    last = line
                                e = f_run[fu]
                                fu = e if e < stop else stop
                            else:
                                f_last = last
                                f_fetched = fu
                            if rec and f_fetched > first:
                                tl.fetch_many(cyc, range(first, f_fetched))
                    for seq in range(aptr, aptr + width):
                        rs_live[seq] = 0
                        if replay is not None:
                            replay.commit(entries[seq])
                        for dest in d_dests[seq]:
                            reg_ready[dest] = cyc
                            pending[dest] = 0
                    if rec:
                        for seq in range(aptr, aptr + width):
                            tl.rs_hit(cyc, seq, d_pc[seq], "rally")
                        tl.commit_many(cyc, range(aptr, aptr + width))
                    aptr += width
                    cyc += 1
                count = cycles * width
                n_iq_dequeues += count
                n_rs_merges += count
                n_rally_merges += count
                n_instructions += count
                arch_ptr = aptr
                n_rally_cycles += cycles
                c_exec += cycles
                if rec:
                    tl_charge(now, EXECUTION)
                now = cyc
                continue

        # ---- architectural / rally issue ------------------------------
        fetched_until = f_fetched
        m_used = i_used = f_used = b_used = 0
        issued = 0
        reason_load = False
        wait_until = now + 1
        trigger = -1
        wake = _INF
        dq = waw_poll = 0
        aptr = arch_ptr
        rallying = aptr < max_peek
        dynamic_groups = enable_regroup and rallying

        if aptr < fetched_until and width:
            # Same pre-arming as the advance loop: the scalar reference
            # resets wake=None per dequeue; only the last value is read.
            wake = None
        while aptr < fetched_until and issued < width:
            seq = aptr
            n_iq_dequeues += 1

            if rs_live[seq]:
                if rs_ready[seq] > now:
                    # Preserved result still in flight: the rally
                    # stream stalls on it and re-triggers advance mode.
                    reason_load = True
                    wait_until = rs_ready[seq]
                    trigger = seq
                    break
                if not rs_sbit[seq]:
                    # Merge the preserved result (no re-execution).
                    rs_live[seq] = 0
                    n_rs_merges += 1
                    n_rally_merges += 1
                    n_instructions += 1
                    if replay is not None:
                        replay.commit(entries[seq])
                    if rec:
                        tl.rs_hit(now, seq, d_pc[seq], "rally")
                    for dest in d_dests[seq]:
                        reg_ready[dest] = now
                        pending[dest] = 0
                    if d_store[seq]:
                        # Pre-executed store re-performs its access via
                        # the SMAQ address (Section 3.6).
                        addr = d_addr[seq]
                        line = addr // l1d_line
                        cset = l1d_sets[line % l1d_nsets]
                        if cset is not None and line in cset:
                            if h_pending and now < h_horizon:
                                key = (l1d_id, line)
                                r = h_pending.get(key)
                                if r is not None and r <= now:
                                    del h_pending[key]
                            l1d_acc += 1
                            l1d_clk += 1
                            cset[line] = l1d_clk
                            l1d_hit += 1
                        else:
                            l1d_cache.accesses = l1d_acc
                            l1d_cache.hits = l1d_hit
                            l1d_cache._clock = l1d_clk
                            access(addr, now, kind="store")
                            l1d_acc = l1d_cache.accesses
                            l1d_hit = l1d_cache.hits
                            l1d_clk = l1d_cache._clock
                            h_horizon = hierarchy._pending_horizon
                        mem_vals[addr] = d_value[seq]
                        n_smaq_reads += 1
                    # A pre-resolved branch merges with no flush
                    # (already_resolved: the front end moved on).
                    issued += 1
                    aptr = seq + 1
                    if not dynamic_groups and d_stop[seq]:
                        break
                    continue
                if m_used >= m_ports:
                    break
                m_used += 1
                # S-bit verification: re-perform the load and compare.
                rs_live[seq] = 0
                n_rs_merges += 1
                n_sbit_verifications += 1
                n_smaq_reads += 1
                addr = d_addr[seq]
                line = addr // l1d_line
                cset = l1d_sets[line % l1d_nsets]
                if cset is not None and line in cset:
                    fill_wait = 0
                    if h_pending and now < h_horizon:
                        key = (l1d_id, line)
                        r = h_pending.get(key)
                        if r is not None:
                            if r <= now:
                                del h_pending[key]
                            else:
                                fill_wait = r - now
                    l1d_acc += 1
                    l1d_clk += 1
                    cset[line] = l1d_clk
                    l1d_hit += 1
                    if fill_wait:
                        l1_miss = True
                        latency = (fill_wait if fill_wait > l1d_latency
                                   else l1d_latency)
                        if rec:
                            tl_miss(now, seq, d_pc[seq], l1d_name)
                    else:
                        l1_miss = False
                        latency = l1d_latency
                else:
                    l1d_cache.accesses = l1d_acc
                    l1d_cache.hits = l1d_hit
                    l1d_cache._clock = l1d_clk
                    result = access(addr, now)
                    l1d_acc = l1d_cache.accesses
                    l1d_hit = l1d_cache.hits
                    l1d_clk = l1d_cache._clock
                    h_horizon = hierarchy._pending_horizon
                    latency = result.latency
                    l1_miss = result.l1_miss
                    if rec and l1_miss:
                        tl_miss(now, seq, d_pc[seq], result.level)
                n_instructions += 1
                if replay is not None:
                    replay.commit(entries[seq])
                done = now + latency
                for dest in d_dests[seq]:
                    reg_ready[dest] = done
                    pending[dest] = done if l1_miss else 0
                issued += 1
                aptr = seq + 1
                if rs_value[seq] != d_value[seq]:
                    # Mismatch: squash everything younger, re-execute.
                    n_value_flushes += 1
                    if rs_hi > seq + 1:
                        rs_live[seq + 1:rs_hi] = bytes(rs_hi - seq - 1)
                        rs_hi = seq + 1
                    if seq + 1 < max_peek:
                        max_peek = seq + 1
                    arch_stall_until = now + flush_penalty
                    wait_until = arch_stall_until
                    break
                if not dynamic_groups and d_stop[seq]:
                    break
                continue

            # Normal in-order execution.  Port counters are claimed
            # eagerly: every non-issuing path below ends the cycle with
            # ``break``, after which the counters are dead until the
            # next cycle's reset.
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
                    reason_load = True
                    trigger = seq
                elif issued == 0:
                    # Pure operand poll: repeats identically until the
                    # producers complete.
                    wake = wait_until
                    dq = 1
                break

            latency = d_lat[seq]
            l1_miss = False
            if d_mem[seq]:
                addr = d_addr[seq]
                line = addr // l1d_line
                cset = l1d_sets[line % l1d_nsets]
                if cset is not None and line in cset:
                    # L1D hit: same stats/LRU updates as Cache.access;
                    # an in-flight fill serves with its remaining time
                    # and still counts as a miss.
                    fill_wait = 0
                    if h_pending and now < h_horizon:
                        key = (l1d_id, line)
                        r = h_pending.get(key)
                        if r is not None:
                            if r <= now:
                                del h_pending[key]
                            else:
                                fill_wait = r - now
                    l1d_acc += 1
                    l1d_clk += 1
                    cset[line] = l1d_clk
                    l1d_hit += 1
                    if d_load[seq]:
                        n_loads += 1
                        if fill_wait:
                            l1_miss = True
                            n_load_misses += 1
                            latency = (fill_wait
                                       if fill_wait > l1d_latency
                                       else l1d_latency)
                            if rec:
                                tl_miss(now, seq, d_pc[seq], l1d_name)
                        else:
                            latency = l1d_latency
                    else:
                        mem_vals[addr] = d_value[seq]
                else:
                    l1d_cache.accesses = l1d_acc
                    l1d_cache.hits = l1d_hit
                    l1d_cache._clock = l1d_clk
                    if d_load[seq]:
                        result = access(addr, now)
                        latency = result.latency
                        l1_miss = result.l1_miss
                        n_loads += 1
                        if l1_miss:
                            n_load_misses += 1
                            if rec:
                                tl_miss(now, seq, d_pc[seq], result.level)
                    else:
                        access(addr, now, kind="store")
                        mem_vals[addr] = d_value[seq]
                    l1d_acc = l1d_cache.accesses
                    l1d_hit = l1d_cache.hits
                    l1d_clk = l1d_cache._clock
                    h_horizon = hierarchy._pending_horizon

            done = now + latency
            dests = d_dests[seq]
            if dests:
                stall = 0
                load_horizon = 0
                waw_count = 0
                for d in dests:
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
                    reason_load = bool(load_horizon)
                    n_waw_stalls += 1
                    mem = d_mem[seq]
                    if issued == 0 and not mem and waw_count == 1:
                        # Pure WAW poll (no cache access to repeat,
                        # single conflicting register).
                        wake = wait_until - latency
                        if load_horizon and load_horizon < wake:
                            wake = load_horizon
                        dq = 1
                        waw_poll = 1
                    break
                for d in dests:
                    reg_ready[d] = done
                    pending[d] = done if l1_miss else 0
            n_instructions += 1
            if replay is not None:
                replay.commit(entries[seq])
            if rec:
                tl.issue(now, seq, d_pc[seq])
            issued += 1
            aptr = seq + 1
            if d_branch[seq]:
                # Inline frontend.resolve_branch: gshare.update, then a
                # redirect + RS flush on a mispredict.
                idx = (d_pc[seq] ^ bp_history) & bp_mask
                counter = bp_counters[idx]
                tk = d_taken[seq]
                n_bp += 1
                if tk:
                    bp_counters[idx] = BP_INC[counter]
                    bp_history = ((bp_history << 1) | 1) & bp_hist_mask
                    wrong = counter < 2
                else:
                    bp_counters[idx] = BP_DEC[counter]
                    bp_history = (bp_history << 1) & bp_hist_mask
                    wrong = counter >= 2
                if wrong:
                    n_bp_wrong += 1
                    fe_redirects += 1
                    if f_fetched > seq + 1:
                        f_fetched = seq + 1
                    t = now + mispredict_penalty
                    if t > f_stall:
                        f_stall = t
                    f_last = -1
                    n_mispredicts += 1
                    if rs_hi > seq + 1:
                        rs_live[seq + 1:rs_hi] = bytes(rs_hi - seq - 1)
                        rs_hi = seq + 1
                    if seq + 1 < max_peek:
                        max_peek = seq + 1
                    break
            if d_stop[seq] and not dynamic_groups:
                break
        if rec and aptr > arch_ptr:
            # Every dequeued slot commits: merge, verification or issue.
            tl.commit_many(now, range(arch_ptr, aptr))
        arch_ptr = aptr
        # ---- end issue loop -------------------------------------------

        in_rally = mode == 2
        if in_rally:
            n_rally_cycles += 1
            if aptr >= max_peek:
                # Tighten the lazy high-water past dead tops in one C
                # scan (rfind of the last live byte).
                rs_hi = rs_live.rfind(1, 0, rs_hi) + 1
                if rs_hi <= aptr:     # rs.max_seq() < aptr
                    mode = 0
                    in_rally = False

        front_end_stall = aptr >= fetched_until and aptr >= f_fetched
        if issued:
            c_exec += 1
        elif front_end_stall:
            c_fe += 1
        elif reason_load:
            c_load += 1
        else:
            c_other += 1
        if rec:
            if issued:
                tl_charge(now, EXECUTION)
            else:
                stalled = (FRONT_END if front_end_stall
                           else LOAD if reason_load else OTHER)
                if aptr < n:
                    tl_charge(now, stalled, aptr, d_pc[aptr])
                else:
                    tl_charge(now, stalled)
        now += 1

        if trigger >= 0 and wait_until > now:
            # Architectural stall on a load: start preexecution.
            mode = 1
            trigger_seq = trigger
            trigger_ready = wait_until
            adv_ptr = trigger
            adv_stall_until = now + advance_entry_delay
            pass_execs = 0
            pass_defers = 0
            epoch += 1
            sA += 4
            sI += 4
            asc_gen += 1
            unknown_store = False
            pass_dead = False
            n_advance_entries += 1
        elif not issued and wake is not None:
            # A pure stall cycle: jump the clock, replicating the poll
            # counters and the per-cycle attribution.
            if wake > now:
                limit = aptr + buffer_size
                if limit > n:
                    limit = n
                if f_fetched < limit:
                    if f_stall > now:
                        skip_to = wake if wake < f_stall else f_stall
                    else:
                        skip_to = now
                else:
                    skip_to = wake
                if now < skip_to < _INF:
                    k = skip_to - now
                    if front_end_stall:
                        c_fe += k
                    elif reason_load:
                        c_load += k
                    else:
                        c_other += k
                    if in_rally:
                        n_rally_cycles += k
                    if dq:
                        n_iq_dequeues += k
                    if waw_poll:
                        n_waw_stalls += k
                    if rec:
                        # Same site as the cycle charged just above.
                        if aptr < n:
                            tl_charge(now, stalled, aptr, d_pc[aptr], k)
                        else:
                            tl_charge(now, stalled, cycles=k)
                    now = skip_to

    # ---- write-back ---------------------------------------------------
    from .core import Mode
    core.mode = (Mode.ARCHITECTURAL, Mode.ADVANCE, Mode.RALLY)[mode]
    core.arch_ptr = arch_ptr
    core.adv_ptr = adv_ptr
    core.max_peek = max_peek
    core.trigger_seq = trigger_seq
    core.trigger_ready = trigger_ready
    core.adv_stall_until = adv_stall_until
    core.arch_stall_until = arch_stall_until
    core.unknown_store = unknown_store
    core.pass_dead = pass_dead
    core._pass_execs = pass_execs
    core._pass_defers = pass_defers
    core._srf_epoch = epoch
    l1i_cache.accesses = l1i_acc
    l1i_cache.hits = l1i_hit
    l1i_cache._clock = l1i_clk
    l1d_cache.accesses = l1d_acc
    l1d_cache.hits = l1d_hit
    l1d_cache._clock = l1d_clk
    frontend.fetched_until = f_fetched
    frontend.stall_until = f_stall
    frontend._last_line = f_last
    frontend.redirects += fe_redirects
    predictor._history = bp_history
    predictor.predictions += n_bp
    predictor.mispredictions += n_bp_wrong
    rs = core.rs
    rs.writes += n_rs_writes
    rs.reads += n_rs_reads
    rs.merges += n_rs_merges
    asc.writes += n_asc_writes
    asc.reads += n_asc_reads
    asc.forwards += n_asc_forwards
    asc.replacements += n_asc_repl
    stats.instructions += n_instructions
    counters = stats.counters
    # Counter keys appear only when the scalar loop would have created
    # them (it only ever adds nonzero increments).
    for key, tally in (
            ("iq_peeks", n_iq_peeks),
            ("iq_dequeues", n_iq_dequeues),
            ("waw_stalls", n_waw_stalls),
            ("advance_cycles", n_advance_cycles),
            ("rally_cycles", n_rally_cycles),
            ("advance_entries", n_advance_entries),
            ("advance_restarts", n_advance_restarts),
            ("hardware_restarts", n_hw_restarts),
            ("advance_merges", n_advance_merges),
            ("advance_deferrals", n_advance_deferrals),
            ("advance_wrong_path", n_advance_wrong),
            ("unknown_address_stores", n_unknown_stores),
            ("advance_executions", n_advance_execs),
            ("advance_branches", n_advance_branches),
            ("advance_redirects", n_advance_redirects),
            ("advance_loads", n_advance_loads),
            ("asc_forwards", n_asc_forwards),
            ("sbit_loads", n_sbit_loads),
            ("advance_load_misses", n_advance_load_misses),
            ("advance_stores", n_advance_stores),
            ("rally_merges", n_rally_merges),
            ("smaq_reads", n_smaq_reads),
            ("sbit_verifications", n_sbit_verifications),
            ("value_flushes", n_value_flushes),
            ("mispredicts", n_mispredicts),
            ("loads_issued", n_loads),
            ("l1d_load_misses", n_load_misses),
            ("runahead_exit_refills", n_refills),
    ):
        if tally:
            counters[key] += tally
    breakdown = stats.cycle_breakdown
    breakdown[EXECUTION] += c_exec
    breakdown[FRONT_END] += c_fe
    breakdown[LOAD] += c_load
    breakdown[OTHER] += c_other
    stats.cycles += c_exec + c_fe + c_load + c_other
    return core.finalize()
