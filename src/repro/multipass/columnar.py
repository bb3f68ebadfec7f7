"""Event-driven columnar kernel for the multipass-family cores.

Drop-in replacement for the scalar cycle loop in
:mod:`repro.multipass.core` (kept there as the ``--slow`` reference):
same machine, same statistics,
bit-identical cycle counts and stall attribution, but the per-cycle
*work* is restructured around preallocated flat columns, following the
PR 7 OOO kernel (:mod:`repro.ooo.columnar`):

* **One result store and one advance store cache.**  The kernel uses
  the core's own :class:`~repro.multipass.result_store.ResultStore`
  and :class:`~repro.multipass.asc.AdvanceStoreCache`, as the scalar
  loop does.  It probes the store's per-seq columns (``live``,
  ``ready``, ``sbit``, ``value``) directly, about two probes per
  instruction, and writes only through the methods: ``put``, ``read``
  on an advance reuse, ``pop`` on a rally merge or S-bit verification,
  ``clear_from`` on a flush and ``max_seq`` at rally exit.  Each
  method keeps its own counter.  A pass reset is an epoch bump on the
  SRF/poison/pready columns plus ``asc.clear()``, itself one
  generation bump.
* **The hardware-restart rendezvous is the scalar loop's query.**  The
  footnote-1 mechanism restarts a fruitless pass for the earliest
  pready hint of this pass still in flight: the minimum
  ``pready_val[r]`` over registers stamped with the current epoch whose
  value lies in the future.  The kernel asks it as one C-level scan
  over the two register columns (``compress``/``filter``/``min``) only
  when the ablation is enabled and the pass qualifies.  The *hints*
  stay in the epoch-stamped pready columns with their deliberate
  clear-the-poison-keep-the-hint lifetime (see ``MultipassCore``),
  which the RESTART-slot scan also consults.
* **One path per mechanism.**  The advance merge and the rally merge
  run in the per-slot loops, one cycle at a time; only the three idle
  skips (an advance wait, an ``arch_stall_until`` stall and a pure
  architectural stall) jump the clock, each capped by
  ``BaseCore._frontend_clamp``.  The predictor is reached through its
  public methods: a deferred advance branch calls ``predict``, a
  resolved or nullified one ``update``, and an architectural branch
  ``FrontEnd.resolve``, which trains the predictor and redirects fetch
  on a mispredict.  The memory system is reached only through its
  public entry points, as in the OOO kernel: fetch is
  ``FrontEnd.tick`` once a cycle and every load and store calls
  ``hierarchy.access``.  ``tick`` counts the L1I hits of resident code
  instead of probing them; a ``tick`` that probed every line change
  through ``hierarchy.access`` read cold-sweep 1.14x slower
  (EXPERIMENTS.md, "One memory path in the kernels").  Every port
  claim (an advance execution, an S-bit verification, an architectural
  issue) is one step of :func:`~repro.resources.issue_table`, the
  scalar loop's ``PortTracker`` as a table.

Mode-machine equivalence: the kernel replicates the scalar loop
cycle-for-cycle — fetch, rally entry at ``trigger_ready``, the advance
slot loop (RS probe, RESTART, operand classification, port budgeting,
defer/execute), the architectural/rally issue loop (merge, S-bit
verification, in-order issue, branch resolve) — and its fast-forward
skips jump over pure-poll cycles the scalar loop steps one by one,
replicating their poll counters, so every counter, the 4-way
stall breakdown and the retired stream are bit-identical.  The
differential suite (``tests/property/test_columnar.py``), the idle-skip
boundary sweeps and the golden matrix pin all of this against the
scalar loop; see ``docs/architecture.md`` §13.

Recording: a core whose tracer is a
:class:`~repro.telemetry.timeline.Timeline` runs this kernel too.  The
kernel records the scalar loop's timeline exactly — fetch groups, issues
(advance and architectural), commits, merges, restarts, misses, stall
charges and mode changes — behind one ``rec`` flag fixed at entry; the
skips record their replayed cycles as stall spans.
"""

from __future__ import annotations

from itertools import compress

from ..isa.columns import columns_of
from ..isa.opcodes import FUClass, Opcode
from ..pipeline.stats import SimStats, StallCategory
from ..resources import PORT_CODE, issue_table
from .asc import HIT, HIT_INVALID, INVALID, MISS_SPECULATIVE

#: "No internal event": a fast-forward hint meaning the issue logic found
#: nothing that could change on its own — the skip is bounded only by the
#: mode deadline (``trigger_ready``) and the front end.
_INF = 1 << 62


def run_columnar(core, max_cycles: int) -> SimStats:
    """Run a :class:`~repro.multipass.core.MultipassCore` to completion.

    ``core`` must be freshly constructed and not in ``--slow`` mode
    (``run()`` routes that to the scalar reference loop).  Its tracer
    is ``None`` or a :class:`~repro.telemetry.timeline.Timeline`, which
    the kernel records into.
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
    d_stop = dec.stop
    d_addr = dec.addr
    d_value = dec.value
    d_taken = dec.taken
    d_pc = dec.pc
    cols = columns_of(dec)
    port_code = cols.port_code
    # Advance-dispatch class (0 ALU/other, 1 nullified, 2 branch,
    # 3 store, 4 load), trace-static and shared across models.
    d_kind = cols.multipass_kind()

    config = core.config
    frontend = core.frontend
    stats = core.stats
    replay = core.replay
    # TraceEntry objects only for the --check replay; the static fields
    # the kernel needs beyond the decoded columns come from the program.
    entries = trace.entries if replay is not None else None
    insts = trace.program.instructions
    buffer_size = core.buffer_size
    width = config.ports.width
    # The dispersal rule: a port claim is one step of the tracker's
    # table, refused at -1 (``port_state`` resets to 0 each cycle).
    table = issue_table(config.ports)
    MEM_CODE = PORT_CODE[FUClass.MEM]
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

    # The kernel reaches the memory system only through the front end's
    # fetch (the scalar loop's own, which also records fetches on the
    # Timeline) and the hierarchy's own entry point.
    fetch = frontend.tick
    access = core.hierarchy.access
    # The predictor is reached through its public methods: advance mode
    # consults and trains it, and an architectural branch resolves
    # through the front end, as in the scalar loop.
    predict = frontend.predictor.predict
    train = frontend.predictor.update
    resolve = frontend.resolve
    # The idle skips' front-end rule (fetch quiet, or I-stalled until a
    # fill), shared with the in-order loop.
    clamp = core._frontend_clamp

    # The core's result store and advance store cache, shared with the
    # scalar loop.  The probes read the store's columns; every write
    # goes through a method, which keeps the structure's counters.
    rs = core.rs
    rs_live = rs.live
    rs_ready = rs.ready
    rs_sbit = rs.sbit
    rs_value = rs.value
    rs_put = rs.put
    rs_read = rs.read
    rs_pop = rs.pop
    asc = core.asc
    asc_clear = asc.clear
    asc_read = asc.read
    asc_write = asc.write

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
    n_advance_stores = n_asc_forwards = 0
    n_rally_merges = n_smaq_reads = n_sbit_verifications = 0
    n_value_flushes = n_mispredicts = 0
    n_loads = n_load_misses = 0
    n_refills = 0
    now = 0

    # Timeline recording, decided here once: ``rec`` guards every
    # recording site (see docs/architecture.md §13 for what each one
    # records and where the scalar loop records the same thing).
    tl = core.tracer
    rec = tl is not None
    if rec:
        tl_charge = tl.charge
        tl_miss = tl.cache_miss
        from .core import Mode
        mode_names = (Mode.ARCHITECTURAL.value, Mode.ADVANCE.value,
                      Mode.RALLY.value)
        recorded_mode = -1             # no mode span open yet

    while arch_ptr < n:
        if now > max_cycles:
            core.check_cycle_budget(now, max_cycles)

        # ---- fetch -----------------------------------------------------
        f_fetched = fetch(now, arch_ptr)

        if mode == 1 and now >= trigger_ready:
            # Rally entry: unlatch the architectural stream (one pass
            # reset = one generation bump on every stamped structure).
            mode = 2
            pass_execs = 0
            pass_defers = 0
            epoch += 1
            sA += 4
            sI += 4
            asc_clear()
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
                port_state = 0
                window_end = f_fetched
                if n < window_end:
                    window_end = n
                lim = arch_ptr + buffer_size
                if lim < window_end:
                    window_end = lim
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
                        r = rs_read(seq)
                        if r > now:
                            # Result (typically a missing load from an
                            # earlier pass) still in flight: consumers
                            # stay deferred.
                            for dest in d_dests[seq]:
                                sp_state[dest] = sI
                                pready_stamp[dest] = epoch
                                pready_val[dest] = r
                            adv_ptr = seq + 1
                            slots += 1
                            continue
                        # Preserved result: no re-execution.
                        for dest in d_dests[seq]:
                            sp_state[dest] = sA
                            srf_ready[dest] = now
                        n_advance_merges += 1
                        if rec:
                            tl.rs_hit(now, seq, "advance")
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
                            asc_clear()
                            unknown_store = False
                            pass_dead = False
                            adv_ptr = trigger_seq
                            refill = now + advance_restart_refill
                            if hint >= 0:
                                alt = hint - advance_restart_refill
                                if alt > refill:
                                    refill = alt
                            adv_stall_until = refill
                            n_advance_restarts += 1
                            if rec:
                                tl.restart(now, trigger_seq)
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
                            if predict(d_pc[seq]) != d_taken[seq]:
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
                                    asc_write(d_addr[seq], INVALID)
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

                    # Valid operands: execute speculatively (a refused
                    # port ends the cycle, so the claim can be eager).
                    port_state = table[port_state + port_code[seq]]
                    if port_state < 0:
                        break

                    n_advance_execs += 1
                    if rec:
                        tl.issue(now, seq, "advance")
                    k = d_kind[seq]
                    if k == 1:
                        # Predicate-nullified: flows through.
                        if persist:
                            rs_put(seq, now + 1)
                        if d_branch[seq]:
                            # Early resolve + train (nullified branches
                            # train not-taken).
                            n_advance_branches += 1
                            if not train(d_pc[seq], False):
                                t = now + mispredict_penalty
                                if t > adv_stall_until:
                                    adv_stall_until = t
                                n_advance_redirects += 1
                        adv_ptr = seq + 1
                    elif k == 2:
                        # Resolve during preexecution: train early; a
                        # would-be mispredict charges the *advance*
                        # stream, and rally later merges with no flush.
                        n_advance_branches += 1
                        if not train(d_pc[seq], d_taken[seq]):
                            t = now + mispredict_penalty
                            if t > adv_stall_until:
                                adv_stall_until = t
                            n_advance_redirects += 1
                        if persist:
                            rs_put(seq, now + 1)
                        adv_ptr = seq + 1
                    elif k == 3:
                        asc_write(d_addr[seq], d_value[seq])
                        n_advance_stores += 1
                        if persist:
                            rs_put(seq, now + 1)
                        adv_ptr = seq + 1
                    elif k == 4:
                        # Advance load: ASC forwarding, prefetch, the
                        # Section 3.5 WAW rule and S-bits.
                        addr = d_addr[seq]
                        outcome = asc_read(addr)[0]
                        # Prefetch effect.
                        result = access(addr, now)
                        l1_miss = result.l1_miss
                        res_ready = result.ready
                        if rec and l1_miss:
                            tl_miss(now, seq, result.level)
                        n_advance_loads += 1
                        if outcome == HIT:     # ASC hit: forward
                            for dest in d_dests[seq]:
                                sp_state[dest] = sA
                                srf_ready[dest] = now + 1
                                pready_stamp[dest] = 0
                            if persist:
                                rs_put(seq, now + 1, 0, d_value[seq])
                            n_asc_forwards += 1
                        elif outcome == HIT_INVALID:   # suppress
                            for dest in d_dests[seq]:
                                sp_state[dest] = sI
                        else:
                            if unknown_store or outcome == MISS_SPECULATIVE:
                                data_spec = 1
                                observed = mem_vals.get(addr, 0)
                                n_sbit_loads += 1
                            else:
                                data_spec = 0
                                observed = d_value[seq]
                            if persist:
                                rs_put(seq, res_ready, data_spec, observed)
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
                            rs_put(seq, now + latency)
                        adv_ptr = seq + 1
                    new_execs += 1
                    pass_execs += 1
                    slots += 1

                if hardware_restart and not pass_dead and not restarted:
                    # Footnote-1 mechanism: a fruitless pass restarts
                    # itself when there is an in-flight fill to
                    # rendezvous with -- the earliest pready hint of
                    # this pass still in the future, as in the scalar
                    # loop's scan.  One C-level pass over the two
                    # register columns: a Python loop over them ran 22%
                    # more opcodes on gap (EXPERIMENTS.md, "One
                    # predictor path and one merge path").
                    processed = pass_execs + pass_defers
                    if processed >= hw_window and \
                            pass_execs < processed * hw_fraction:
                        best = min(filter(now.__lt__, compress(
                            pready_val, map(epoch.__eq__, pready_stamp))),
                            default=_INF)
                        if best < _INF:
                            pass_execs = 0
                            pass_defers = 0
                            epoch += 1
                            sA += 4
                            sI += 4
                            asc_clear()
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
                                tl.restart(now, trigger_seq)
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
                    skip_to = clamp(now, target, arch_ptr)
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
                skip_to = clamp(now, arch_stall_until, arch_ptr)
                if skip_to > now:
                    c_other += skip_to - now
                    if rec:
                        tl_charge(now, OTHER, cycles=skip_to - now)
                    now = skip_to
            continue

        # ---- architectural / rally issue ------------------------------
        port_state = 0
        issued = 0
        reason_load = False
        wait_until = now + 1
        trigger = -1
        wake = _INF
        dq = waw_poll = 0
        aptr = arch_ptr
        rallying = aptr < max_peek
        dynamic_groups = enable_regroup and rallying

        if aptr < f_fetched and width:
            # Same pre-arming as the advance loop: the scalar reference
            # resets wake=None per dequeue; only the last value is read.
            wake = None
        while aptr < f_fetched and issued < width:
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
                    rs_pop(seq)
                    n_rally_merges += 1
                    n_instructions += 1
                    if replay is not None:
                        replay.commit(entries[seq])
                    if rec:
                        tl.rs_hit(now, seq, "rally")
                    for dest in d_dests[seq]:
                        reg_ready[dest] = now
                        pending[dest] = 0
                    if d_store[seq]:
                        # Pre-executed store re-performs its access via
                        # the SMAQ address (Section 3.6).
                        addr = d_addr[seq]
                        access(addr, now, kind="store")
                        mem_vals[addr] = d_value[seq]
                        n_smaq_reads += 1
                    # A branch resolved in advance mode merges with no
                    # flush: it trained the predictor then.
                    issued += 1
                    aptr = seq + 1
                    if not dynamic_groups and d_stop[seq]:
                        break
                    continue
                port_state = table[port_state + MEM_CODE]
                if port_state < 0:
                    break
                # S-bit verification: re-perform the load and compare.
                rs_pop(seq)
                n_sbit_verifications += 1
                n_smaq_reads += 1
                result = access(d_addr[seq], now)
                latency = result.latency
                l1_miss = result.l1_miss
                if rec and l1_miss:
                    tl_miss(now, seq, result.level)
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
                    rs.clear_from(seq + 1)
                    if seq + 1 < max_peek:
                        max_peek = seq + 1
                    arch_stall_until = now + flush_penalty
                    wait_until = arch_stall_until
                    break
                if not dynamic_groups and d_stop[seq]:
                    break
                continue

            # Normal in-order execution.  The port is claimed eagerly:
            # every non-issuing path below ends the cycle with
            # ``break``, after which the state is dead until the next
            # cycle's reset.
            port_state = table[port_state + port_code[seq]]
            if port_state < 0:
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
                if d_load[seq]:
                    result = access(addr, now)
                    latency = result.latency
                    l1_miss = result.l1_miss
                    n_loads += 1
                    if l1_miss:
                        n_load_misses += 1
                        if rec:
                            tl_miss(now, seq, result.level)
                else:
                    access(addr, now, kind="store")
                    mem_vals[addr] = d_value[seq]

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
                tl.issue(now, seq)
            issued += 1
            aptr = seq + 1
            if d_branch[seq] and resolve(seq, d_pc[seq], d_taken[seq],
                                         now):
                # Mispredicted: fetch was redirected; flush the RS.
                n_mispredicts += 1
                rs.clear_from(seq + 1)
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
            if aptr >= max_peek and rs.max_seq() < aptr:
                mode = 0
                in_rally = False

        front_end_stall = aptr >= f_fetched
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
            asc_clear()
            unknown_store = False
            pass_dead = False
            n_advance_entries += 1
        elif not issued and wake is not None:
            # A pure stall cycle: jump the clock, replicating the poll
            # counters and the per-cycle attribution.
            if wake > now:
                skip_to = clamp(now, wake, aptr)
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
