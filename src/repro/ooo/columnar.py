"""Event-driven columnar kernel for the out-of-order cores (gen 2).

Drop-in replacement for the scalar cycle loop in
:mod:`repro.ooo.core` (kept there as the ``--slow`` reference; a
:class:`~repro.telemetry.timeline.Timeline` records on this kernel,
behind one ``rec`` flag fixed at entry):
same machine, same statistics, bit-identical cycle counts and stall
attribution, but the per-cycle *work* is restructured around
preallocated flat columns and a shared event calendar
(:mod:`repro.pipeline.eventq`) instead of polling the scheduling
window:

* **Wakeup is consumer-driven, off a static-pending accumulator.**
  ``spend[c]`` always equals the number of c's *static* producers whose
  values are currently invisible: it starts at the static in-degree,
  every producer-visibility event — fired at ``issue + latency +
  wakeup_delay``, the realistic model's wakeup delay folded into the
  event time at insertion — walks its full static consumer row (the
  CSR of :mod:`repro.isa.columns`) decrementing it, and a squash
  re-increments the rows of fires it rewinds.  Each dependence edge is
  therefore visited exactly once per fire, dispatch reads its dynamic
  invisible-producer count straight out of the accumulator (a producer
  the old dispatch-time filter would have dropped has already fired
  and decremented), and a dispatched consumer hitting zero drops
  straight into the ready queue.  Nothing ever scans a waiting list;
  the old sorted ``waiting`` list survives only as the ``n_waiting``
  counter, and the window boundary — only meaningful when more than
  ``window`` seqs wait, which is rare — is recovered on demand from the
  ROB range, whose un-issued subsequence is exactly the old list.
* **Dirty rename epochs fall back to dynamic producers.**  The scalar
  loop's squash reset *forgets* a surviving producer once a wrong-path
  writer clobbered its register — observable seed behaviour the static
  graph cannot express — so from a squash until every forgotten
  register is rewritten, dispatch walks the last-writer table exactly
  like the scalar loop, stores the invisible producers (``cprods``)
  with their count (``pending``), and flags the seq ``dirty``; the
  fire walk honours the flag (membership-checked dynamic decrement)
  while still maintaining the static accumulator underneath.
* **The ready queue pops from a head pointer.**  One ascending seq
  list consumed from a moving head: while the scan has skipped no
  port-starved entry, issuing is a pure head advance — no ``del
  ready[i]`` shift, no bisect — and only after a starvation skip does
  the issued seq come out of the middle, which is the old kernel's
  behaviour and rare.  The scan itself is the scalar loop's: oldest
  first, per-class port budgets decremented in visit order (ALU takes
  an I port, spilling to M ports; a spilled ALU can starve MEM), so it
  selects exactly the seqs the scalar scan would, in the same order.
  (A five-way port-class bucket split with a cached-head merge was
  measured here and *lost*: its per-cycle class bookkeeping costs more
  than starvation-skip shifts ever did — see ``EXPERIMENTS.md``.)
  Dead prefixes behind the head are reclaimed lazily.
* **The ROB is a range, not a list.**  In-order dispatch of
  consecutive seqs, in-order commit and suffix-truncating squashes
  keep the ROB contents equal to ``range(commit_ptr, dispatch_ptr)``
  at every cycle boundary, so the kernel stores no ROB list at all:
  occupancy is ``dispatch_ptr - commit_ptr``, the dispatch gate is
  ``commit_ptr + rob_capacity``, commit walks ``commit_ptr`` forward,
  and squash is a loop over ``range(squash_after + 1, dispatch_ptr)``.
* **Incarnations.**  A squash re-dispatches the same seqs (trace
  replay), so per-seq state is generation-stamped: ``gen[s]`` bumps at
  squash and calendar entries carry the gen at insertion; a stale
  entry is discarded at drain.

Equivalence invariants (the bit-identity contract, see
``docs/architecture.md`` §13):

* A consumer enters the ready queue at cycle ``t`` iff every rename-time
  producer satisfies ``value_ready != 0 and value_ready <= t`` and ``t``
  is the earliest such cycle — exactly the scalar issue-scan predicate.
  Producer events fire at the start of their cycle, before dispatch and
  issue — the same ordering as the scalar loop's read of
  ``value_ready`` (a consumer dispatching the very cycle a producer
  becomes visible sees it visible and never counts it; the event walk
  cannot reach it because it fires before the consumer dispatches).
* Queue inserts at fire time use ``insort`` bounded below by the head —
  the region behind the head is dead and unordered, so the bound is a
  correctness requirement, not a hint — keeping the live region
  ascending; dispatch-time inserts are appends, since dispatch runs in
  ascending seq order and squash truncates the live region back below
  the squash point before any re-dispatch.
* No live event can land inside a fast-forwarded span: the skip is
  capped by the wake horizon, the minimum over in-flight completions —
  exactly the cycles producer events are scheduled at (modulo the
  ``wakeup_delay`` adjustment applied to both).  Only stale
  (squashed-gen) entries can be jumped; their stamp discards them when
  the wheel slot next comes around.
* The window boundary (the ``window``-th oldest un-issued seq) and the
  port counters are sampled once per cycle before the issue scan,
  matching the scalar scan's fixed candidate slice.

The memory fast paths mirror :class:`~repro.memory.MemoryHierarchy`
exactly: L1 hits (and in-flight-fill hits) are served inline with
localized stats/LRU clocks, and an L1D *miss* that merges into an
in-flight MSHR fill under an L2 directory hit — the dominant fallback
shape — is also inlined (same stats, same LRU, same pending-table side
effects); everything else walks ``hierarchy.access`` bracketed by
write-back/reload pairs.

The differential suites (``tests/property/test_columnar.py``,
``tests/property/test_fast_path.py``) and the golden matrix pin all of
this against the scalar loop.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from heapq import heappop, heappush

from ..isa.columns import columns_of
from ..isa.registers import NUM_REGS
from ..pipeline.eventq import WHEEL, EventCalendar
from ..pipeline.stats import SimStats, StallCategory

#: Sentinel wake-up target meaning "no in-flight completion at all".
_INF = 1 << 62


def run_columnar(core, max_cycles: int) -> SimStats:
    """Run an :class:`~repro.ooo.core.OutOfOrderCore` to completion.

    ``core`` must be freshly constructed, not in ``--slow`` mode and
    either un-traced or recording into a
    :class:`~repro.telemetry.timeline.Timeline` (the caller routes the
    rest to the scalar reference loop).
    """
    trace = core.trace
    dec = trace.decoded
    n = dec.n
    cols = columns_of(dec)
    merge_dests = not core.ideal
    graph = cols.dependences(merge_dests)
    cons_lists = graph.cons_tuples()
    sprods = graph.prod_tuples()
    port_code = cols.port_code
    queue_code = cols.queue_code
    # Packed issue-path flags (bit0 mem, bit1 branch, bit2 consumers)
    # and prebuilt gen-0 wheel pairs; the pair list is copied because a
    # squash re-points the squashed seqs' entries at their new gen.
    kind = cols.issue_kind(merge_dests)
    ev_pair = list(cols.event_pairs())

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

    config = core.config
    frontend = core.frontend
    window = config.ooo_window
    rob_capacity = config.ooo_rob
    width = config.ports.width
    fetch_buffer = core.buffer_size
    stats = core.stats
    counters = stats.counters
    hierarchy = core.hierarchy
    access = hierarchy.access
    # Inline L1 fast paths: the kernel probes the L1 dicts directly and
    # falls back to ``hierarchy.access`` whenever the line is absent or
    # any fill is still pending, mirroring the hierarchy's own hit fast
    # path (same stats, same LRU clocks, same latencies).
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
    f_run = cols.fetch_runs(inst_bytes, frontend._line_size)
    # Front-end scalars, localized for the whole run.  The redirect is
    # inlined below and ``frontend.tick`` is never called, so nothing
    # outside this loop reads or writes them until the write-back at
    # the bottom.
    f_fetched = frontend.fetched_until
    f_stall = frontend.stall_until
    f_last = frontend._last_line
    wakeup_delay = core.wakeup_delay
    ports = config.ports
    m_ports = ports.m_ports
    i_ports = ports.i_ports
    f_ports = ports.f_ports
    b_ports = ports.b_ports
    EXECUTION = StallCategory.EXECUTION
    FRONT_END = StallCategory.FRONT_END
    LOAD = StallCategory.LOAD
    OTHER = StallCategory.OTHER
    c_exec = c_fe = c_load = c_other = 0
    n_loads = n_load_misses = n_mispredicts = n_commits = 0

    # Timeline recording, decided here once: ``rec`` guards every
    # recording site (see docs/architecture.md §13 for what each one
    # records and where the scalar loop records the same thing).
    tl = core.tracer
    rec = tl is not None
    if rec:
        tl_charge = tl.charge
        tl_miss = tl.cache_miss
        l1d_name = l1d_cache.config.name
        # Seqs issued after a port-starved skip (middle deletes) this
        # cycle; the rest of the cycle's issues are a ready-queue slice.
        skipped_issues: list = []

    replay = core.replay
    # TraceEntry objects only for the --check replay.
    entries = trace.entries if replay is not None else None
    queue_cap = core.decentralized_queues
    has_queues = queue_cap is not None
    queue_fill = [0, 0, 0]

    # Branch predictor state, inlined (gshare.update is two table reads
    # and a history shift -- not worth a call per branch).
    predictor = frontend.predictor
    bp_counters = predictor._counters
    bp_mask = predictor._mask
    bp_hist_mask = (1 << predictor._history_bits) - 1
    bp_history = predictor._history
    n_branches = n_bp_wrong = 0
    d_pc = dec.pc
    mispredict_penalty = config.mispredict_penalty
    #: 2-bit counter transition tables (branchless saturating update).
    BP_INC = (1, 2, 3, 3)
    BP_DEC = (0, 0, 1, 2)

    # Flat per-seq state (current incarnation).
    value_ready = [0] * n        # visibility cycle; 0 = not issued
    ready_cycle = [0] * n        # completion (commit-eligibility) cycle
    gen = [0] * n                # incarnation counter (bumped at squash)
    unissued = bytearray(n)      # dispatched and awaiting issue
    load_wait = bytearray(n)     # issued load that missed the L1
    # Static-pending accumulator: ``spend[c]`` always equals the number
    # of c's *static* producers whose values are currently invisible.
    # Initialized to the static in-degree; every producer fire walks its
    # full consumer row and decrements (each dependence edge is visited
    # exactly once), and a squash re-increments the rows of producers
    # whose fire it rewinds.  While the rename table is clean, the
    # dynamic invisible-producer count of a *dispatching* seq is exactly
    # ``spend[seq]`` — a producer the old dispatch filter would drop
    # (visible at dispatch) has already fired and decremented — so
    # dispatch needs no producer walk at all.
    spend = [len(t) for t in sprods]
    pending = [0] * n            # dynamic count, dirty-mode seqs only
    dirty = bytearray(n)         # seq dispatched with a dirty table
    cprods = [()] * n            # dirty-mode invisible producer rows
    # reg -> last producing seq (-1: none); reproduces the scalar rename
    # table including its post-squash forgetting, which is observable.
    last_writer = [-1] * NUM_REGS
    # Registers forgotten by a squash (reset to -1 while the static
    # graph may still name a surviving producer) and not rewritten
    # since.  While this set is empty the rename table is *provably*
    # identical to the static prefix state, so dispatch can read its
    # producers straight from the precomputed static tuples; while it
    # is non-empty, dispatch falls back to the exact dynamic walk.
    forgotten = set()

    n_waiting = 0   # dispatched un-issued seqs (the scalar waiting-list size)
    wl_cur = -1     # window boundary (``window``-th oldest un-issued seq),
                    # maintained incrementally; -1 = not binding / unknown
    # Ready queue: one ascending seq list consumed from a head pointer
    # (the region behind the head is dead and reclaimed lazily).
    # Dispatch appends; event-walk wakeups insort above the head.  The
    # issue scan advances the head in O(1) while no port-starved entry
    # has been skipped, and falls back to a middle-delete only after
    # one — starvation is rare, so the queue behaves like a pop-only
    # deque on almost every cycle.
    rdy = []
    hr = 0
    # Producer-visibility events on the shared calendar: near events in
    # the 64-slot wheel as (seq, gen) pairs drained exactly at their
    # cycle, far events (memory misses) heap-ordered as
    # (cycle, seq, gen).
    cal = EventCalendar()
    wheel = cal.wheel
    heap = cal.heap

    dispatch_ptr = 0
    commit_ptr = 0
    now = 0

    while commit_ptr < n:
        if now > max_cycles:
            core.check_cycle_budget(now, max_cycles)

        # ---- wake-ups: producers whose values become visible now ------
        slot = wheel[now & 63]
        if slot:
            for p, g in slot:
                if gen[p] != g:
                    continue                   # stale incarnation
                for c in cons_lists[p]:
                    sp = spend[c] - 1
                    spend[c] = sp
                    if unissued[c]:
                        if dirty[c]:
                            if p in cprods[c]:
                                pend = pending[c] - 1
                                pending[c] = pend
                                if not pend:
                                    insort(rdy, c, hr)
                        elif not sp:
                            insort(rdy, c, hr)
            del slot[:]
        while heap and heap[0][0] <= now:
            event = heappop(heap)
            p = event[1]
            if gen[p] != event[2]:
                continue                       # stale incarnation
            for c in cons_lists[p]:
                sp = spend[c] - 1
                spend[c] = sp
                if unissued[c]:
                    if dirty[c]:
                        if p in cprods[c]:
                            pend = pending[c] - 1
                            pending[c] = pend
                            if not pend:
                                insort(rdy, c, hr)
                    elif not sp:
                        insort(rdy, c, hr)

        # ---- fetch (inlined frontend.tick, same-line runs batched) ----
        if f_fetched < n and now >= f_stall:
            limit = commit_ptr + fetch_buffer
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

        # ---- dispatch (rename) ----------------------------------------
        dstart = dispatch_ptr
        dstop = dstart + width
        if dstop > f_fetched:
            dstop = f_fetched
        # ROB-as-range: occupancy is dispatch_ptr - commit_ptr, so the
        # capacity gate collapses to commit_ptr + rob_capacity.
        rob_free = commit_ptr + rob_capacity
        if dstop > rob_free:
            dstop = rob_free
        while dispatch_ptr < dstop:
            seq = dispatch_ptr
            if has_queues:
                qc = queue_code[seq]
                if queue_fill[qc] >= queue_cap:
                    break                      # in-order dispatch blocks
                queue_fill[qc] += 1
            if not forgotten:
                # Clean table: the static rename result stands, and the
                # static-pending accumulator already holds the invisible
                # producer count — no producer walk at all.
                pend = spend[seq]
                dirty[seq] = 0
                if merge_dests and d_pred[seq]:
                    dest_iter = d_sdests[seq]
                else:
                    dest_iter = d_dests[seq]
                for dest in dest_iter:
                    last_writer[dest] = seq
            else:
                prods = []
                for src in d_srcs[seq]:
                    p = last_writer[src]
                    if p >= 0 and p not in prods:
                        r = value_ready[p]
                        if r == 0 or r > now:
                            prods.append(p)
                if merge_dests and d_pred[seq]:
                    # Without predicate renaming, a predicated write
                    # must merge with the destination's previous value.
                    dest_iter = d_sdests[seq]
                    for dest in dest_iter:
                        p = last_writer[dest]
                        if p >= 0 and p not in prods:
                            r = value_ready[p]
                            if r == 0 or r > now:
                                prods.append(p)
                else:
                    dest_iter = d_dests[seq]
                for dest in dest_iter:
                    last_writer[dest] = seq
                    forgotten.discard(dest)
                pend = len(prods)
                cprods[seq] = prods
                pending[seq] = pend
                dirty[seq] = 1
            unissued[seq] = 1
            n_waiting += 1
            if not pend:
                # Every producer already visible: ready this cycle.
                # Dispatch runs in ascending seq order and seqs in the
                # queue are all older, so append keeps the live region
                # sorted.
                rdy.append(seq)
            dispatch_ptr += 1
        dispatched = dispatch_ptr - dstart

        # ---- issue (ascending scan of the ready queue) ----------------
        issued = 0
        squash_after = -1
        rlen = len(rdy)
        if hr < rlen:
            # Window boundary fixed at cycle start, like the scalar
            # scan's candidate slice.  It only binds when more than
            # ``window`` seqs wait, and is maintained *incrementally*:
            # a full recovery scan runs only when congestion begins (or
            # after a squash); while the boundary is held, each issue
            # at or below it advances it with a short upward walk (see
            # the issue tail).  Dispatch only adds seqs younger than
            # the boundary and commit only retires issued seqs, so
            # neither moves it.  The recovery scan counts down from the
            # dispatch pointer — the boundary is the ``n_waiting -
            # window + 1``-th *youngest* un-issued seq, congestion
            # onset overshoots the window by at most a dispatch group,
            # and the just-dispatched seqs at the top are densely
            # un-issued, so the walk is a few entries where a
            # bottom-up count would wade through the whole
            # issued-but-uncommitted prefix of a memory-stalled ROB.
            # (``_INF - 1`` so the no-candidate sentinel ``_INF``
            # always breaks.)
            if wl_cur < 0 and n_waiting > window:
                cnt = n_waiting - window + 1
                for s in range(dispatch_ptr - 1, commit_ptr - 1, -1):
                    if unissued[s]:
                        cnt -= 1
                        if not cnt:
                            wl_cur = s
                            break
            wlimit = wl_cur if wl_cur >= 0 else _INF - 1
            m_used = i_used = f_used = b_used = 0
            i = head = hr
            while i < rlen:
                seq = rdy[i]
                if seq > wlimit:
                    break                      # out of window
                code = port_code[seq]
                if code == 1:                  # ALU: I port, M fallback
                    if i_used < i_ports:
                        i_used += 1
                    elif m_used < m_ports:
                        m_used += 1
                    else:
                        i += 1                 # starved: skip, keep
                        continue
                elif code == 0:                # MEM
                    if m_used < m_ports:
                        m_used += 1
                    else:
                        i += 1
                        continue
                elif code == 2:                # FP / MULDIV
                    if f_used < f_ports:
                        f_used += 1
                    else:
                        i += 1
                        continue
                elif code == 3:                # BR
                    if b_used < b_ports:
                        b_used += 1
                    else:
                        i += 1
                        continue
                # code 4: slot-only, no port budget — always issues.
                if i == hr:
                    # Nothing skipped below: pure head advance, no
                    # delete — the overwhelmingly common case.
                    i = hr = hr + 1
                else:
                    # A starved entry sits below the scan point: the
                    # issued seq must come out of the middle (rare).
                    del rdy[i]
                    rlen -= 1
                    if rec:
                        skipped_issues.append(seq)
                n_waiting -= 1
                if seq <= wl_cur:
                    # Issued at or below the held boundary: the
                    # ``window``-th oldest un-issued is now the next
                    # un-issued seq above it (a step or two — the seqs
                    # above a bound boundary are densely un-issued), or
                    # the boundary stops binding.  Scan order still
                    # compares against the cycle-start ``wlimit``.
                    if n_waiting > window:
                        wb = wl_cur + 1
                        while not unissued[wb]:
                            wb += 1
                        wl_cur = wb
                    else:
                        wl_cur = -1
                k = kind[seq]
                latency = d_lat[seq]
                if k & 1:                      # memory-executing
                    addr = d_addr[seq]
                    line = addr // l1d_line
                    cset = l1d_sets[line % l1d_nsets]
                    if cset is not None and line in cset:
                        # L1D hit: same stats/LRU updates as
                        # Cache.access; an in-flight fill serves
                        # with its remaining time and still counts
                        # as a miss, like the hierarchy's pending
                        # probe.
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
                                n_load_misses += 1
                                load_wait[seq] = 1
                                if fill_wait > l1d_latency:
                                    latency = fill_wait
                                else:
                                    latency = l1d_latency
                                if rec:
                                    tl_miss(now, seq, l1d_name)
                            else:
                                latency = l1d_latency
                    elif d_load[seq]:
                        l1d_cache.accesses = l1d_acc
                        l1d_cache.hits = l1d_hit
                        l1d_cache._clock = l1d_clk
                        result = access(addr, now)
                        l1d_acc = l1d_cache.accesses
                        l1d_hit = l1d_cache.hits
                        l1d_clk = l1d_cache._clock
                        h_horizon = hierarchy._pending_horizon
                        latency = result.latency
                        n_loads += 1
                        if result.l1_miss:
                            n_load_misses += 1
                            load_wait[seq] = 1
                            if rec:
                                tl_miss(now, seq, result.level)
                    else:
                        l1d_cache.accesses = l1d_acc
                        l1d_cache.hits = l1d_hit
                        l1d_cache._clock = l1d_clk
                        access(addr, now, kind="store")
                        l1d_acc = l1d_cache.accesses
                        l1d_hit = l1d_cache.hits
                        l1d_clk = l1d_cache._clock
                        h_horizon = hierarchy._pending_horizon
                unissued[seq] = 0
                done = now + latency
                ready_cycle[seq] = done
                visible = done + wakeup_delay
                value_ready[seq] = visible
                # One visibility event per producer, the realistic
                # model's wakeup delay already folded in; gated on
                # having consumers at all.
                if k & 4:
                    if visible - now < WHEEL:
                        wheel[visible & 63].append(ev_pair[seq])
                    else:
                        heappush(heap, (visible, seq, gen[seq]))
                if has_queues:
                    queue_fill[queue_code[seq]] -= 1
                issued += 1
                if k & 2:                      # branch
                    # Inline gshare.update + FrontEnd.redirect.
                    idx = (d_pc[seq] ^ bp_history) & bp_mask
                    counter = bp_counters[idx]
                    taken = d_taken[seq]
                    n_branches += 1
                    if taken:
                        bp_counters[idx] = BP_INC[counter]
                        bp_history = ((bp_history << 1) | 1) \
                            & bp_hist_mask
                        wrong = counter < 2
                    else:
                        bp_counters[idx] = BP_DEC[counter]
                        bp_history = (bp_history << 1) & bp_hist_mask
                        wrong = counter >= 2
                    if wrong:
                        n_bp_wrong += 1
                        frontend.redirects += 1
                        if f_fetched > seq + 1:
                            f_fetched = seq + 1
                        redirect_stall = now + mispredict_penalty
                        if redirect_stall > f_stall:
                            f_stall = redirect_stall
                        f_last = -1
                        n_mispredicts += 1
                        squash_after = seq
                        break
                if issued >= width:
                    break
            if rec and issued:
                # Issue order: the head advance, then any middle deletes
                # (all younger than the starved entry that stopped it).
                tl.issue_many(now, rdy[head:hr] + skipped_issues)
                skipped_issues.clear()
            # Reclaim the consumed prefix: clear a fully-drained queue,
            # compact a long dead region.
            if hr:
                if hr == rlen:
                    del rdy[:]
                    hr = 0
                elif hr > 32:
                    del rdy[:hr]
                    hr = 0

        # ---- squash wrong-path work younger than the branch ------------
        if squash_after >= 0:
            for s in range(squash_after + 1, dispatch_ptr):
                g2 = gen[s] + 1                # invalidate calendar events
                gen[s] = g2
                ev_pair[s] = (s, g2)
                r = value_ready[s]
                if r and r <= now:
                    # The squashed producer's visibility event already
                    # fired (events drain at cycle start, issue is
                    # later, and the minimum latency is 1, so a fired
                    # event always has ``visible <= now``): rewind its
                    # decrements so the accumulator again counts it
                    # invisible.  Every consumer of a squashed seq is
                    # younger, hence squashed too.
                    for c in cons_lists[s]:
                        spend[c] += 1
                value_ready[s] = 0
                load_wait[s] = 0
                if unissued[s]:
                    unissued[s] = 0
                    n_waiting -= 1
                    if has_queues:
                        queue_fill[queue_code[s]] -= 1
                # Forget squashed rename-table entries.  A register maps
                # beyond the squash point iff its most recent writer is
                # one of the squashed seqs, so visiting each squashed
                # seq's dispatch-time dests (the same dest set rename
                # used) covers exactly the slots the scalar loop's full
                # table sweep would reset.
                if merge_dests and d_pred[s]:
                    dests = d_sdests[s]
                else:
                    dests = d_dests[s]
                for dest in dests:
                    if last_writer[dest] > squash_after:
                        last_writer[dest] = -1
                        forgotten.add(dest)
            # Truncate the queue's live region past the squash point
            # (the dead region below the head needs no maintenance).
            del rdy[bisect_right(rdy, squash_after, hr):]
            dispatch_ptr = squash_after + 1
            wl_cur = -1        # boundary may be gone; recover on demand

        # ---- commit ----------------------------------------------------
        committed = 0
        if replay is None:
            while commit_ptr < dispatch_ptr and committed < width:
                s = commit_ptr
                if unissued[s] or ready_cycle[s] > now:
                    break
                commit_ptr = s + 1
                committed += 1
        else:
            while commit_ptr < dispatch_ptr and committed < width:
                s = commit_ptr
                if unissued[s] or ready_cycle[s] > now:
                    break
                commit_ptr = s + 1
                replay.commit(entries[s])
                committed += 1
        n_commits += committed
        if rec and committed:
            tl.commit_many(now, range(commit_ptr - committed, commit_ptr))

        # ---- attribution -----------------------------------------------
        if issued:
            c_exec += 1
            if rec:
                tl_charge(now, EXECUTION)
        elif commit_ptr == dispatch_ptr:
            c_fe += 1
            if rec:
                if dispatch_ptr < n:
                    tl_charge(now, FRONT_END, dispatch_ptr,
                              d_pc[dispatch_ptr])
                else:
                    tl_charge(now, FRONT_END)
        else:
            h = commit_ptr
            if not unissued[h]:
                cause = LOAD if load_wait[h] else OTHER
            else:
                cause = OTHER
                # Dirty-mode seqs carry their dynamic producer row;
                # clean-mode seqs walk the static row — a static
                # producer the dynamic filter would have dropped was
                # visible at dispatch and stays visible while ``h``
                # lives, so the first-invisible hit is the same.
                for p in (cprods[h] if dirty[h] else sprods[h]):
                    r = value_ready[p]
                    if r == 0 or r > now:
                        cause = LOAD if d_load[p] else OTHER
                        break
            if cause is LOAD:
                c_load += 1
            else:
                c_other += 1
            if rec:
                tl_charge(now, cause, h, d_pc[h])
        now += 1

        # ---- idle fast-forward ------------------------------------------
        # Whole-machine quiescence: nothing dispatched, issued or
        # committed this cycle.  Quiescence is *self-sustaining* until
        # the earliest in-flight completion/wakeup horizon: no issue
        # means no squash; no commit means the ROB (and any full issue
        # queue) stays blocked; the ready buckets, window boundary and
        # port demands are frozen, so a zero-issue merge repeats
        # verbatim.  The only per-cycle actor left is fetch, so the
        # skip is gated on fetch being a no-op for the whole span —
        # the base-class clamp keyed on the (frozen) commit pointer.
        # This subsumes the scalar loop's stricter dispatch-pointer
        # veto: a capacity-blocked dispatch cannot unblock before a
        # commit, and the wake horizon bounds the first commit.  (The
        # heap cannot replace the horizon scan: an event landing
        # exactly on ``now`` has already been popped, yet must veto
        # the skip.)
        if not issued and not committed and not dispatched \
                and commit_ptr < dispatch_ptr:
            limit = commit_ptr + fetch_buffer
            if limit > n:
                limit = n
            if f_fetched >= limit:
                cap = _INF                 # fetch done or buffer full
            else:
                cap = f_stall               # I-stalled: skip to the fill
        else:
            cap = 0
        if cap > now:
            wake = _INF
            for s in range(commit_ptr, dispatch_ptr):
                if unissued[s]:
                    continue
                r = ready_cycle[s]
                if r < now:
                    r += wakeup_delay
                    if r < now:
                        continue
                if r < wake:
                    wake = r
            skip_to = wake if wake < cap else cap
            if now < skip_to < _INF:
                # Same attribution rule, evaluated at the post-increment
                # cycle like the scalar loop.
                h = commit_ptr
                if not unissued[h]:
                    cause = LOAD if load_wait[h] else OTHER
                else:
                    cause = OTHER
                    for p in cprods[h]:
                        r = value_ready[p]
                        if r == 0 or r > now:
                            cause = LOAD if d_load[p] else OTHER
                            break
                if cause is LOAD:
                    c_load += skip_to - now
                else:
                    c_other += skip_to - now
                if rec:
                    tl_charge(now, cause, h, d_pc[h], skip_to - now)
                now = skip_to

    frontend.fetched_until = f_fetched
    frontend.stall_until = f_stall
    frontend._last_line = f_last
    l1i_cache.accesses = l1i_acc
    l1i_cache.hits = l1i_hit
    l1i_cache._clock = l1i_clk
    l1d_cache.accesses = l1d_acc
    l1d_cache.hits = l1d_hit
    l1d_cache._clock = l1d_clk
    hierarchy._pending_horizon = h_horizon
    predictor._history = bp_history
    predictor.predictions += n_branches
    predictor.mispredictions += n_bp_wrong
    stats.instructions += n_commits
    if n_loads:
        counters["loads_issued"] += n_loads
    if n_load_misses:
        counters["l1d_load_misses"] += n_load_misses
    if n_mispredicts:
        counters["mispredicts"] += n_mispredicts
    breakdown = stats.cycle_breakdown
    breakdown[EXECUTION] += c_exec
    breakdown[FRONT_END] += c_fe
    breakdown[LOAD] += c_load
    breakdown[OTHER] += c_other
    stats.cycles += c_exec + c_fe + c_load + c_other
    return core.finalize()
