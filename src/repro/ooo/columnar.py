"""Event-driven columnar kernel for the out-of-order cores.

Drop-in replacement for the scalar cycle loop in
:mod:`repro.ooo.core` (kept there as the ``--slow`` reference; a
:class:`~repro.telemetry.timeline.Timeline` records on this kernel,
behind one ``rec`` flag fixed at entry):
same machine, same statistics, bit-identical cycle counts and stall
attribution, but the per-cycle *work* is restructured around
preallocated flat columns and an event calendar
(:mod:`repro.pipeline.eventq`) instead of polling the scheduling
window:

* **Wakeup runs off wait lists built at dispatch.**  Rename is the
  scalar loop's own: dispatch walks the last-writer table over each
  source (and, on the realistic model, a predicated instruction's
  static destinations), in source order with the first occurrence
  winning.  Every distinct producer that is not yet visible is counted
  in ``pending[c]``, kept in ``cprods[c]`` until ``c`` issues, and
  gets ``c`` appended to its wait list ``waits[p]``.  A producer's
  visibility event — at ``issue + latency + wakeup_delay``, the
  realistic model's wakeup delay folded into the event time — walks
  only its own wait list, and a consumer whose count reaches zero drops
  into the ready queue.  Nothing scans the scheduling window; the
  scalar ``waiting`` list survives only as the ``n_waiting`` counter,
  and the window boundary — only meaningful when more than ``window``
  seqs wait, which is rare — is recovered on demand from the ROB
  range, whose un-issued subsequence is exactly the old list.
* **One event per producer with waiters.**  It is scheduled at issue
  when the wait list is non-empty, or at the first waiter's dispatch
  when the producer has already issued.  Calendar entries are bare
  seqs (heap entries ``(cycle, seq)``), and the stamp is the producer's
  visibility cycle: an entry drained at cycle ``t`` is live only if
  ``value_ready[p] == t``.  Two entries for one producer falling due
  together are harmless — the second finds the list already emptied.
* **The ready queue pops from a head pointer.**  One ascending seq
  list consumed from a moving head: while the scan has skipped no
  port-starved entry, issuing is a pure head advance — no ``del
  ready[i]`` shift, no bisect — and only after a starvation skip does
  the issued seq come out of the middle, which is the old kernel's
  behaviour and rare.  The scan itself is the scalar loop's: oldest
  first, each issue one step of :func:`~repro.resources.issue_table`,
  the scalar loop's ``PortTracker`` as a table (ALU takes an I port,
  spilling to M ports; a spilled ALU can starve MEM), so it selects
  exactly the seqs the scalar scan would, in the same order.
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
* **Squash truncates.**  A squash re-dispatches the same seqs (trace
  replay).  The squashed seqs' own wait lists are cleared (their
  waiters are younger, hence squashed too), surviving producers drop
  squashed waiters from the tail of their ascending lists, and
  squashed rename-table entries reset to -1, as in the scalar loop.
  Their pending events go stale through ``value_ready``.

Equivalence invariants (the bit-identity contract, see
``docs/architecture.md`` §13):

* A consumer enters the ready queue at cycle ``t`` iff every rename-time
  producer satisfies ``value_ready != 0 and value_ready <= t`` and ``t``
  is the earliest such cycle — exactly the scalar issue-scan predicate.
  Producer events fire at the start of their cycle, before dispatch and
  issue — the same ordering as the scalar loop's read of
  ``value_ready`` (a consumer dispatching the very cycle a producer
  becomes visible sees it visible and never joins its wait list).
* Queue inserts at fire time use ``insort`` bounded below by the head —
  the region behind the head is dead and unordered, so the bound is a
  correctness requirement, not a hint — keeping the live region
  ascending; dispatch-time inserts are appends, since dispatch runs in
  ascending seq order and squash truncates the live region back below
  the squash point before any re-dispatch.
* No live event can land inside a fast-forwarded span: the skip is
  capped by the wake horizon, the earlier of the head's completion (the
  next commit) and the earliest live event on the calendar
  (``EventCalendar.next_live`` under the ``value_ready`` stamp).  Only
  stale entries can be jumped; their stamp discards them when they
  next surface.
* The window boundary (the ``window``-th oldest un-issued seq) is
  sampled once per cycle before the issue scan, and the port state
  starts empty there, matching the scalar scan's fixed candidate slice
  and ``tracker.reset()``.

The kernel reaches the memory system and the branch predictor only
through their public entry points, as the scalar loop does.  Fetch is
``FrontEnd.tick`` once a cycle, an issued branch calls
``FrontEnd.resolve`` (which trains the predictor and, on a mispredict,
redirects fetch), and every load and store calls ``hierarchy.access``.
On resident code (every static code line in the L1I after the
pre-warm) ``tick`` counts its L1I hits instead of probing; a ``tick``
that probed every line change through ``hierarchy.access`` read
cold-sweep 1.14x slower (EXPERIMENTS.md, "One memory path in the
kernels").

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
from ..resources import issue_table

#: Sentinel wake-up target meaning "no event ends the idle span".
_INF = 1 << 62


def run_columnar(core, max_cycles: int) -> SimStats:
    """Run an :class:`~repro.ooo.core.OutOfOrderCore` to completion.

    ``core`` must be freshly constructed and not in ``--slow`` mode
    (``run()`` routes that to the scalar reference loop).  Its tracer
    is ``None`` or a :class:`~repro.telemetry.timeline.Timeline`, which
    the kernel records into.
    """
    trace = core.trace
    dec = trace.decoded
    n = dec.n
    cols = columns_of(dec)
    merge_dests = not core.ideal
    port_code = cols.port_code
    queue_code = cols.queue_code

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

    config = core.config
    frontend = core.frontend
    window = config.ooo_window
    rob_capacity = config.ooo_rob
    width = config.ports.width
    fetch_buffer = core.buffer_size
    stats = core.stats
    counters = stats.counters
    # The kernel reaches the memory system only through the front end's
    # fetch (the scalar loop's own, which also records fetches on the
    # Timeline) and the hierarchy's own entry point.
    fetch = frontend.tick
    access = core.hierarchy.access
    # Branches train the predictor and redirect fetch through the front
    # end, as in the scalar loop.
    resolve = frontend.resolve
    wakeup_delay = core.wakeup_delay
    # The dispersal rule: an issue is one step of the tracker's table,
    # refused at -1.  The scan's own width break always comes first.
    table = issue_table(config.ports)
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
        # Seqs issued after a port-starved skip (middle deletes) this
        # cycle; the rest of the cycle's issues are a ready-queue slice.
        skipped_issues: list = []

    replay = core.replay
    # TraceEntry objects only for the --check replay.
    entries = trace.entries if replay is not None else None
    queue_cap = core.decentralized_queues
    has_queues = queue_cap is not None
    queue_fill = [0, 0, 0]

    # Flat per-seq state (current incarnation).
    value_ready = [0] * n        # visibility cycle; 0 = not issued
    ready_cycle = [0] * n        # completion (commit-eligibility) cycle
    unissued = bytearray(n)      # dispatched and awaiting issue
    load_wait = bytearray(n)     # issued load that missed the L1
    # Wakeup state, built at dispatch through the rename table like the
    # scalar loop's producer dict: ``pending[c]`` counts c's producers
    # that were invisible at dispatch and are still invisible,
    # ``cprods[c]`` lists them in rename order for stall attribution
    # (read only while c is un-issued with ``pending[c]``; freed at
    # c's issue), and ``waits[p]`` holds p's waiting consumers in
    # ascending seq order (None: nobody waits).
    pending = [0] * n
    cprods = [()] * n
    waits = [None] * n
    # reg -> last producing seq (-1: none); reproduces the scalar rename
    # table including its post-squash forgetting, which is observable.
    last_writer = [-1] * NUM_REGS

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
    # Producer-visibility events on the event calendar: near events in
    # the 64-slot wheel as bare seqs drained exactly at their cycle, far
    # events (memory misses) heap-ordered as (cycle, seq).  An entry
    # drained at cycle ``now`` is live only if ``value_ready[p] == now``.
    cal = EventCalendar()
    wheel = cal.wheel
    heap = cal.heap
    next_live = cal.next_live

    # The stamp rule, for the idle skip's horizon query.  ``value_ready``
    # is bound as a default so the kernel's own reads of it stay plain
    # locals rather than closure cells.
    def live(p, t, value_ready=value_ready):
        return value_ready[p] == t

    dispatch_ptr = 0
    commit_ptr = 0
    now = 0

    while commit_ptr < n:
        if now > max_cycles:
            core.check_cycle_budget(now, max_cycles)

        # ---- wake-ups: producers whose values become visible now ------
        # Far events come due into this cycle's slot; each live entry
        # walks its producer's wait list once and empties it.
        slot = wheel[now & 63]
        while heap and heap[0][0] <= now:
            slot.append(heappop(heap)[1])
        if slot:
            for p in slot:
                if value_ready[p] == now:
                    wl = waits[p]
                    if wl is not None:
                        waits[p] = None
                        for c in wl:
                            pend = pending[c] - 1
                            pending[c] = pend
                            if not pend:
                                insort(rdy, c, hr)
            del slot[:]

        # ---- fetch -----------------------------------------------------
        f_fetched = fetch(now, commit_ptr)

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
            # Rename, as the scalar loop's producer walk: sources, then
            # (merged rule) static destinations; first occurrence wins.
            srcs = d_srcs[seq]
            if merge_dests and d_pred[seq]:
                # Without predicate renaming, a predicated write must
                # merge with the destination's previous value.
                dest_iter = d_sdests[seq]
                srcs += dest_iter
            else:
                dest_iter = d_dests[seq]
            prods = []
            for src in srcs:
                p = last_writer[src]
                if p >= 0:
                    r = value_ready[p]
                    if r == 0 or r > now:
                        # Not yet visible: join p's wait list.
                        wl = waits[p]
                        if wl is None:
                            waits[p] = [seq]
                            if r:
                                # p issued while nobody waited, so the
                                # first waiter schedules its event.
                                if r - now < WHEEL:
                                    wheel[r & 63].append(p)
                                else:
                                    heappush(heap, (r, p))
                        elif wl[-1] != seq:
                            wl.append(seq)
                        else:
                            continue           # repeated producer
                        prods.append(p)
            for dest in dest_iter:
                last_writer[dest] = seq
            unissued[seq] = 1
            n_waiting += 1
            if prods:
                pending[seq] = len(prods)
                cprods[seq] = prods
            else:
                # Every producer already visible: ready this cycle.
                # Dispatch runs in ascending seq order and seqs in the
                # queue are all older, so append keeps the live region
                # sorted.
                pending[seq] = 0
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
            port_state = 0
            i = head = hr
            while i < rlen:
                seq = rdy[i]
                if seq > wlimit:
                    break                      # out of window
                next_state = table[port_state + port_code[seq]]
                if next_state < 0:
                    i += 1                     # starved: skip, keep
                    continue
                port_state = next_state
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
                latency = d_lat[seq]
                if d_mem[seq]:
                    if d_load[seq]:
                        result = access(d_addr[seq], now)
                        latency = result.latency
                        n_loads += 1
                        if result.l1_miss:
                            n_load_misses += 1
                            load_wait[seq] = 1
                            if rec:
                                tl_miss(now, seq, result.level)
                    else:
                        access(d_addr[seq], now, kind="store")
                unissued[seq] = 0
                # Unread from here on; dropping it now keeps the
                # per-seq lists from piling up for the cycle collector.
                cprods[seq] = ()
                done = now + latency
                ready_cycle[seq] = done
                visible = done + wakeup_delay
                value_ready[seq] = visible
                # One visibility event per producer, the realistic
                # model's wakeup delay already folded in; gated on
                # having waiters at all.
                if waits[seq] is not None:
                    if visible - now < WHEEL:
                        wheel[visible & 63].append(seq)
                    else:
                        heappush(heap, (visible, seq))
                if has_queues:
                    queue_fill[queue_code[seq]] -= 1
                issued += 1
                if d_branch[seq] and resolve(seq, d_pc[seq], d_taken[seq],
                                             now):
                    # Mispredicted: fetch was redirected past the branch.
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
                # s's waiters are younger, hence squashed too; its
                # pending event goes stale with ``value_ready``.
                waits[s] = None
                value_ready[s] = 0
                load_wait[s] = 0
                if unissued[s]:
                    unissued[s] = 0
                    n_waiting -= 1
                    if has_queues:
                        queue_fill[queue_code[s]] -= 1
                    if pending[s]:
                        # Drop s, and with it every younger squashed
                        # waiter, from the surviving producers' lists:
                        # each list ascends, so they sit at its tail.
                        for p in cprods[s]:
                            if p <= squash_after:
                                wl = waits[p]
                                if wl is not None:
                                    while wl and wl[-1] > squash_after:
                                        wl.pop()
                                    if not wl:
                                        waits[p] = None
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
                # The scalar loop's first invisible producer in rename
                # order; none once ``pending`` is 0 (port or window).
                cause = OTHER
                if pending[h]:
                    for p in cprods[h]:
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
        # the wake horizon, the next event that can end it: no issue
        # means no squash; no commit means the ROB (and any full issue
        # queue) stays blocked; the ready queue, window boundary and
        # port demands are frozen until a wakeup, so a zero-issue scan
        # repeats verbatim.  Only three things can change state: a live
        # visibility event (every one is on the calendar), the head's
        # commit at its completion, and fetch.  So the horizon is the
        # earlier of the head's completion and the calendar's earliest
        # live event at or after ``now`` (an event due at ``now`` is
        # still in its slot or on the heap, and vetoes the skip); an
        # in-flight completion nobody waits on changes nothing.  Fetch
        # must be a no-op for the whole span — the base-class clamp
        # keyed on the (frozen) commit pointer caps the skip.  This
        # subsumes the scalar loop's stricter dispatch-pointer veto: a
        # capacity-blocked dispatch cannot unblock before a commit or
        # an issue.
        if not issued and not committed and not dispatched \
                and commit_ptr < dispatch_ptr:
            limit = commit_ptr + fetch_buffer
            if limit > n:
                limit = n
            if f_fetched >= limit:
                cap = _INF                 # fetch done or buffer full
            else:
                cap = frontend.stall_until  # I-stalled: skip to the fill
        else:
            cap = 0
        if cap > now:
            h = commit_ptr
            if not unissued[h] and ready_cycle[h] < cap:
                cap = ready_cycle[h]       # the head commits first
            skip_to = next_live(now, cap, live)
            if now < skip_to < _INF:
                # Same attribution rule, evaluated at the post-increment
                # cycle like the scalar loop.  The head has issued: this
                # cycle dispatched, issued and committed nothing, yet an
                # unissued head would have issued — its producers are
                # older, hence committed and visible by the cycle after
                # their commit, and the oldest ready seq always gets a
                # port.
                cause = LOAD if load_wait[h] else OTHER
                if cause is LOAD:
                    c_load += skip_to - now
                else:
                    c_other += skip_to - now
                if rec:
                    tl_charge(now, cause, h, d_pc[h], skip_to - now)
                now = skip_to

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
