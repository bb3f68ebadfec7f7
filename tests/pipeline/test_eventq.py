"""Unit and property tests for the event calendar (and the
issue-select discipline built on top of it).

:mod:`repro.pipeline.eventq` is the readable specification of the
wheel/heap idioms the OOO columnar kernel open-codes; these tests pin
the contract the kernel relies on:

* a near event drains exactly at its due cycle, including across
  64-cycle wheel wraps;
* far events are promoted out of the heap the moment their cycle comes
  due, never earlier;
* staleness is the caller's stamp — a squash never removes entries, it
  re-stamps the seq, and the stale entry surfaces (and is discardable)
  at the slot's next visit;
* an idle fast-forward bounded by the wake horizon never jumps a live
  entry — the slot still holds it when the clock lands on its cycle;
* ``next_live``, the skip's horizon query, finds the earliest live
  entry at or after ``now`` (one due exactly at ``now`` included),
  passes over stale ones, is bounded by the heap top and never scans
  past its limit or the wheel's horizon.

The last test class pins the OOO kernel's *issue-select
discipline*: a single ascending ready queue with a dead-region head
pointer, mid-deletes only for port-starved skips, and ``insort`` above
the head must select exactly the seqs an oldest-first scalar scan with
the same port budgets would — in the same order — under arbitrary
arrival/budget interleavings (``docs/architecture.md`` §13).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.isa.opcodes import FUClass
from repro.pipeline import WHEEL, EventCalendar
from repro.pipeline.eventq import WHEEL_MASK
from repro.resources import PORT_CODE, PortModel, PortTracker, issue_table


def _drained(cal):
    return cal.heap == [] and not any(cal.wheel)


class TestWheel:
    def test_near_event_drains_exactly_at_due_cycle(self):
        cal = EventCalendar()
        cal.schedule(7, now=3, seq=1)
        for now in range(4, 7):
            assert cal.pop_due(now) == []
        assert cal.pop_due(7) == [1]
        assert _drained(cal)

    def test_wrap_lands_in_same_slot_different_era(self):
        # 60 -> 75 crosses the wheel origin; the slot index wraps but
        # the entry still surfaces exactly at 75.
        cal = EventCalendar()
        cal.schedule(75, now=60, seq=1)
        assert cal.slot(75 - WHEEL) == cal.wheel[75 & WHEEL_MASK] == [1]
        for now in range(61, 75):
            assert cal.pop_due(now) == []
        assert cal.pop_due(75) == [1]

    def test_same_cycle_entries_keep_insertion_order(self):
        cal = EventCalendar()
        cal.schedule(9, now=8, seq=2)
        cal.schedule(9, now=8, seq=1)
        assert cal.pop_due(9) == [2, 1]

    def test_horizon_boundary(self):
        # time - now == WHEEL - 1 is the last wheel-resident distance,
        # filed as a bare seq; WHEEL goes to the heap as (time, seq).
        cal = EventCalendar()
        cal.schedule(WHEEL - 1, now=0, seq=1)
        cal.schedule(WHEEL, now=0, seq=2)
        assert cal.slot(WHEEL - 1) == [1]
        assert cal.heap == [(WHEEL, 2)]


class TestFarHeap:
    def test_promoted_exactly_when_due(self):
        cal = EventCalendar()
        cal.schedule(200, now=0, seq=3)
        assert cal.pop_due(199) == []
        assert cal.pop_due(200) == [3]
        assert _drained(cal)

    def test_pop_due_orders_wheel_before_heap(self):
        # The heap promotes its due seqs into the slot behind the
        # slot's own, as the kernel's drain does.
        cal = EventCalendar()
        cal.schedule(100, now=0, seq=1)       # far
        cal.schedule(100, now=90, seq=2)      # near
        assert cal.pop_due(100) == [2, 1]

    def test_late_visit_drains_every_overdue_far_event(self):
        # A fast-forwarding caller may first visit the heap cycles
        # after several far events came due; all of them surface.
        cal = EventCalendar()
        for seq, t in enumerate((70, 80, 90)):
            cal.schedule(t, now=0, seq=seq)
        assert cal.pop_due(85) == [0, 1]
        assert cal.heap == [(90, 2)]


class TestStaleness:
    def test_squash_restamp_discards_at_drain(self):
        # The OOO kernel's squash protocol: reset the seq's visibility
        # cycle, leave the old entry in place.  The calendar surfaces
        # both eras; the caller's stamp check (live only if the seq
        # becomes visible at the drain cycle) keeps exactly the live one.
        cal = EventCalendar()
        value_ready = {4: 10}
        cal.schedule(10, now=5, seq=4)
        value_ready[4] = 0                # squash seq 4
        value_ready[4] = 12               # reissue
        cal.schedule(12, now=6, seq=4)
        stale = [p for p in cal.pop_due(10) if value_ready[p] == 10]
        assert stale == []                # old-era entry discarded
        live = [p for p in cal.pop_due(12) if value_ready[p] == 12]
        assert live == [4]

    def test_stale_entry_jumped_by_wrap_still_discardable(self):
        # Only stale entries may be jumped by a skip; when the slot
        # next comes around (one wrap later) the entry is still there
        # and still identifiably stale.
        cal = EventCalendar()
        cal.schedule(10, now=5, seq=4)
        # skip straight past cycle 10 without visiting the slot...
        assert cal.slot(10 + WHEEL) is cal.slot(10)
        assert cal.slot(10 + WHEEL) == [4]    # ...it survives


def _due(seq, cycle):
    """Stamp rule for seqs filed under their own due cycle."""
    return seq == cycle


class TestIdleSkipInteraction:
    def test_skip_bounded_by_wake_horizon_never_jumps_live_entry(self):
        # An idle span fast-forwards from ``now`` to the calendar's
        # earliest live event (the wake horizon).  Every live entry
        # was inserted < WHEEL cycles before it fires, so landing the
        # clock exactly on the horizon finds the entry in its slot.
        cal = EventCalendar()
        now = 100
        wake = now + WHEEL - 1            # worst-case near distance
        cal.schedule(wake, now, seq=wake)
        assert cal.next_live(now + 1, 1 << 40, _due) == wake
        # the skip visits no intermediate slot; the landing visit
        # drains the event exactly once
        assert cal.pop_due(wake) == [wake]
        assert cal.pop_due(wake + WHEEL) == []

    def test_far_event_caps_the_skip(self):
        # A skip past the wheel horizon is capped by the heap top; the
        # promoted entry then bounds the landing cycle.
        cal = EventCalendar()
        cal.schedule(300, now=0, seq=300)
        horizon = cal.next_live(1, 1 << 40, _due)
        assert horizon == 300
        assert cal.pop_due(horizon) == [300]


class TestNextLive:
    def test_finds_the_earliest_live_wheel_entry(self):
        cal = EventCalendar()
        for due in (9, 5, 30):
            cal.schedule(due, now=0, seq=due)
        assert cal.next_live(1, 100, _due) == 5

    def test_passes_over_an_entry_restamped_by_a_squash(self):
        # The OOO kernel's entries are bare seqs stamped by the seq's
        # visibility cycle; a squash resets it, a reissue restamps it.
        cal = EventCalendar()
        value_ready = {4: 10}
        cal.schedule(10, now=5, seq=4)
        value_ready[4] = 12               # squashed and reissued
        cal.schedule(12, now=6, seq=4)

        def live(p, t):
            return value_ready[p] == t

        assert cal.next_live(7, 100, live) == 12
        value_ready[4] = 0                # squashed for good
        assert cal.next_live(7, 100, live) == 100

    def test_passes_over_a_stale_entry_left_in_a_skipped_slot(self):
        # A stale entry jumped by an earlier skip still sits in its slot
        # when the wheel comes round; a live entry of the new era in the
        # same slot is the one found.
        cal = EventCalendar()
        cal.schedule(10, now=5, seq=10)
        now = 20                          # cycle 10's slot never drained
        assert cal.next_live(now, 1000, _due) == 1000
        cal.schedule(10 + WHEEL, now, seq=10 + WHEEL)
        assert cal.slot(10 + WHEEL) == [10, 10 + WHEEL]
        assert cal.next_live(now, 1000, _due) == 10 + WHEEL

    def test_finds_an_entry_due_exactly_at_now(self):
        # The off-by-one of docs/architecture.md section 11: an event
        # landing on ``now`` must veto the skip, not be jumped.
        cal = EventCalendar()
        cal.schedule(50, now=40, seq=50)
        cal.schedule(200, now=40, seq=200)
        assert cal.next_live(50, 1000, _due) == 50
        assert cal.pop_due(50) == [50]
        assert cal.next_live(200, 1000, _due) == 200

    def test_heap_top_bounds_the_answer(self):
        cal = EventCalendar()
        cal.schedule(300, now=0, seq=300)
        cal.schedule(310, now=280, seq=310)
        assert cal.next_live(290, 1000, _due) == 300
        # a stale heap top still bounds it: it only shortens a skip
        assert cal.next_live(290, 1000, lambda seq, t: False) == 300
        # ... and a limit before the heap top wins
        assert cal.next_live(290, 295, _due) == 295

    def test_stops_its_scan_at_the_limit_and_the_wheel_horizon(self):
        cal = EventCalendar()
        for slot in cal.wheel:            # one stale entry in every slot
            slot.append(-1)
        cal.schedule(30, now=0, seq=30)
        visited = []

        def live(seq, t):
            visited.append(t)
            return seq == t

        assert cal.next_live(0, 20, live) == 20
        assert sorted(set(visited)) == list(range(20))
        visited.clear()
        assert cal.next_live(31, 1 << 40, live) == 1 << 40
        assert sorted(set(visited)) == list(range(31, 31 + WHEEL))


@st.composite
def schedules(draw):
    """(insert_cycle, due_cycle) pairs with kernel-shaped distances."""
    events = []
    now = 0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        now += draw(st.integers(min_value=0, max_value=10))
        delay = draw(st.integers(min_value=1, max_value=200))
        events.append((now, now + delay))
    return events


@st.composite
def schedules_with_squashes(draw):
    """Keyed ``schedules()``, some entries squashed while in flight."""
    events = [(insert, due, key)
              for key, (insert, due) in enumerate(draw(schedules()))]
    squashed = [(key, draw(st.integers(min_value=insert + 1,
                                       max_value=due - 1)))
                for insert, due, key in events
                if due - insert > 1 and draw(st.booleans())]
    return events, squashed


class TestCalendarProperties:
    @given(schedules())
    @settings(max_examples=60, deadline=None)
    def test_every_entry_drains_exactly_at_its_due_cycle(self, events):
        cal = EventCalendar()
        pending = {}
        drained = {}
        horizon = max(due for _, due in events)
        inserts = iter(sorted(events))
        nxt = next(inserts, None)
        for now in range(0, horizon + 1):
            while nxt is not None and nxt[0] == now:
                key = len(drained) + len(pending)
                cal.schedule(nxt[1], now, seq=key)
                pending[key] = nxt[1]
                nxt = next(inserts, None)
            for key in cal.pop_due(now):
                assert pending.pop(key) == now, "entry drained off its cycle"
                drained[key] = now
        assert not pending, "entries never drained"
        assert _drained(cal)

    @given(schedules_with_squashes(), st.integers(min_value=1,
                                                  max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_never_later_than_the_earliest_live_entry(self, case, span):
        # A cycle-by-cycle caller that asks before each drain gets the
        # earliest live due cycle at or after ``now``, capped by the
        # limit -- or an earlier answer, only under a stale heap top.
        events, squashed = case
        cal = EventCalendar()
        stamp = {}

        def live(seq, t):
            return stamp[seq] == t

        for now in range(max(due for _, due, _ in events) + 1):
            for insert, due, key in events:
                if insert == now:
                    stamp[key] = due
                    cal.schedule(due, now, seq=key)
            for key, at in squashed:
                if at == now:
                    stamp[key] = 0
            limit = now + span
            expect = min([d for d in stamp.values() if d >= now]
                         + [limit])
            got = cal.next_live(now, limit, live)
            assert got <= expect, "a live entry was jumped"
            if not cal.heap or live(cal.heap[0][1], cal.heap[0][0]):
                assert got == expect
            cal.pop_due(now)


# ---------------------------------------------------------------------------
# Issue-select discipline: head-pointer ready queue vs oldest-first scan
# ---------------------------------------------------------------------------

def _scalar_select(ready, fus, model, wlimit):
    """Oldest-first scalar reference: scan every ready seq ascending,
    asking the port tracker."""
    tracker = PortTracker(model)
    picked = []
    for seq in sorted(ready):
        if seq > wlimit:
            break
        fu = fus[seq]
        if not tracker.can_issue(fu):
            continue
        tracker.issue(fu)
        picked.append(seq)
        if len(picked) >= model.width:
            break
    return picked


def _queue_select(rdy, hr, codes, model, wlimit):
    """The OOO kernel's queue discipline, verbatim shape.

    ``rdy[hr:]`` is the live ascending region; issued entries advance
    the head when they sit at it and are mid-deleted when a
    port-starved entry was skipped below the scan point.  Ports are
    claimed by stepping :func:`~repro.resources.issue_table` with
    ``codes`` (``PORT_CODE`` per seq).  Returns the picked seqs and the
    new head.
    """
    table = issue_table(model)
    port_state = 0
    picked = []
    i = hr
    rlen = len(rdy)
    while i < rlen:
        seq = rdy[i]
        if seq > wlimit:
            break
        next_state = table[port_state + codes[seq]]
        if next_state < 0:
            i += 1
            continue
        port_state = next_state
        if i == hr:
            i = hr = hr + 1
        else:
            del rdy[i]
            rlen -= 1
        picked.append(seq)
        if len(picked) >= model.width:
            break
    # compaction, as in the kernel
    if hr:
        if hr == rlen:
            del rdy[:]
            hr = 0
        elif hr > 32:
            del rdy[:hr]
            hr = 0
    return picked, hr


@st.composite
def issue_scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    fus = draw(st.lists(st.sampled_from(FUClass), min_size=n, max_size=n))
    # per-cycle arrival batches partition 0..n-1 in ascending order
    # (dispatch order); wake-ups out of seq order are injected below.
    arrivals = []
    seq = 0
    while seq < n:
        k = draw(st.integers(min_value=0, max_value=6))
        arrivals.append(list(range(seq, min(seq + k, n))))
        seq = min(seq + k, n) if k else seq
        if not k:
            arrivals.append([])
            if len(arrivals) > 4 * n + 8:
                break
    budgets = (draw(st.integers(min_value=1, max_value=3)),
               draw(st.integers(min_value=1, max_value=3)),
               draw(st.integers(min_value=1, max_value=2)),
               draw(st.integers(min_value=1, max_value=2)))
    width = draw(st.integers(min_value=1, max_value=6))
    return fus, arrivals, PortModel(width, *budgets)


class TestIssueSelectOrder:
    @given(issue_scenarios(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_queue_matches_scalar_oldest_first(self, scenario, rng):
        fus, arrivals, model = scenario
        codes = [PORT_CODE[fu] for fu in fus]
        from bisect import insort

        rdy = []
        hr = 0
        ready_set = set()
        deferred = []           # woken later, possibly below queue max
        for batch in arrivals:
            # wake a random stashed seq "out of order" (a consumer
            # whose producer just fired): insort above the head, which
            # must keep the live region sorted even when the dead
            # region below the head is not.
            if deferred and rng.random() < 0.5:
                seq = deferred.pop(rng.randrange(len(deferred)))
                insort(rdy, seq, hr)
                ready_set.add(seq)
            for seq in batch:
                if rng.random() < 0.3:
                    deferred.append(seq)    # not ready yet
                else:
                    rdy.append(seq)         # dispatch-ready: append
                    ready_set.add(seq)
            wlimit = (min(ready_set) + rng.randrange(0, 64)
                      if ready_set and rng.random() < 0.3 else 1 << 60)
            expect = _scalar_select(ready_set, fus, model, wlimit)
            got, hr = _queue_select(rdy, hr, codes, model, wlimit)
            assert got == expect, (
                "queue discipline diverged from the oldest-first "
                f"scalar scan: {got} != {expect}")
            ready_set.difference_update(got)
        # wake every deferred seq and drain with unbounded budgets:
        # every survivor must come out oldest-first, width at a time.
        for seq in deferred:
            insort(rdy, seq, hr)
            ready_set.add(seq)
        while ready_set:
            expect = sorted(ready_set)[:9]
            got, hr = _queue_select(rdy, hr, codes,
                                    PortModel(9, 9, 9, 9, 9), 1 << 60)
            assert got == expect
            ready_set.difference_update(got)
