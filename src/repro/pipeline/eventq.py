"""Event calendar: 64-slot timing wheel + far-event heap.

The OOO columnar kernel (:mod:`repro.ooo.columnar`) schedules its
producer-visibility wake-ups on this two-tier calendar:

* events due within :data:`WHEEL` cycles go to a slot of a 64-entry
  timing wheel — appended in O(1), drained exactly at their cycle by
  the ``now & WHEEL_MASK`` slot visit;
* farther events (memory-latency fills) go to a binary heap ordered by
  due cycle, popped as they come due.

Entries have the kernel's shape, and the calendar reads them only as
far as the heap order needs:

* **Wheel entries are bare seqs, heap entries ``(cycle, seq)``.**  A
  wheel entry needs no time field because the caller drains slots
  cycle-by-cycle (the slot index IS the time); a heap entry compares
  by its due cycle first.  A far entry that comes due is promoted into
  its cycle's slot as a bare seq, so a drain sees only seqs.
* **Staleness is the caller's stamp, checked at drain.**  Nothing is
  ever removed from the calendar eagerly.  The caller discards an
  entry whose stamp no longer matches when it surfaces.  The OOO
  kernel's stamp is the producer's visibility cycle: an entry drained
  at cycle ``t`` is live only if ``value_ready[seq] == t``, which a
  squash resets.  This is what makes wheel slots safe across 64-cycle
  wraps and idle fast-forward spans: a *live* entry is always drained
  exactly at its due cycle (every entry is inserted less than
  :data:`WHEEL` cycles before it fires, so the first visit of its slot
  after insertion is its own cycle, and the kernel's quiescence skip
  never jumps a live event — the skip's wake horizon comes from the
  calendar itself, :meth:`next_live` under the caller's stamp); only
  *stale* entries can be jumped, and their stamp discards them
  whenever they next surface.
* **The hot loop inlines.**  The kernel localizes :attr:`wheel` and
  :attr:`heap` and open-codes :meth:`schedule` and :meth:`pop_due` —
  at a few million events per second a method call per event is
  measurable.  Those two methods are the readable specification of the
  idioms, with the kernel's entry shapes and drain order (and the
  surface the unit tests pin).
  :meth:`next_live`, the idle skip's horizon query, runs only on
  quiescent cycles, so the kernel calls it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Tuple

#: Calendar horizon: events strictly less than ``WHEEL`` cycles out sit
#: in a wheel slot, farther ones in the heap.  Power of two — the slot
#: index is ``cycle & WHEEL_MASK``.
WHEEL = 64

#: Slot-index mask (``cycle & WHEEL_MASK == cycle % WHEEL``).
WHEEL_MASK = WHEEL - 1


class EventCalendar:
    """One timing wheel + far heap, as used by the OOO columnar kernel."""

    __slots__ = ("wheel", "heap")

    def __init__(self) -> None:
        self.wheel: List[list] = [[] for _ in range(WHEEL)]
        self.heap: List[Tuple[int, int]] = []

    def schedule(self, time: int, now: int, seq: int) -> None:
        """File ``seq`` to surface at cycle ``time`` (``time > now``):
        bare in its wheel slot when near (``time - now < WHEEL``), as
        ``(time, seq)`` on the heap when far."""
        if time - now < WHEEL:
            self.wheel[time & WHEEL_MASK].append(seq)
        else:
            heappush(self.heap, (time, seq))

    def slot(self, now: int) -> list:
        """The wheel slot due at cycle ``now``."""
        return self.wheel[now & WHEEL_MASK]

    def pop_due(self, now: int) -> list:
        """Drain and return the seqs due at ``now``.

        Every heap entry due at or before ``now`` is first promoted into
        this cycle's slot as a bare seq, after the slot's own entries
        (heap order among themselves); for a cycle-by-cycle caller that
        is exactly their own cycle.  Staleness stamps are NOT checked
        here; the caller filters.
        """
        slot = self.wheel[now & WHEEL_MASK]
        heap = self.heap
        while heap and heap[0][0] <= now:
            slot.append(heappop(heap)[1])
        due = slot[:]
        del slot[:]
        return due

    def next_live(self, now: int, limit: int,
                  live: Callable[[int, int], bool]) -> int:
        """The earliest cycle before ``limit`` at which a live entry is due.

        Visits the wheel slots of cycles ``now`` up to ``limit``, at most
        :data:`WHEEL` of them, for a seq that ``live(seq, t)``, the
        caller's stamp rule, accepts at its slot's cycle ``t``.  The heap
        top bounds the answer, live or stale (a stale top only makes the
        answer earlier); ``limit`` is returned when nothing comes first.
        """
        heap = self.heap
        if heap and heap[0][0] < limit:
            limit = heap[0][0]
        stop = now + WHEEL
        if stop > limit:
            stop = limit
        wheel = self.wheel
        for t in range(now, stop):
            for seq in wheel[t & WHEEL_MASK]:
                if live(seq, t):
                    return t
        return limit


__all__ = ("WHEEL", "WHEEL_MASK", "EventCalendar")
