"""Event calendar: 64-slot timing wheel + far-event heap.

The OOO columnar kernel (:mod:`repro.ooo.columnar`) schedules its
producer-visibility wake-ups on this two-tier calendar:

* events due within :data:`WHEEL` cycles go to a slot of a 64-entry
  timing wheel — appended in O(1), drained exactly at their cycle by
  the ``now & WHEEL_MASK`` slot visit;
* farther events (memory-latency fills) go to a binary heap ordered by
  due cycle, popped as they come due.

The calendar stores caller-shaped entries and never inspects them beyond
the heap ordering:

* **Far entries are due-cycle-first.**  A heap entry must compare by
  its due cycle, i.e. ``entry[0] == time``.  Wheel entries need no time
  field because the caller drains slots cycle-by-cycle (the slot index
  IS the time): the OOO kernel stores bare seqs in the wheel, and
  ``(cycle, seq)`` on the heap.
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
  :attr:`heap` and open-codes :meth:`schedule` / the drain loop — at a
  few million events per second a method call per event is measurable.
  Those methods are the readable specification of the idioms (and the
  surface the unit tests pin); the localized loops must stay
  observationally identical to them.  :meth:`next_live`, the idle
  skip's horizon query, runs only on quiescent cycles, so the kernel
  calls it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Tuple

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
        self.heap: List[Tuple] = []

    def schedule(self, time: int, now: int, entry: tuple) -> None:
        """File ``entry`` to fire at cycle ``time`` (``time > now``).

        Near events (``time - now < WHEEL``) go to their wheel slot;
        far events are heap-pushed and must be due-cycle-first tuples
        (``entry[0] == time``).
        """
        if time - now < WHEEL:
            self.wheel[time & WHEEL_MASK].append(entry)
        else:
            heappush(self.heap, entry)

    def slot(self, now: int) -> list:
        """The wheel slot due at cycle ``now`` (drain with ``del s[:]``)."""
        return self.wheel[now & WHEEL_MASK]

    def pop_due(self, now: int) -> list:
        """Drain and return every entry due at or before ``now``.

        Returns this cycle's wheel slot entries followed by all far
        entries whose due cycle has arrived (heap order) — far events
        are *promoted* out of the heap the moment their cycle comes due,
        which for a cycle-by-cycle caller is exactly their own cycle.
        Staleness stamps are NOT checked here; the caller filters.
        """
        due: list = []
        slot = self.wheel[now & WHEEL_MASK]
        if slot:
            due.extend(slot)
            del slot[:]
        heap = self.heap
        while heap and heap[0][0] <= now:
            due.append(heappop(heap))
        return due

    def next_live(self, now: int, limit: int,
                  live: Callable[[Any, int], bool]) -> int:
        """The earliest cycle before ``limit`` at which a live entry is due.

        Visits the wheel slots of cycles ``now`` up to ``limit``, at most
        :data:`WHEEL` of them, for an entry that ``live(entry, t)``, the
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
            for entry in wheel[t & WHEEL_MASK]:
                if live(entry, t):
                    return t
        return limit

    def clear(self) -> None:
        """Drop every scheduled event (fresh calendar, same lists)."""
        for slot in self.wheel:
            del slot[:]
        del self.heap[:]

    def __len__(self) -> int:
        """Total entries filed (including stale ones awaiting discard)."""
        return sum(len(slot) for slot in self.wheel) + len(self.heap)


__all__ = ("WHEEL", "WHEEL_MASK", "EventCalendar")
