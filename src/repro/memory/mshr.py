"""Miss-status holding registers: the outstanding-miss limit of Table 2.

The machine supports at most 16 concurrently outstanding misses.  An access
that needs a new miss when all registers are busy is delayed until the
earliest outstanding miss completes — this is the mechanism that bounds the
memory-level parallelism every model (in-order, multipass, runahead, OOO)
can extract.
"""

from __future__ import annotations

import heapq
from typing import Dict, List


class MSHRFile:
    """Tracks completion times of outstanding line fills."""

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self._completions: List[int] = []   # heap of ready cycles
        self._by_line: Dict[int, int] = {}  # line -> ready cycle
        self.allocations = 0
        self.merges = 0
        self.full_stall_cycles = 0

    def _expire(self, now: int) -> None:
        while self._completions and self._completions[0] <= now:
            heapq.heappop(self._completions)
        by_line = self._by_line
        if by_line:
            expired = [line for line, t in by_line.items() if t <= now]
            for line in expired:
                del by_line[line]

    def outstanding(self, now: int) -> int:
        self._expire(now)
        return len(self._completions)

    def pending_ready(self, line: int, now: int):
        """If ``line`` is already in flight, its ready cycle, else None."""
        ready = self._by_line.get(line)
        if ready is not None and ready > now:
            return ready
        return None

    def allocate(self, line: int, now: int, latency: int,
                 floor: int = 0) -> int:
        """Start a fill for ``line``; returns its completion cycle.

        Merges into an in-flight fill of the same line when present; when
        the file is full, the fill start is delayed until a register frees
        up (and the delay is recorded in ``full_stall_cycles``).  The fill
        completes ``latency`` cycles after it starts, and not before
        ``floor``: the absolute ready cycle of a still-pending fill of the
        serving level, which the delayed start does not postpone.
        """
        self._expire(now)
        pending = self.pending_ready(line, now)
        if pending is not None:
            self.merges += 1
            return pending
        start = now
        if len(self._completions) >= self.capacity:
            earliest = self._completions[0]
            self.full_stall_cycles += max(0, earliest - now)
            start = max(now, earliest)
            self._expire(start)
        ready = max(start + latency, floor)
        heapq.heappush(self._completions, ready)
        self._by_line[line] = ready
        self.allocations += 1
        return ready
