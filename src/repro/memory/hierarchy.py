"""Multi-level memory hierarchy with MSHR-limited miss overlap.

Latency semantics follow Table 2 of the paper: the reported latency of each
level is the *total* latency of an access that hits there (L1 1 cycle,
L2 5, L3 12, main memory 145).  Misses install lines at every level on the
way in; a line whose fill is still in flight serves later accesses with the
remaining fill time, which is how overlapping misses to the same line are
shared rather than duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .cache import Cache, CacheConfig
from .mshr import MSHRFile


class AccessResult:
    """Outcome of one hierarchy access."""

    __slots__ = ("latency", "level", "ready", "l1_miss")

    def __init__(self, latency: int, level: str, ready: int, l1_miss: bool):
        self.latency = latency
        self.level = level
        self.ready = ready
        self.l1_miss = l1_miss

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AccessResult(latency={self.latency}, level={self.level!r},"
                f" ready={self.ready})")


@dataclass(frozen=True)
class HierarchyConfig:
    """Parameters of a full memory system (one column of Fig. 7)."""

    name: str
    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    l3: Optional[CacheConfig]
    memory_latency: int
    max_outstanding_misses: int = 16

    def build(self) -> "MemoryHierarchy":
        return MemoryHierarchy(self)


@dataclass
class HierarchyStats:
    """Aggregated counters, filled on demand from the caches."""

    accesses: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    memory_accesses: int = 0
    mshr_merges: int = 0
    mshr_full_stall_cycles: int = 0


class MemoryHierarchy:
    """L1I + L1D + unified L2 (+ optional L3) + main memory."""

    def __init__(self, config: HierarchyConfig):
        self.config = config
        self.l1i = Cache(config.l1i)
        self.l1d = Cache(config.l1d)
        self.l2 = Cache(config.l2)
        self.l3 = Cache(config.l3) if config.l3 else None
        self.mshrs = MSHRFile(config.max_outstanding_misses)
        self.memory_accesses = 0
        # (cache id, line) -> fill-ready cycle, cleaned lazily.
        self._pending: Dict[tuple, int] = {}
        # Latest fill-ready cycle ever marked pending: when ``now`` has
        # passed it, every ``_pending`` entry is expired and the hit
        # fast path can skip the per-access dict probe entirely.
        self._pending_horizon = 0
        levels = [self.l2] if self.l3 is None else [self.l2, self.l3]
        self._i_levels = tuple([self.l1i] + levels)
        self._d_levels = tuple([self.l1d] + levels)

    # -- internal helpers -----------------------------------------------------

    def _pending_ready(self, cache: Cache, addr: int, now: int
                       ) -> Optional[int]:
        key = (id(cache), addr // cache.config.line_size)
        ready = self._pending.get(key)
        if ready is None:
            return None
        if ready <= now:
            del self._pending[key]
            return None
        return ready

    def _mark_pending(self, cache: Cache, addr: int, ready: int) -> None:
        self._pending[(id(cache), addr // cache.config.line_size)] = ready
        if ready > self._pending_horizon:
            self._pending_horizon = ready

    # -- public API -------------------------------------------------------------

    def access(self, addr: int, now: int, kind: str = "load"
               ) -> AccessResult:
        """Perform a timed access.

        Args:
            addr: byte address.
            now: current cycle.
            kind: ``"load"``, ``"store"`` or ``"ifetch"``.  Stores follow
                the load path (write-allocate) but callers typically ignore
                their latency; instruction fetches probe the L1I.

        Returns:
            the access latency, the name of the level that served it and
            the absolute ready cycle.
        """
        if kind == "ifetch":
            first = self.l1i
            levels = self._i_levels
        else:
            first = self.l1d
            levels = self._d_levels

        hit_level = None
        for depth, cache in enumerate(levels):
            if cache.access(addr):
                hit_level = depth
                break

        if hit_level == 0:
            # Hit fast path: the pending-fill probe only matters while a
            # fill is still in flight anywhere in the hierarchy.
            if self._pending:
                if now < self._pending_horizon:
                    pending = self._pending_ready(first, addr, now)
                    if pending is not None:
                        latency = max(first.config.latency, pending - now)
                        return AccessResult(latency, first.config.name,
                                            now + latency, True)
                else:
                    self._pending.clear()
            latency = first.config.latency
            return AccessResult(latency, first.config.name, now + latency,
                                False)

        # A serving level whose own fill is still in flight cannot supply
        # the line before that fill lands: its ready cycle is an absolute
        # floor on this access.
        floor = 0
        if hit_level is not None:
            serving = levels[hit_level]
            pending = self._pending_ready(serving, addr, now)
            base_latency = serving.config.latency
            if pending is not None:
                floor = pending
            level_name = serving.config.name
        else:
            base_latency = self.config.memory_latency
            self.memory_accesses += 1
            level_name = "mem"

        # A demand miss past the L1: allocate an MSHR (merging with an
        # in-flight fill of the same L1 line when possible).
        line = addr // first.config.line_size
        if kind == "ifetch":
            # ifetch misses bypass the MSHRs.
            ready = max(now + base_latency, floor)
        else:
            ready = self.mshrs.allocate(line, now, base_latency, floor)
        latency = ready - now

        # Install the line at the missing levels; mark fills pending.
        for cache in levels[:hit_level if hit_level is not None
                            else len(levels)]:
            cache.fill(addr)
            self._mark_pending(cache, addr, ready)
        return AccessResult(latency, level_name, ready, True)

    def settle(self) -> None:
        """Drop transient timing state, keeping cache contents.

        Used by sampled simulation between measurement units: functional
        warming installs lines with arbitrary timestamps; settling treats
        all fills as complete and the MSHR file as idle before a detailed
        unit starts a fresh clock.
        """
        self._pending.clear()
        self._pending_horizon = 0
        self.mshrs = MSHRFile(self.config.max_outstanding_misses)

    def stats(self) -> HierarchyStats:
        stats = HierarchyStats()
        for cache in (self.l1i, self.l1d, self.l2, self.l3):
            if cache is None:
                continue
            stats.accesses[cache.config.name] = cache.accesses
            stats.misses[cache.config.name] = cache.misses
        stats.memory_accesses = self.memory_accesses
        stats.mshr_merges = self.mshrs.merges
        stats.mshr_full_stall_cycles = self.mshrs.full_stall_cycles
        return stats
