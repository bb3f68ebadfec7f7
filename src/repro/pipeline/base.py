"""Shared machinery for all timing cores.

Every core replays a golden :class:`~repro.isa.trace.Trace` against its own
memory hierarchy, branch predictor and front end, and produces a
:class:`~repro.pipeline.stats.SimStats` with the Figure 6 cycle taxonomy.
"""

from __future__ import annotations

from typing import Tuple

from ..branch.gshare import GsharePredictor
from ..isa.opcodes import FUClass
from ..isa.registers import NUM_REGS
from ..isa.trace import Trace, TraceEntry
from ..machine import MachineConfig
from ..telemetry.events import NULL_TRACER
from .frontend import FrontEnd
from .stats import SimStats, StallCategory


class SimulationDiverged(Exception):
    """A core exceeded its cycle budget — indicates a modelling bug."""


class BaseCore:
    """Common state: scoreboard, front end, memory, stall attribution."""

    model_name = "base"

    def __init__(self, trace: Trace, config: MachineConfig,
                 buffer_size: int, check: bool = False, tracer=None,
                 slow: bool = False):
        self.trace = trace
        self.config = config
        self.buffer_size = buffer_size
        self.hierarchy = config.hierarchy.build()
        self.predictor = GsharePredictor(config.branch_predictor_entries)
        # Telemetry: a live recorder (an event Tracer or a Timeline), or
        # the shared do-nothing NULL_TRACER whose ``enabled`` attribute
        # is the only cost when tracing is off (stats are bit-identical
        # either way — golden tests pin it).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.frontend = FrontEnd(trace, self.hierarchy, self.predictor,
                                 config, buffer_size, tracer=self.tracer)
        self.stats = SimStats(model=self.model_name,
                              workload=trace.program.name)
        # Architectural scoreboard: absolute ready cycle per register id.
        # Flat integer-indexed lists (register ids are dense, < NUM_REGS);
        # 0 means "never written" — real ready cycles are always >= 1
        # because a cycle-0 issue with latency >= 1 completes at >= 1.
        self.reg_ready = [0] * NUM_REGS
        # Registers whose in-flight producer is a load that missed the L1
        # (consumers stalled on these are charged to the *load* category,
        # and the multipass core suppresses rather than waits for them).
        # Same encoding: fill cycle, or 0 when no miss is pending.
        self.load_miss_pending = [0] * NUM_REGS
        # Reference mode: disable the stall fast-forward and tick every
        # cycle (``--slow``).  Used by the differential tests that pin
        # fast-forwarded stats against the naive per-cycle loop.
        self.slow = slow
        # Runtime invariant checking (the --check flag): every commit is
        # cross-checked against independent re-execution.
        self.check = check
        self.replay = None
        if check:
            from ..analysis.invariants import ArchReplay
            self.replay = ArchReplay(trace, model=self.model_name)

    # -- operand checking ----------------------------------------------------

    def unready_sources(self, entry: TraceEntry, now: int):
        """Source registers of ``entry`` that are not ready at ``now``."""
        ready = self.reg_ready
        return [s for s in entry.srcs if ready[s] > now]

    def classify_wait(self, unready, now: int
                      ) -> Tuple[StallCategory, int]:
        """Stall category + cycle when all ``unready`` regs become ready."""
        ready = self.reg_ready
        wait_until = max(ready[s] for s in unready)
        pending = self.load_miss_pending
        is_load_wait = any(pending[s] > now for s in unready)
        category = StallCategory.LOAD if is_load_wait else StallCategory.OTHER
        return category, wait_until

    # -- execution helpers -----------------------------------------------------

    def issue_fu(self, entry: TraceEntry) -> FUClass:
        """Functional-unit class the entry occupies (nullified -> none)."""
        return entry.inst.spec.fu if entry.executed else FUClass.NONE

    def execute_memory(self, entry: TraceEntry, now: int) -> int:
        """Perform the cache access of a load/store; returns load latency."""
        kind = "store" if entry.is_store else "load"
        result = self.hierarchy.access(entry.addr, now, kind=kind)
        if entry.is_load:
            self.stats.counters["loads_issued"] += 1
            if result.l1_miss:
                self.stats.counters["l1d_load_misses"] += 1
            return result.latency
        return 0

    def writeback(self, entry: TraceEntry, now: int, latency: int,
                  l1_miss: bool) -> None:
        """Update the scoreboard for the entry's destinations."""
        ready = now + latency
        reg_ready = self.reg_ready
        pending = self.load_miss_pending
        for dest in entry.dests:
            reg_ready[dest] = ready
            pending[dest] = ready if l1_miss else 0

    # -- fast-forward contract -----------------------------------------------

    def next_event_cycle(self, now: int, wait_until: int,
                         consume_ptr: int) -> int:
        """Clamp a stall-skip target to the next cycle with real work.

        The fast-forward contract: a core that has established "nothing
        can issue before ``wait_until``" may jump the clock there — but
        only if the front end has no intervening work, because fetch
        ticks (I-cache probes, buffer fill) happen on the skipped cycles
        and must be replayed faithfully.  ``consume_ptr`` is the oldest
        un-issued trace index bounding the fetch window.

        Returns the cycle to skip to (``now`` means: do not skip).
        Identical attribution is the caller's responsibility — the
        skipped cycles are charged as one span with the same category a
        cycle-by-cycle loop would have charged.  ``--slow`` disables
        skipping entirely.
        """
        if self.slow or wait_until <= now:
            return now
        return self._frontend_clamp(now, wait_until, consume_ptr)

    def _frontend_clamp(self, now: int, wait_until: int,
                        consume_ptr: int) -> int:
        """The frontend-catch-up rule of :meth:`next_event_cycle`, without
        the ``--slow`` gate (for skips that predate the slow mode and are
        golden-pinned as spans, like the in-order WAW skip)."""
        frontend = self.frontend
        limit = min(len(self.trace), consume_ptr + self.buffer_size)
        if frontend.fetched_until < limit:
            # Fetch still has entries to bring in: it either works every
            # cycle (no skip) or is itself stalled on an I-miss until
            # ``stall_until`` (skip at most to that point).
            if frontend.stall_until > now:
                return min(wait_until, frontend.stall_until)
            return now
        return wait_until

    def check_cycle_budget(self, now: int, max_cycles: int) -> None:
        """Uniform divergence check used by every core's run loop."""
        if now > max_cycles:
            raise SimulationDiverged(
                f"{self.model_name} exceeded max_cycles={max_cycles} "
                f"(at cycle {now}) on {self.trace.program.name}"
            )

    # -- retirement ----------------------------------------------------------

    def commit_entry(self, entry: TraceEntry, now: int = -1) -> None:
        """Hook called by every core at the moment an entry retires.

        Under ``check=True`` the entry is validated against independent
        functional re-execution (exactly-once, in-order, on the
        architectural path); under tracing the commit is recorded;
        otherwise this is a no-op.
        """
        if self.tracer.enabled:
            self.tracer.commit(now, entry.seq, entry.inst.index)
        if self.replay is not None:
            self.replay.commit(entry)

    # -- wrap-up -------------------------------------------------------------

    def finalize(self) -> SimStats:
        self.stats.memory = self.hierarchy.stats()
        self.stats.branch_accuracy = self.predictor.accuracy
        self.stats.counters["front_end_redirects"] = self.frontend.redirects
        if self.replay is not None:
            self.replay.finish()
        if self.tracer.enabled:
            self.tracer.finish(self.stats.cycles)
        return self.stats
