"""Shared machinery for all timing cores.

Every core replays a golden :class:`~repro.isa.trace.Trace` against its own
memory hierarchy, branch predictor and front end, and produces a
:class:`~repro.pipeline.stats.SimStats` with the Figure 6 cycle taxonomy.
"""

from __future__ import annotations

from ..branch.gshare import GsharePredictor
from ..isa.registers import NUM_REGS
from ..isa.trace import Trace, TraceEntry
from ..machine import MachineConfig
from .frontend import FrontEnd
from .stats import SimStats


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
        # Telemetry: a Timeline recording the run, or None when tracing
        # is off (stats are bit-identical either way — golden tests pin
        # it).
        self.tracer = tracer
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
        # Reference mode (``--slow``): the OOO and multipass cores run
        # their per-cycle scalar loop instead of the columnar kernel,
        # and the in-order loop ticks every cycle instead of
        # fast-forwarding stalls.  The differential tests pin the
        # production paths against it.
        self.slow = slow
        # Runtime invariant checking (the --check flag): every commit is
        # cross-checked against independent re-execution.
        self.check = check
        self.replay = None
        if check:
            from ..analysis.invariants import ArchReplay
            self.replay = ArchReplay(trace, model=self.model_name)

    # -- execution helpers -----------------------------------------------------

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

        The in-order loop's fast-forward contract (the OOO and multipass
        cores skip inside their columnar kernels, and their scalar
        loops never skip): a loop that has established "nothing can
        issue before ``wait_until``" may jump the clock there — but
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

    def cycle_budget(self) -> int:
        """The default ``max_cycles`` of :meth:`run`, from the trace length.

        The worst single-instruction latency is the slowest path through
        the hierarchy (every level and main memory) plus every refill and
        flush penalty; the budget allows each instruction, and one more,
        twice that.  Correct runs stay far below it (at most 6.5 cycles
        per instruction on the packaged programs under the three
        hierarchies, 42 on the tests' smallest hand-built traces), so a
        run that reaches it has lost a wake-up, and it fails in seconds.
        """
        config = self.config
        h = config.hierarchy
        miss = (max(h.l1i.latency, h.l1d.latency) + h.l2.latency
                + (h.l3.latency if h.l3 else 0) + h.memory_latency)
        penalties = (config.mispredict_penalty + config.flush_penalty
                     + config.advance_restart_refill
                     + config.advance_entry_delay + config.ooo_extra_stages)
        return 2 * (len(self.trace) + 1) * (miss + penalties)

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
        if self.tracer is not None:
            self.tracer.commit(now, entry.seq)
        if self.replay is not None:
            self.replay.commit(entry)

    # -- wrap-up -------------------------------------------------------------

    def finalize(self) -> SimStats:
        self.stats.memory = self.hierarchy.stats()
        self.stats.branch_accuracy = self.predictor.accuracy
        self.stats.counters["front_end_redirects"] = self.frontend.redirects
        if self.replay is not None:
            self.replay.finish()
        if self.tracer is not None:
            self.tracer.finish(self.stats.cycles)
        return self.stats
