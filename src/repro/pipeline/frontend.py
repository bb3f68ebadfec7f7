"""Front-end model shared by all cores: fetch, I-cache and redirects.

Trace-driven: fetch walks the (architecturally correct) trace in order,
probing the L1I per instruction-cache line.  A mispredicted branch,
discovered when the consuming core resolves it, rolls fetch back to just
past the branch and stalls it for the pipeline-refill penalty — the
standard trace-driven misprediction model.
"""

from __future__ import annotations

from ..branch.gshare import GsharePredictor
from ..isa.columns import columns_of
from ..isa.trace import Trace, TraceEntry
from ..machine import MachineConfig
from ..memory.hierarchy import MemoryHierarchy
from ..telemetry.events import NULL_TRACER


class FrontEnd:
    """Fetches trace entries into the core's instruction buffer."""

    def __init__(self, trace: Trace, hierarchy: MemoryHierarchy,
                 predictor: GsharePredictor, config: MachineConfig,
                 buffer_size: int, tracer=None):
        self.trace = trace
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.config = config
        self.buffer_size = buffer_size
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fetched_until = 0        # exclusive trace index available
        self.stall_until = 0          # fetch blocked before this cycle
        self._line_size = hierarchy.config.l1i.line_size
        self._last_line = -1
        self._n = len(trace)
        self._fetch_width = config.fetch_width
        self._inst_bytes = config.instruction_bytes
        self._l1i_latency = hierarchy.config.l1i.latency
        dec = trace.decoded
        self._pcs = dec.pc
        self._lines = columns_of(dec).fetch_lines(
            self._inst_bytes, self._line_size)
        self.icache_stall_cycles = 0
        self.redirects = 0
        if config.prewarm_icache:
            self._prewarm()

    def _prewarm(self) -> None:
        """Install the static code footprint in the instruction caches.

        Kernels stand in for long SPEC runs in which the loop code is
        resident; without pre-warming, compulsory I-misses at main-memory
        latency would dominate the short simulated windows.
        """
        lines = {
            inst.index * self.config.instruction_bytes // self._line_size
            for inst in self.trace.program
        }
        for line in lines:
            addr = line * self._line_size
            self.hierarchy.l1i.fill(addr)
            self.hierarchy.l2.fill(addr)
            if self.hierarchy.l3 is not None:
                self.hierarchy.l3.fill(addr)

    def buffer_occupancy(self, consume_ptr: int) -> int:
        return self.fetched_until - consume_ptr

    def tick(self, now: int, consume_ptr: int) -> None:
        """Fetch up to ``fetch_width`` entries this cycle.

        Args:
            now: current cycle.
            consume_ptr: the oldest un-issued trace index — fetch never
                runs more than ``buffer_size`` entries ahead of it.
        """
        limit = consume_ptr + self.buffer_size
        if limit > self._n:
            limit = self._n
        fu = self.fetched_until
        # Hot early-out: the buffer is full (or the trace exhausted) on
        # the vast majority of ticks once fetch has caught up.
        if fu >= limit or now < self.stall_until:
            return
        stop = fu + self._fetch_width
        if stop > limit:
            stop = limit
        tracer = self.tracer if self.tracer.enabled else None
        pcs = self._pcs
        lines = self._lines
        last = self._last_line
        while fu < stop:
            line = lines[fu]
            if line != last:
                result = self.hierarchy.access(
                    pcs[fu] * self._inst_bytes, now, kind="ifetch")
                last = line
                if result.latency > self._l1i_latency:
                    self._last_line = last
                    self.fetched_until = fu
                    self.stall_until = result.ready
                    self.icache_stall_cycles += result.latency
                    return
            if tracer is not None:
                tracer.fetch(now, fu, pcs[fu])
            fu += 1
        self._last_line = last
        self.fetched_until = fu

    def resolve_branch(self, entry: TraceEntry, now: int,
                       already_resolved: bool = False) -> bool:
        """Resolve a branch at execute; returns True on a mispredict.

        Args:
            entry: the branch trace entry.
            now: current cycle (redirect penalty charged from here).
            already_resolved: the branch was validly pre-executed earlier
                (multipass advance mode) so the front end has already been
                redirected — no flush and no predictor update now.

        A predicate-nullified branch still trains the predictor (fetch
        predicts before the qualifying predicate is known): its outcome is
        not-taken.
        """
        if already_resolved:
            return False
        return self.resolve(entry.seq, entry.inst.index, entry.taken, now)

    def resolve(self, seq: int, pc: int, taken: bool, now: int) -> bool:
        """:meth:`resolve_branch` from the trace columns: the branch at
        ``seq`` (static index ``pc``) resolved ``taken``."""
        correct = self.predictor.update(pc, taken)
        if not correct:
            self.redirect(seq + 1, now)
        return not correct

    def redirect(self, resume_index: int, now: int) -> None:
        """Squash fetched-but-wrong-path entries and refill the pipe."""
        self.redirects += 1
        self.fetched_until = min(self.fetched_until, resume_index)
        self.stall_until = max(self.stall_until,
                               now + self.config.mispredict_penalty)
        self._last_line = -1
