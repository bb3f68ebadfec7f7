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
from ..isa.trace import Trace
from ..machine import MachineConfig
from ..memory.hierarchy import MemoryHierarchy


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
        self.tracer = tracer
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
        cols = columns_of(dec)
        self._lines = cols.fetch_lines(self._inst_bytes, self._line_size)
        self._runs = cols.fetch_runs(self._inst_bytes, self._line_size)
        self.redirects = 0
        self._prewarm()

    def _prewarm(self) -> None:
        """Install the static code footprint in the instruction caches.

        Kernels stand in for long SPEC runs in which the loop code is
        resident; without pre-warming, compulsory I-misses at main-memory
        latency would dominate the short simulated windows.

        Sets ``resident``: every static code line is still in the L1I
        after the install.  Residency then holds for the whole run:
        only fetch touches the L1I, and fetch of resident code always
        hits, so nothing is ever filled into or evicted from it.
        :meth:`tick` counts such fetches' L1I hits instead of probing.
        """
        lines = {
            inst.index * self.config.instruction_bytes // self._line_size
            for inst in self.trace.program
        }
        l1i = self.hierarchy.l1i
        for line in lines:
            addr = line * self._line_size
            l1i.fill(addr)
            self.hierarchy.l2.fill(addr)
            if self.hierarchy.l3 is not None:
                self.hierarchy.l3.fill(addr)
        self.resident = all(l1i.probe(line * self._line_size)
                            for line in lines)

    def tick(self, now: int, consume_ptr: int) -> int:
        """Fetch up to ``fetch_width`` entries this cycle.

        The only fetch: every loop, scalar or columnar, calls it once a
        cycle.  Fetch probes the L1I at each cache-line change.  On
        resident code (see :meth:`_prewarm`) every probe hits, so it
        only counts the hits and walks whole same-line runs: probing
        them through ``hierarchy.access`` instead read cold-sweep 1.14x
        slower (EXPERIMENTS.md, "One memory path in the kernels").
        Other code probes through ``hierarchy.access`` and stalls on a
        miss until the line arrives.

        Args:
            now: current cycle.
            consume_ptr: the oldest un-issued trace index — fetch never
                runs more than ``buffer_size`` entries ahead of it.

        Returns:
            ``fetched_until`` after this cycle's fetch.
        """
        limit = consume_ptr + self.buffer_size
        if limit > self._n:
            limit = self._n
        fu = self.fetched_until
        # Hot early-out: the buffer is full (or the trace exhausted) on
        # the vast majority of ticks once fetch has caught up.
        if fu >= limit or now < self.stall_until:
            return fu
        stop = fu + self._fetch_width
        if stop > limit:
            stop = limit
        tracer = self.tracer
        lines = self._lines
        last = self._last_line
        if self.resident:
            first = fu
            runs = self._runs
            hits = 0
            while fu < stop:
                line = lines[fu]
                if line != last:
                    hits += 1
                    last = line
                e = runs[fu]
                fu = e if e < stop else stop
            if hits:
                l1i = self.hierarchy.l1i
                l1i.accesses += hits
                l1i.hits += hits
            if tracer is not None:
                tracer.fetch_many(now, range(first, fu))
            self._last_line = last
            self.fetched_until = fu
            return fu
        pcs = self._pcs
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
                    return fu
            if tracer is not None:
                tracer.fetch(now, fu)
            fu += 1
        self._last_line = last
        self.fetched_until = fu
        return fu

    def resolve(self, seq: int, pc: int, taken: bool, now: int) -> bool:
        """Resolve the branch at ``seq`` (static index ``pc``) at execute.

        Trains the predictor with the outcome ``taken`` and, on a
        mispredict, redirects fetch to just past the branch with the
        refill penalty charged from ``now``.  Returns True on a
        mispredict.  A predicate-nullified branch still trains the
        predictor (fetch predicts before the qualifying predicate is
        known): its outcome is not-taken.
        """
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
