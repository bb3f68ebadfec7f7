"""Timeline: a flat append-only recording of one simulated run.

A :class:`Timeline` answers the same call protocol as
:class:`~repro.telemetry.events.Tracer` (``fetch``/``issue``/``commit``/
``charge``/``mode``/``restart``/``rs_hit``/``cache_miss``/``finish``),
with the tracer's exact stall-span and mode-span coalescing, but it keeps
each occurrence as plain values appended to per-field lists: no
:class:`~repro.telemetry.events.Event` is ever built.  That makes it
cheap enough for the production kernels:

* the in-order loop and the scalar reference loops feed it through the
  protocol, exactly as they feed a ``Tracer``;
* the OOO and multipass-family columnar kernels record into it too (a
  core whose tracer is a Timeline keeps its columnar kernel; see
  ``docs/architecture.md`` §13 for where each recorded quantity comes
  from), using the group forms :meth:`fetch_many`, :meth:`issue_many`
  and :meth:`commit_many` for the groups they move in one step.

The aggregating consumers are views over a finished Timeline:
:class:`~repro.telemetry.metrics.MetricsSink` renders the per-cell sweep
summary and :class:`~repro.telemetry.profile.StallProfileSink` the
per-(category, pc) stall profile.

Per-instruction records drop the ``pc`` argument: it is always the
trace's pc of the recorded seq.  Stall spans keep theirs, since a span
is charged to a blamed site (``pc`` and ``seq`` are ``-1`` when there
is none).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..pipeline.stats import StallCategory

_EXECUTION = StallCategory.EXECUTION


class Timeline:
    """Per-field lists of everything one core reported, in call order.

    Cores report as simulated time moves forward, so the cycles along
    any one column never decrease (the views rely on it).
    """

    enabled = True

    #: Every recorded column (the differential suites compare these).
    FIELDS = (
        "fetch_cycle", "fetch_seq",
        "issue_cycle", "issue_seq", "issue_mode",
        "commit_cycle", "commit_seq",
        "restart_cycle", "restart_seq",
        "rs_hit_cycle", "rs_hit_seq", "rs_hit_mode",
        "miss_cycle", "miss_seq", "miss_level",
        "stall_start", "stall_end", "stall_category", "stall_pc",
        "stall_seq",
        "mode_start", "mode_cycles", "mode_name",
    )

    def __init__(self):
        # Per-instruction milestones.  ``issue_mode`` is "" for
        # architectural (and OOO/in-order) issue, "advance" for
        # multipass preexecution.
        self.fetch_cycle: List[int] = []
        self.fetch_seq: List[int] = []
        self.issue_cycle: List[int] = []
        self.issue_seq: List[int] = []
        self.issue_mode: List[str] = []
        self.commit_cycle: List[int] = []
        self.commit_seq: List[int] = []
        # Point events.
        self.restart_cycle: List[int] = []
        self.restart_seq: List[int] = []
        self.rs_hit_cycle: List[int] = []
        self.rs_hit_seq: List[int] = []
        self.rs_hit_mode: List[str] = []
        self.miss_cycle: List[int] = []
        self.miss_seq: List[int] = []
        self.miss_level: List[str] = []
        # Closed stall spans: cycles [start, end) charged to (category,
        # pc); ``stall_seq`` is the seq of the span's first charge.
        self.stall_start: List[int] = []
        self.stall_end: List[int] = []
        self.stall_category: List[StallCategory] = []
        self.stall_pc: List[int] = []
        self.stall_seq: List[int] = []
        # Closed multipass mode spans.
        self.mode_start: List[int] = []
        self.mode_cycles: List[int] = []
        self.mode_name: List[str] = []
        # Open spans: [category, pc, seq, start, end] and (mode, start).
        self._stall: Optional[list] = None
        self._mode: Optional[str] = None
        self._mode_start = 0
        self._finished = False

    def columns(self) -> Dict[str, list]:
        """Every recorded column by name."""
        return {name: getattr(self, name) for name in self.FIELDS}

    # -- per-instruction milestones -------------------------------------

    def fetch(self, cycle: int, seq: int, pc: int) -> None:
        self.fetch_cycle.append(cycle)
        self.fetch_seq.append(seq)

    def fetch_many(self, cycle: int, seqs: Sequence[int]) -> None:
        """``fetch`` of each of ``seqs``, in order, at ``cycle``."""
        self.fetch_cycle.extend([cycle] * len(seqs))
        self.fetch_seq.extend(seqs)

    def issue(self, cycle: int, seq: int, pc: int, mode: str = "") -> None:
        self.issue_cycle.append(cycle)
        self.issue_seq.append(seq)
        self.issue_mode.append(mode)

    def issue_many(self, cycle: int, seqs: Sequence[int]) -> None:
        """Architectural ``issue`` of each of ``seqs``, in order, at
        ``cycle``."""
        self.issue_cycle.extend([cycle] * len(seqs))
        self.issue_seq.extend(seqs)
        self.issue_mode.extend([""] * len(seqs))

    def commit(self, cycle: int, seq: int, pc: int) -> None:
        self.commit_cycle.append(cycle)
        self.commit_seq.append(seq)

    def commit_many(self, cycle: int, seqs: Sequence[int]) -> None:
        """``commit`` of each of ``seqs``, in order, at ``cycle``."""
        self.commit_cycle.extend([cycle] * len(seqs))
        self.commit_seq.extend(seqs)

    # -- point events ---------------------------------------------------

    def restart(self, cycle: int, seq: int, pc: int) -> None:
        self.restart_cycle.append(cycle)
        self.restart_seq.append(seq)

    def rs_hit(self, cycle: int, seq: int, pc: int,
               mode: str = "") -> None:
        self.rs_hit_cycle.append(cycle)
        self.rs_hit_seq.append(seq)
        self.rs_hit_mode.append(mode)

    def cache_miss(self, cycle: int, seq: int, pc: int,
                   level: str) -> None:
        self.miss_cycle.append(cycle)
        self.miss_seq.append(seq)
        self.miss_level.append(level)

    # -- cycle attribution (stall spans) --------------------------------

    def charge(self, cycle: int, category: StallCategory, seq: int = -1,
               pc: int = -1, cycles: int = 1) -> None:
        """:meth:`Tracer.charge <repro.telemetry.events.Tracer.charge>`
        coalescing: execution closes the open span; a same-(category,
        pc) charge extends it; any other charge replaces it."""
        span = self._stall
        if category is _EXECUTION:
            if span is not None:
                self._close_stall()
            return
        if span is not None:
            if span[0] is category and span[1] == pc:
                span[4] = cycle + cycles
                return
            self._close_stall()
        self._stall = [category, pc, seq, cycle, cycle + cycles]

    def _close_stall(self) -> None:
        category, pc, seq, start, end = self._stall
        self._stall = None
        self.stall_start.append(start)
        self.stall_end.append(end)
        self.stall_category.append(category)
        self.stall_pc.append(pc)
        self.stall_seq.append(seq)

    # -- mode spans -----------------------------------------------------

    def mode(self, cycle: int, mode: str) -> None:
        """Record the mode occupying ``cycle``; coalesces into spans."""
        if mode == self._mode:
            return
        self._close_mode(cycle)
        self._mode = mode
        self._mode_start = cycle

    def _close_mode(self, cycle: int) -> None:
        if self._mode is not None and cycle > self._mode_start:
            self.mode_start.append(self._mode_start)
            self.mode_cycles.append(cycle - self._mode_start)
            self.mode_name.append(self._mode)

    # -- wrap-up --------------------------------------------------------

    def finish(self, cycle: int) -> None:
        """Close the open spans at the end of the run (idempotent)."""
        if self._finished:
            return
        self._finished = True
        if self._stall is not None:
            self._close_stall()
        self._close_mode(cycle)
        self._mode = None


__all__ = ["Timeline"]
