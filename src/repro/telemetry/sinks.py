"""Telemetry sinks: where traced events go.

All sinks share a two-method contract — ``emit(event)`` during the run
and ``close()`` at :meth:`Tracer.finish` time — plus an ``enabled``
class attribute that instrumentation sites check before constructing
events.  (The aggregating consumers — the sweep summary and the stall
profiler — are views over a :class:`~repro.telemetry.timeline.Timeline`
instead; see :mod:`repro.telemetry.metrics`.)
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, List, Optional

from .events import Event


class TelemetrySink:
    """Base sink: keeps every event in an unbounded list."""

    enabled = True

    def __init__(self):
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class NullSink(TelemetrySink):
    """Zero-overhead disabled sink: drops everything.

    A core with a :data:`~repro.telemetry.events.NULL_TRACER` never
    reaches a sink at all, but a ``NullSink`` additionally lets callers
    keep a live :class:`~repro.telemetry.events.Tracer` wired to
    nothing (e.g. to exercise instrumentation without storage).
    """

    enabled = False

    def __init__(self):
        super().__init__()

    def emit(self, event: Event) -> None:
        pass


class RingBufferSink(TelemetrySink):
    """In-memory sink bounded to the most recent ``capacity`` events.

    The ring keeps tracing affordable on long runs: memory is bounded,
    the oldest events are dropped first, and ``dropped`` records how
    many were discarded so exporters can say the trace is a suffix.
    ``capacity=None`` keeps everything.
    """

    def __init__(self, capacity: Optional[int] = None):
        super().__init__()
        self.capacity = capacity
        self.dropped = 0
        if capacity is not None:
            self._ring = deque(maxlen=capacity)
        else:
            self._ring = None

    def emit(self, event: Event) -> None:
        if self._ring is None:
            self.events.append(event)
            return
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)

    def close(self) -> None:
        if self._ring is not None:
            self.events = list(self._ring)


class JsonlSink(TelemetrySink):
    """Streaming sink: one JSON object per event, one event per line.

    Events are serialized as they arrive, so arbitrarily long traces
    stream to disk without residency.  ``limit`` stops writing (and
    counts ``suppressed``) after that many events — the simulation is
    unaffected, only the file is truncated.
    """

    def __init__(self, stream: IO[str], limit: Optional[int] = None):
        super().__init__()
        self.stream = stream
        self.limit = limit
        self.emitted = 0
        self.suppressed = 0

    def emit(self, event: Event) -> None:
        if self.limit is not None and self.emitted >= self.limit:
            self.suppressed += 1
            return
        self.stream.write(json.dumps(event.to_dict(), sort_keys=True))
        self.stream.write("\n")
        self.emitted += 1

    def close(self) -> None:
        self.stream.flush()


class TeeSink(TelemetrySink):
    """Fan one event stream out to several sinks (e.g. ring + metrics)."""

    def __init__(self, *sinks: TelemetrySink):
        super().__init__()
        self.sinks = sinks

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
