"""Telemetry subsystem: cycle-level tracing, metrics and profiling.

One recorder protocol, two backends (see docs/architecture.md §10):

* :mod:`~repro.telemetry.events` — the typed event taxonomy and the
  :class:`Tracer` backend, which turns each call into an :class:`Event`
  for a sink (``NULL_TRACER`` when tracing is off: one attribute check,
  zero other cost);
* :mod:`~repro.telemetry.sinks` — where events go (null, ring buffer,
  streaming JSONL, tee);
* :mod:`~repro.telemetry.export` — Chrome trace-event (Perfetto) and
  Konata-style pipeline-view exporters over events (``repro trace``);
* :mod:`~repro.telemetry.timeline` — the :class:`Timeline` backend, a
  flat append-only recording the production kernels feed;
* :mod:`~repro.telemetry.metrics` — histograms, adaptive interval
  timeseries, and the per-cell :class:`MetricsSink` summary the sweep
  engine attaches (a view over a timeline);
* :mod:`~repro.telemetry.profile` — the stall-attribution profiler
  behind ``repro profile`` (a view over a timeline).
"""

from .events import NULL_TRACER, Event, EventKind, NullTracer, Tracer
from .export import chrome_trace, render_pipeview, write_chrome_trace
from .metrics import Histogram, IntervalSeries, MetricsSink
from .profile import StallProfileSink, profile_model, render_profile
from .sinks import (JsonlSink, NullSink, RingBufferSink, TeeSink,
                    TelemetrySink)
from .timeline import Timeline

__all__ = [
    "Event", "EventKind", "Histogram", "IntervalSeries", "JsonlSink",
    "MetricsSink", "NULL_TRACER", "NullSink", "NullTracer",
    "RingBufferSink", "StallProfileSink", "TeeSink", "TelemetrySink",
    "Timeline", "Tracer", "chrome_trace", "profile_model",
    "render_pipeview", "render_profile", "write_chrome_trace",
]
