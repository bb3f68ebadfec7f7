"""Telemetry subsystem: cycle-level recording, metrics and profiling.

One recorder, several views (see docs/architecture.md §10):

* :mod:`~repro.telemetry.timeline` — the :class:`Timeline` recorder, a
  flat append-only recording the production kernels feed (a core
  holds ``tracer=None`` when recording is off);
* :mod:`~repro.telemetry.metrics` — histograms, adaptive interval
  timeseries, and the per-cell :class:`MetricsSink` summary the sweep
  engine attaches;
* :mod:`~repro.telemetry.profile` — the stall-attribution profiler
  behind ``repro profile``;
* :mod:`~repro.telemetry.export` — the cycle-major JSONL records,
  Chrome trace-event (Perfetto) and Konata-style pipeline-view exports
  behind ``repro trace``.
"""

from .export import (chrome_trace, export_trace, records, render_pipeview,
                     write_chrome_trace, write_jsonl)
from .metrics import Histogram, IntervalSeries, MetricsSink
from .profile import StallProfileSink, profile_model, render_profile
from .timeline import Timeline

__all__ = [
    "Histogram", "IntervalSeries", "MetricsSink", "StallProfileSink",
    "Timeline", "chrome_trace", "export_trace", "profile_model", "records",
    "render_pipeview", "render_profile", "write_chrome_trace",
    "write_jsonl",
]
