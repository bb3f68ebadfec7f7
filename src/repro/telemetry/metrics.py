"""Metrics: histograms, interval timeseries and the per-cell summary.

The summaries here are cheap enough to collect for every cell of a
sweep: plain counters, power-of-two-bucket histograms, and per-interval
timeseries whose resolution adapts (by interval doubling) so their size
stays bounded no matter how long a run is.

:class:`MetricsSink` is the standard consumer: a view over a finished
:class:`~repro.telemetry.timeline.Timeline` that folds it into a
JSON-able :meth:`~MetricsSink.summary` — the per-cell payload the
parallel sweep engine attaches to its report.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from operator import sub
from typing import Dict, Iterable, List

from ..pipeline.stats import StallCategory
from .timeline import Timeline


class Histogram:
    """Power-of-two bucketed histogram of non-negative integers.

    Bucket ``i`` counts values in ``(2**(i-1), 2**i]`` (bucket 0 counts
    zeros and ones), so any value range is covered by ~64 buckets.
    """

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.max = 0

    def record(self, value: int, n: int = 1) -> None:
        bucket = max(0, int(value) - 1).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + n
        self.count += n
        self.total += value * n
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "mean": round(self.mean, 3),
            "buckets": {f"<={2 ** b}": n
                        for b, n in sorted(self.buckets.items())},
        }


class IntervalSeries:
    """Per-interval counts over the cycle axis, with bounded points.

    ``points[i]`` counts the cycles recorded in ``[i * interval,
    (i + 1) * interval)``.  The interval starts at the requested one and
    doubles until the last recorded cycle fits in ``max_points``
    intervals, so the size stays O(max_points) regardless of run
    length, at the price of coarser resolution.
    """

    def __init__(self, interval: int = 1024, max_points: int = 256):
        if interval < 1 or max_points < 2:
            raise ValueError("interval >= 1 and max_points >= 2 required")
        self.interval = interval
        self.max_points = max_points
        self.points: List[int] = []

    def _fit(self, last: int) -> None:
        """Coarsen to cover cycle ``last`` and size the points for it."""
        while last // self.interval >= self.max_points:
            self.interval *= 2
        self.points = [0] * (last // self.interval + 1)

    @classmethod
    def of_cycles(cls, cycles: Iterable[int], interval: int = 1024,
                  max_points: int = 256) -> "IntervalSeries":
        """One count per cycle occurrence (e.g. every commit's cycle)."""
        series = cls(interval, max_points)
        cycles = sorted(cycles)
        if cycles:
            series._fit(cycles[-1])
            step = series.interval
            lo = 0
            for i in range(len(series.points)):
                hi = bisect_left(cycles, (i + 1) * step, lo)
                series.points[i] = hi - lo
                lo = hi
        return series

    @classmethod
    def of_spans(cls, starts: List[int], lengths: List[int],
                 interval: int = 1024,
                 max_points: int = 256) -> "IntervalSeries":
        """One count per cycle of every span ``[start, start + length)``."""
        series = cls(interval, max_points)
        if starts:
            series._fit(max(s + n for s, n in zip(starts, lengths)) - 1)
            step = series.interval
            points = series.points
            for start, length in zip(starts, lengths):
                end = start + length
                while start < end:
                    i = start // step
                    boundary = (i + 1) * step
                    chunk = (end if end < boundary else boundary) - start
                    points[i] += chunk
                    start += chunk
        return series

    def to_dict(self) -> dict:
        return {"interval": self.interval, "points": list(self.points)}


class MetricsSink:
    """The per-run summary of a :class:`~repro.telemetry.timeline.Timeline`.

    Collected per run:

    * ``events.<kind>`` counters, one per record of that kind in the
      :func:`~repro.telemetry.export.records` export;
    * ``stall_cycles.<category>`` counters and a ``stall_span_cycles``
      histogram (one value per stall span);
    * ``mode_cycles.<mode>`` occupancy counters;
    * ``cache_miss.<level>`` counters;
    * ``commits`` and ``issues`` interval series (per-interval IPC is
      ``points[i] / interval``) and a ``mode.<mode>`` occupancy series.
    """

    def __init__(self, timeline: Timeline, interval: int = 1024,
                 max_points: int = 256):
        self.timeline = timeline
        self._interval = interval
        self._max_points = max_points

    def summary(self) -> dict:
        """JSON/pickle-safe per-run payload (sweep cell attachment)."""
        tl = self.timeline
        spans = len(tl.stall_start)
        counts = {
            "events.fetch": len(tl.fetch_cycle),
            "events.issue": len(tl.issue_cycle),
            "events.commit": len(tl.commit_cycle),
            "events.stall_begin": spans,
            "events.stall_end": spans,
            "events.mode": len(tl.mode_start),
            "events.restart": len(tl.restart_cycle),
            "events.rs_hit": len(tl.rs_hit_cycle),
            "events.cache_miss": len(tl.miss_cycle),
        }
        lengths = list(map(sub, tl.stall_end, tl.stall_start))
        stalled: Dict[StallCategory, int] = {}
        for category, cycles in zip(tl.stall_category, lengths):
            stalled[category] = stalled.get(category, 0) + cycles
        for category, cycles in stalled.items():
            counts[f"stall_cycles.{category.value}"] = cycles
        modes: Dict[str, tuple] = {}
        for name, start, cycles in zip(tl.mode_name, tl.mode_start,
                                       tl.mode_cycles):
            key = f"mode_cycles.{name}"
            counts[key] = counts.get(key, 0) + cycles
            starts, spans_of = modes.setdefault(name, ([], []))
            starts.append(start)
            spans_of.append(cycles)
        for level, n in Counter(tl.miss_level).items():
            counts[f"cache_miss.{level}"] = n

        histograms = {}
        if lengths:
            hist = Histogram()
            for value, n in Counter(lengths).items():
                hist.record(value, n)
            histograms["stall_span_cycles"] = hist.to_dict()

        shape = (self._interval, self._max_points)
        series = {}
        if tl.commit_cycle:
            series["commits"] = IntervalSeries.of_cycles(
                tl.commit_cycle, *shape)
        if tl.issue_cycle:
            series["issues"] = IntervalSeries.of_cycles(
                tl.issue_cycle, *shape)
        for name, (starts, spans_of) in modes.items():
            series[f"mode.{name}"] = IntervalSeries.of_spans(
                starts, spans_of, *shape)

        # The latest cycle any exported record carries (a stall span's
        # end, every other record's own cycle or start): the last entry
        # of each column, since cycles never decrease along one.
        columns = (tl.fetch_cycle, tl.issue_cycle, tl.commit_cycle,
                   tl.restart_cycle, tl.rs_hit_cycle, tl.miss_cycle,
                   tl.stall_end, tl.mode_start)
        last_cycle = max([0] + [c[-1] for c in columns if c])
        return {
            "counters": {k: v for k, v in sorted(counts.items()) if v},
            "histograms": histograms,
            "series": {name: s.to_dict()
                       for name, s in sorted(series.items())},
            "last_cycle": last_cycle,
        }


__all__ = ["Histogram", "IntervalSeries", "MetricsSink"]
