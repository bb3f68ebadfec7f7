"""Bounded aggregation: histograms, adaptive series, MetricsSink."""

from repro.pipeline.stats import StallCategory
from repro.telemetry import (Histogram, IntervalSeries, MetricsSink,
                             Timeline)


def test_histogram_power_of_two_buckets():
    hist = Histogram()
    for value in (0, 1, 2, 3, 4, 100):
        hist.record(value)
    assert hist.count == 6
    assert hist.total == 110
    assert hist.max == 100
    assert hist.to_dict()["buckets"] == {
        "<=1": 2,      # 0, 1
        "<=2": 1,      # 2
        "<=4": 2,      # 3, 4
        "<=128": 1,    # 100
    }


def test_interval_series_coarsens_to_stay_bounded():
    series = IntervalSeries.of_cycles(range(16), interval=1, max_points=4)
    assert len(series.points) <= 4
    assert series.interval == 4          # doubled 1 -> 2 -> 4
    assert series.points == [4, 4, 4, 4]


def test_record_span_distributes_across_boundaries():
    # cycles 2..7 -> 2 in [0,4), 4 in [4,8)
    series = IntervalSeries.of_spans([2], [6], interval=4, max_points=16)
    assert series.points == [2, 4]
    # A later span coarsens the whole series: cycle 9 needs 2 -> 4.
    series = IntervalSeries.of_spans([0, 9], [3, 1], interval=2,
                                     max_points=4)
    assert series.interval == 4
    assert series.points == [3, 0, 1]


def test_metrics_sink_aggregates_without_storing_events():
    timeline = Timeline()
    timeline.fetch(0, 0)
    timeline.issue(1, 0)
    timeline.commit(2, 0)
    for cycle in range(3, 8):
        timeline.charge(cycle, StallCategory.LOAD, seq=1, pc=4)
    for cycle in range(0, 8):
        timeline.mode(cycle, "architectural")
    timeline.cache_miss(3, 1, "mem")
    timeline.finish(8)

    # The timeline keeps flat values (one closed span), not events.
    assert timeline.stall_start == [3] and timeline.stall_end == [8]
    summary = MetricsSink(timeline).summary()
    counters = summary["counters"]
    assert counters["events.fetch"] == 1
    assert counters["events.stall_begin"] == counters["events.stall_end"]
    assert counters["stall_cycles.load"] == 5
    assert counters["mode_cycles.architectural"] == 8
    assert counters["cache_miss.mem"] == 1
    assert "events.restart" not in counters
    assert summary["last_cycle"] == 8
    hist = summary["histograms"]["stall_span_cycles"]
    assert hist["count"] == 1 and hist["total"] == 5
    assert sum(summary["series"]["commits"]["points"]) == 1


def test_metrics_sink_summary_is_json_safe():
    import json

    timeline = Timeline()
    timeline.mode(0, "advance")
    timeline.finish(7)
    summary = MetricsSink(timeline).summary()
    assert summary["counters"] == {"events.mode": 1,
                                   "mode_cycles.advance": 7}
    json.dumps(summary)
