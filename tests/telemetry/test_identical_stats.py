"""Tracing must be observation only: stats are bit-identical.

The overhead contract in ``repro.telemetry.events`` promises that
attaching a tracer changes nothing about the simulation; these tests
pin it for every model variant and both recorder backends, and pin the
dual property that the recorded stall spans, mode spans and commits of
a :class:`~repro.telemetry.timeline.Timeline` recorded on the
production kernels reconcile *exactly* with the stats.
"""

import pytest

from repro.harness import (ABLATION_FACTORIES, MODEL_FACTORIES, TraceCache,
                           run_model)
from repro.pipeline.stats import StallCategory
from repro.telemetry import (MetricsSink, StallProfileSink, TelemetrySink,
                             Timeline, Tracer)

MODELS = sorted({**MODEL_FACTORIES, **ABLATION_FACTORIES})
_TRACES = TraceCache(0.05)


def _stats_key(stats):
    return stats.to_dict()


@pytest.mark.parametrize("model", MODELS)
def test_traced_stats_bit_identical(model):
    trace = _TRACES.trace("mcf")
    plain = run_model(model, trace)
    for tracer in (Tracer(TelemetrySink()), Timeline()):
        traced = run_model(model, trace, tracer=tracer)
        assert _stats_key(plain) == _stats_key(traced), type(tracer)


def _recorded(model):
    timeline = Timeline()
    stats = run_model(model, _TRACES.trace("mcf"), tracer=timeline)
    return stats, timeline


@pytest.mark.parametrize("model", MODELS)
def test_stall_spans_reconcile_with_cycle_breakdown(model):
    stats, timeline = _recorded(model)
    totals = StallProfileSink(timeline).category_totals()
    for category in StallCategory:
        if category is StallCategory.EXECUTION:
            continue
        assert totals.get(category, 0) == \
            stats.cycle_breakdown[category], category


@pytest.mark.parametrize("model", MODELS)
def test_mode_spans_tile_the_whole_run(model):
    """For mode-emitting cores, mode occupancy sums to total cycles."""
    stats, timeline = _recorded(model)
    counters = MetricsSink(timeline).summary()["counters"]
    mode_cycles = sum(v for k, v in counters.items()
                      if k.startswith("mode_cycles."))
    if mode_cycles:                   # multipass-family cores only
        assert mode_cycles == stats.cycles
    else:
        assert not model.startswith(("multipass", "runahead", "twopass"))


@pytest.mark.parametrize("model", MODELS)
def test_recorded_commits_match_instructions(model):
    stats, timeline = _recorded(model)
    assert len(timeline.commit_cycle) == stats.instructions
    assert timeline.commit_seq == list(range(stats.instructions))


@pytest.mark.parametrize("model", MODELS)
def test_recorded_cycles_never_decrease(model):
    """The timeline views read a column's last cycle as its latest."""
    stats, timeline = _recorded(model)
    for name in ("fetch_cycle", "issue_cycle", "commit_cycle",
                 "restart_cycle", "rs_hit_cycle", "miss_cycle",
                 "stall_start", "stall_end", "mode_start"):
        column = getattr(timeline, name)
        assert column == sorted(column), name
    assert timeline.stall_end[-1] <= stats.cycles
