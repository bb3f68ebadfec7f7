"""Golden telemetry summaries for every model variant.

``tests/golden/telemetry_summaries.json`` pins, for all nine model
variants on mcf and parser at scale 0.05, the per-cell
:class:`~repro.telemetry.metrics.MetricsSink` summary and the
:class:`~repro.telemetry.profile.StallProfileSink` profile (its
``(category, pc)`` cells, restart count and miss levels), as recorded
by the production path: a :class:`~repro.telemetry.timeline.Timeline`
fed by each model's production kernel.  The file was first written from
the event-fold sinks on the scalar loops, so byte equality here is what
says the views over a timeline report exactly what the event stream
did.  Regenerate deliberately with::

    pytest tests/telemetry/test_golden_summaries.py --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.harness import (ABLATION_FACTORIES, MODEL_FACTORIES, TraceCache,
                           run_model)
from repro.telemetry import MetricsSink, StallProfileSink, Timeline

GOLDEN = (Path(__file__).resolve().parents[1] / "golden"
          / "telemetry_summaries.json")
MODELS = sorted({**MODEL_FACTORIES, **ABLATION_FACTORIES})
WORKLOADS = ("mcf", "parser")
_TRACES = TraceCache(0.05)


def _record(workload, model):
    timeline = Timeline()
    run_model(model, _TRACES.trace(workload), tracer=timeline)
    profile = StallProfileSink(timeline)
    cells = sorted(profile.cells.items(),
                   key=lambda item: (item[0][0].value, item[0][1]))
    return {
        "summary": MetricsSink(timeline).summary(),
        "stall_cells": [[category.value, pc, cycles]
                        for (category, pc), cycles in cells],
        "restarts": profile.restarts,
        "cache_misses": dict(sorted(profile.cache_misses.items())),
    }


def test_golden_telemetry_summaries(request):
    payload = {f"{workload}/{model}": _record(workload, model)
               for workload in WORKLOADS for model in MODELS}
    text = json.dumps(payload, indent=1) + "\n"
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(text)
        pytest.skip(f"regenerated {GOLDEN.name}")
    assert GOLDEN.exists(), (
        f"missing {GOLDEN}; generate it with "
        "pytest tests/telemetry/test_golden_summaries.py --update-golden")
    golden = GOLDEN.read_text()
    if text != golden:
        expected = json.loads(golden)
        drifted = sorted(cell for cell in payload
                         if payload[cell] != expected.get(cell))
        pytest.fail(
            f"telemetry summaries drifted from {GOLDEN.name} in "
            f"{drifted or 'key order only'} — rerun with --update-golden "
            "only for deliberate timing/telemetry changes")
