"""A timing-kernel run must not feed CPython's cycle collector.

The collector runs a young collection once net allocations of
container objects pass 700, and its older collections walk every
container the process holds, the columns of every trace a sweep has
built included.  A kernel that keeps one container per simulated
instruction alive until it returns — as the OOO kernel once kept each
seq's producer list — turns every few hundred instructions into a
collection: 29 of them for one ``ooo`` run of gap at scale 0.25.  A
kernel's per-seq containers must not outlive their use
(docs/architecture.md §13).  Opcode counts cannot see this cost, so
this test counts the collections themselves.
"""

import gc

import pytest

from repro.harness import MODEL_FACTORIES, run_model
from repro.harness.experiment import TraceCache

#: Collections one run may trigger: the allocations each run makes
#: once (cache sets, per-run columns) account for up to one or two.
BUDGET = 3


@pytest.fixture(scope="module")
def gap_trace():
    return TraceCache(scale=0.25).trace("gap")


def _collections(model, trace):
    """Generations of the collections one ``run_model`` call triggers."""
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(info["generation"])

    run_model(model, trace)          # lazy per-trace columns and tables
    thresholds = gc.get_threshold()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.set_threshold(700, 10, 10)    # CPython's defaults
    gc.enable()
    gc.callbacks.append(on_gc)
    try:
        run_model(model, trace)
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*thresholds)
        if not was_enabled:
            gc.disable()
    return started


@pytest.mark.parametrize("model", sorted(MODEL_FACTORIES))
def test_one_run_stays_within_the_collector_budget(model, gap_trace):
    started = _collections(model, gap_trace)
    assert len(started) <= BUDGET, (
        f"{model} on gap at scale 0.25 triggered {len(started)} cycle "
        f"collections (generations {started}); a kernel is keeping "
        f"per-seq containers alive past their use")
