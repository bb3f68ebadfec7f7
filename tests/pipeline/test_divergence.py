"""Unified ``max_cycles`` divergence handling across all five cores.

Every run loop routes its budget check through
``BaseCore.check_cycle_budget``, so a runaway simulation raises
:class:`SimulationDiverged` with the model name, the budget, the cycle
it tripped at and the workload — regardless of model and regardless of
whether the stall fast-forward jumped the clock past the budget.  The
default budget (``BaseCore.cycle_budget``) follows the trace length, so
a kernel that loses a wake-up fails at once instead of hanging.
"""

import pytest

from repro.compiler import CompileOptions
from repro.harness.experiment import MODEL_FACTORIES, TraceCache
from repro.isa import R
from repro.pipeline import EventCalendar, SimulationDiverged
from tests.conftest import build_trace

MODELS = sorted(MODEL_FACTORIES)


@pytest.fixture(scope="module")
def trace():
    return TraceCache(scale=0.05).trace("vpr")


@pytest.mark.parametrize("model", MODELS)
def test_budget_overrun_raises_with_context(model, trace):
    core = MODEL_FACTORIES[model](trace, None)
    with pytest.raises(SimulationDiverged) as excinfo:
        core.run(max_cycles=3)
    message = str(excinfo.value)
    assert core.model_name in message
    assert "max_cycles=3" in message
    assert "at cycle" in message
    assert trace.program.name in message


@pytest.mark.parametrize("model", MODELS)
def test_budget_overrun_raises_in_slow_mode(model, trace):
    """The reference loop shares the same divergence path."""
    core = MODEL_FACTORIES[model](trace, None, slow=True)
    with pytest.raises(SimulationDiverged) as excinfo:
        core.run(max_cycles=3)
    assert core.model_name in str(excinfo.value)


@pytest.mark.parametrize("model", MODELS)
def test_sufficient_budget_completes(model, trace):
    stats = MODEL_FACTORIES[model](trace, None).run()
    assert stats.cycles > 3


def _miss_with_work_behind_it(b):
    """The head waits on a cold load while a multiply wakes its
    consumer through the calendar's wheel."""
    b.movi(R(1), 0x100000)
    b.movi(R(5), 3)
    b.ld(R(2), R(1), 0)
    b.mul(R(6), R(5), R(5))
    b.add(R(7), R(6), R(6))
    b.add(R(8), R(2), R(7))
    b.halt()


@pytest.mark.parametrize("model", ["ooo", "ooo-realistic"])
def test_lost_wake_up_raises_instead_of_hanging(model, monkeypatch):
    """An idle skip that jumps the wake-up it should land on leaves the
    waiter un-issued for good.  The default budget, derived from the
    trace length, ends the run at once rather than letting it hang."""
    trace = build_trace(_miss_with_work_behind_it,
                        compile_opts=CompileOptions(reorder=False,
                                                    restarts=False))
    next_live = EventCalendar.next_live

    def jumping(self, now, limit, live):
        wake = next_live(self, now, limit, live)
        return next_live(self, wake + 1, limit, live) if wake < limit else wake

    monkeypatch.setattr(EventCalendar, "next_live", jumping)
    core = MODEL_FACTORIES[model](trace, None)
    with pytest.raises(SimulationDiverged) as excinfo:
        core.run()
    assert f"max_cycles={core.cycle_budget()} " in str(excinfo.value)
    monkeypatch.undo()
    assert MODEL_FACTORIES[model](trace, None).run().cycles < 200
