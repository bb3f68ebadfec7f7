"""Differential property tests for the default (fast) path.

On drawn programs, every statistic a core reports must be bit-identical
between the default path (the columnar kernels, the in-order loop's
stall fast-forward) and the ``slow=True`` reference loop, and recording
a :class:`~repro.telemetry.Timeline` must not change it either.
"""

from hypothesis import HealthCheck, given, settings

from repro.compiler import compile_program
from repro.harness import run_model
from repro.isa import execute
from repro.telemetry import Timeline

from .test_random_programs import materialize, programs

ALL_MODELS = ("inorder", "multipass", "runahead", "twopass", "ooo",
              "ooo-realistic", "multipass-noregroup",
              "multipass-norestart", "multipass-hwrestart")


def _comparable(stats):
    """Every externally observable statistic of one run."""
    return (stats.cycles, stats.instructions, dict(stats.cycle_breakdown),
            dict(stats.counters), stats.branch_accuracy)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_fast_forward_matches_slow_reference(spec):
    trace = execute(compile_program(materialize(spec).build()))
    for model in ALL_MODELS:
        fast = run_model(model, trace)
        slow = run_model(model, trace, slow=True)
        assert _comparable(fast) == _comparable(slow), model


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_traced_matches_untraced_on_fast_path(spec):
    trace = execute(compile_program(materialize(spec).build()))
    for model in ("inorder", "multipass", "runahead", "ooo",
                  "ooo-realistic"):
        untraced = run_model(model, trace)
        traced = run_model(model, trace, tracer=Timeline())
        assert _comparable(untraced) == _comparable(traced), model
