"""Seeded regression for the idle-skip (fast-forward overshoot) bug class.

The PR 5 ooo idle-skip bug: a fast-forward span was allowed to jump the
clock past a cycle on which an in-flight event (a fill completion, a
wake-up, a fetch resume) landed, because the skip bound was computed
before the event was scheduled — the event arrived *exactly one cycle
after the proposed skip start*, the worst-case alignment.

These programs are built to reproduce that alignment deliberately: a
cold load opens a main-memory-latency stall span (the skip trigger),
and a sweep of single-cycle filler instructions shifts every subsequent
event — the consumer's wake-up, a second staggered miss, its fill —
cycle by cycle across the span boundary.  Somewhere in the sweep each
event lands exactly on the first skipped cycle; a skip that overshoots
by even one cycle drifts the cycle count or the stall attribution and
fails the differential against the ``slow=True`` reference, which never
skips.  One more shape slides a long completion that nobody waits on
through a span: the OOO skip jumps it, so the sweep pins that such a
jump changes nothing.

Asserted for every registered model: the in-order loop fast-forwards
through the base core's front-end clamp, and the OOO and
multipass-family cores through their columnar kernels' span logic
(their scalar loops, which ``slow=True`` runs, step every cycle).
"""

import pytest

from repro.compiler import compile_program
from repro.harness import ABLATION_FACTORIES, MODEL_FACTORIES, run_model
from repro.isa import P, ProgramBuilder, R, execute

ALL_MODELS = sorted({**MODEL_FACTORIES, **ABLATION_FACTORIES})

#: Filler sweep: wide enough to slide events across a whole issue group
#: plus the span boundary on either side.
PADS = range(0, 9)

#: Second-load placement: same line as the first (serves from the
#: in-flight fill — the "event lands mid-span" case), the next line
#: (an independent overlapping miss) and two lines out.
GAPS = (4, 64, 128)


def _boundary_program(pad: int, gap: int):
    """A cold miss, ``pad`` cycles of slide, then dependent wake-ups."""
    b = ProgramBuilder(f"idle-skip-p{pad}-g{gap}")
    b.movi(R(12), 0x1000)
    b.movi(R(1), 1)
    b.ld(R(2), R(12), 0)          # cold load: main-memory latency
    for _ in range(pad):          # slide the alignment one cycle at a time
        b.addi(R(1), R(1), 1)
    b.add(R(3), R(2), R(1))       # consumer: wakes exactly at the fill
    b.ld(R(4), R(12), gap)        # staggered second miss / pending hit
    b.add(R(5), R(4), R(3))
    b.cmplti(P(1), R(5), 0)
    b.addi(R(6), R(5), 1, pred=P(1))
    b.halt()
    return execute(compile_program(b.build()))


def _unread_completion_program(pad: int):
    """A long completion nobody waits on, inside the head's idle span.

    The head is a DIV waiting on a cold load; once the load's fill
    wakes it, the machine idles for the DIV's latency.  A second cold
    load, younger than the DIV chain and never read, issues ``pad``
    cycles after the first, so its fill slides one cycle per pad into
    and through that span.  It is neither the head nor awaited, so the
    OOO skip's wake horizon (the head's completion and the calendar's
    live events) jumps it; a horizon that missed a real event there
    would drift from the never-skipping reference.
    """
    b = ProgramBuilder(f"unread-completion-p{pad}")
    b.movi(R(12), 0x3000)
    b.movi(R(13), 0x3000)
    b.movi(R(1), 3)
    b.ld(R(2), R(12), 0)          # cold load: the first idle span
    b.div(R(5), R(2), R(1))       # the head of the second span
    b.div(R(6), R(5), R(1))
    for _ in range(pad):          # slide the second load's issue
        b.addi(R(13), R(13), 0)
    b.ld(R(4), R(13), 128)        # second cold load: never read
    b.add(R(7), R(6), R(1))
    b.halt()
    return execute(compile_program(b.build()))


def _comparable(stats):
    return (stats.cycles, stats.instructions, dict(stats.cycle_breakdown),
            dict(stats.counters), stats.branch_accuracy)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_skip_never_jumps_a_boundary_event(model):
    for pad in PADS:
        traces = [_boundary_program(pad, gap) for gap in GAPS]
        traces.append(_unread_completion_program(pad))
        for trace in traces:
            fast = run_model(model, trace)
            slow = run_model(model, trace, slow=True)
            assert _comparable(fast) == _comparable(slow), (
                f"{model}: fast path diverged from the per-cycle "
                f"reference on {trace.program.name} — a fast-forward "
                f"span jumped an event that landed on a skipped cycle")


def _wakeup_boundary_program(pad: int):
    """A visibility event (completion + wakeup_delay) on the span edge.

    The realistic OOO core pays one wakeup-loop cycle: a consumer sees
    its producer at ``ready_cycle + 1``, so every wake-up event in the
    calendar sits one cycle later than on the ideal core.  This shape
    opens a main-memory idle span with a cold load and floats a slow
    MULDIV chain across it: the div's *shifted* visibility event is the
    first event after the skip starts for some ``pad`` in the sweep —
    off-by-one in either direction (folding the delay into the event
    time, or capping a skip with the unshifted completion) diverges
    from the never-skipping reference.
    """
    b = ProgramBuilder(f"wakeup-boundary-p{pad}")
    b.movi(R(12), 0x2000)
    b.movi(R(1), 7)
    b.movi(R(2), 3)
    b.ld(R(3), R(12), 0)          # cold load: opens the idle span
    for _ in range(pad):          # slide the div completion cycle
        b.addi(R(1), R(1), 1)
    b.mul(R(4), R(1), R(2))       # slow chain started before the span
    b.div(R(5), R(4), R(2))
    b.add(R(6), R(5), R(5))       # wakes at div ready + wakeup_delay
    b.add(R(7), R(6), R(3))       # joins the fill: wakes at the later
    b.addi(R(8), R(7), 1)         # of fill/chain visibility
    b.halt()
    return execute(compile_program(b.build()))


@pytest.mark.parametrize("model", ("ooo", "ooo-realistic"))
def test_wakeup_delay_shifted_event_on_skip_boundary(model):
    """OOO cells where the +wakeup_delay event lands on a skipped cycle.

    Sweeping the pad slides the chain's visibility events one cycle at
    a time across the idle-span boundary; running both OOO cores pins
    both alignments (ideal ``wakeup_delay=0`` and realistic ``=1``
    place the same completion's event on adjacent cycles, so a sweep
    that is clean on one core and dirty on the other localizes the
    shift handling, not the span logic).
    """
    for pad in PADS:
        trace = _wakeup_boundary_program(pad)
        fast = run_model(model, trace)
        slow = run_model(model, trace, slow=True)
        assert _comparable(fast) == _comparable(slow), (
            f"{model}: fast path diverged from the per-cycle reference "
            f"at pad={pad} — a wakeup_delay-shifted visibility event "
            f"landed on a skipped cycle")


@pytest.mark.parametrize("model", ALL_MODELS)
def test_skip_sound_under_commit_verification(model):
    """The same sweep with architectural replay checking enabled.

    ``check=True`` cross-checks every commit against independent
    re-execution, so an overshooting skip that dropped or reordered a
    commit fails loudly here even if the aggregate stats happened to
    collide.
    """
    trace = _boundary_program(4, 64)
    stats = run_model(model, trace, check=True)
    assert stats.instructions == len(trace)
