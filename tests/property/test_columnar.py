"""Columnar-vs-scalar differential property suite.

The columnar OOO kernel (:mod:`repro.ooo.columnar`) and the columnar
tightenings in the other cores must be *observationally equivalent* to
the cycle-by-cycle scalar reference (``slow=True``): identical cycle
counts, identical stall attribution, identical counters and memory
statistics, and — the strongest form of the contract — an identical
**retired-instruction stream**: the same seqs commit in the same order
at the same cycles.  The same holds for what a run *reports* about
itself: the :class:`~repro.telemetry.timeline.Timeline` a production
kernel records equals, field for field, the one the scalar loop
records.

The scalar inner loops may only be retired once this suite (plus the
golden matrix) pins every columnar path against them.  Hypothesis
drives the same adversarial
program generator as ``test_random_programs`` — bounded loops of random
ALU/memory/predicate bodies, with and without RESTART directives — and
draws the machine configuration next to the program (structure sizes,
the Fig. 7 hierarchies, refill penalties), so the contract is probed on
arbitrary programs and machines, not just the packaged workloads on the
default configuration.
"""

from dataclasses import replace

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.analysis.bounds import cycle_lower_bound
from repro.compiler import compile_program
from repro.harness import (ABLATION_FACTORIES, MODEL_FACTORIES,
                           make_model, run_model)
from repro.isa import ProgramBuilder, R, execute
from repro.machine import MachineConfig
from repro.memory import CacheConfig
from repro.memory.configs import HIERARCHIES
from repro.multipass import core as multipass_core
from repro.ooo import core as ooo_core
from repro.telemetry import Timeline

from .test_random_programs import materialize, programs

#: Every registered model variant (primary + ablations) — 9 as of PR 7.
ALL_MODELS = sorted({**MODEL_FACTORIES, **ABLATION_FACTORIES})

#: The models whose fast path is a columnar event-driven kernel: the
#: OOO pair (PR 7) and the multipass family (PR 9).
COLUMNAR_MODELS = ("ooo", "ooo-realistic", "multipass", "runahead",
                   "twopass", "multipass-norestart",
                   "multipass-noregroup", "multipass-hwrestart")

#: The multipass-family subset (advance/rally passes, SRF/ASC state).
MULTIPASS_MODELS = ("multipass", "runahead", "twopass",
                    "multipass-norestart", "multipass-noregroup",
                    "multipass-hwrestart")


def _machine(hierarchy, mshrs, window, rob, queue, asc, mispredict,
             flush):
    return MachineConfig(
        hierarchy=replace(HIERARCHIES[hierarchy](),
                          max_outstanding_misses=mshrs),
        ooo_window=window, ooo_rob=rob, multipass_queue_size=queue,
        asc_entries=asc, mispredict_penalty=mispredict,
        flush_penalty=flush)


#: Machine configurations around the structure the kernels hard-code
#: (the 64-slot event wheel, ready-queue compaction at 32 entries): OOO
#: window and ROB, multipass queue, ASC and MSHR sizes, the three Fig. 7
#: hierarchies, and the branch and value-flush refill penalties.
configs = st.builds(
    _machine,
    hierarchy=st.sampled_from(sorted(HIERARCHIES)),
    mshrs=st.sampled_from((1, 2, 4, 16)),
    window=st.sampled_from((4, 16, 33, 128)),
    rob=st.sampled_from((8, 32, 65, 256)),
    queue=st.sampled_from((8, 24, 256)),
    asc=st.sampled_from((4, 16, 64)),
    mispredict=st.integers(1, 12),
    flush=st.integers(1, 12),
)


class RetireRecorder:
    """A ``core.replay`` stand-in that records the retired stream.

    Cores call ``replay.commit(entry)`` once per architecturally retired
    instruction, in commit order; recording the seqs observes the full
    retirement stream without any tracer attached.
    """

    def __init__(self):
        self.seqs = []

    def commit(self, entry):
        self.seqs.append(entry.seq)

    def finish(self):
        """Called by ``finalize()``; nothing to verify here."""


def _comparable(stats):
    """Everything a run reports — the dict perfbench digests, memory
    statistics included."""
    return stats.to_dict()


def _run_recorded(model, trace, slow, config=None):
    core = make_model(model, trace, config, slow=slow)
    recorder = RetireRecorder()
    core.replay = recorder
    stats = core.run()
    return stats, recorder.seqs


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs, configs)
def test_columnar_matches_scalar_everywhere(spec, config):
    """Every reported statistic agrees on all 9 variants."""
    compiled = compile_program(materialize(spec).build())
    trace = execute(compiled)
    for model in ALL_MODELS:
        fast = run_model(model, trace, config)
        slow = run_model(model, trace, config, slow=True)
        assert _comparable(fast) == _comparable(slow), model


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs, configs)
def test_retired_streams_identical(spec, config):
    """The columnar kernel retires the same seqs in the same order.

    Every seq must appear exactly once (trace replay commits each
    dynamic instruction once) and the fast/slow streams must be equal
    element-for-element — a stricter check than the aggregate stats,
    which could mask compensating reorderings.
    """
    compiled = compile_program(materialize(spec).build())
    trace = execute(compiled)
    n = len(trace)
    for model in ALL_MODELS:
        fast_stats, fast_seqs = _run_recorded(model, trace, False, config)
        slow_stats, slow_seqs = _run_recorded(model, trace, True, config)
        assert fast_seqs == slow_seqs, model
        assert sorted(fast_seqs) == list(range(n)), model
        assert _comparable(fast_stats) == _comparable(slow_stats), model


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs, configs)
def test_timeline_matches_scalar_everywhere(spec, config):
    """The production kernel records the scalar loop's Timeline.

    Field for field — every fetch, issue (with its mode), commit,
    restart, result-store merge and cache miss with its cycle, every
    coalesced stall span with its blamed site, every mode span — on all
    9 variants.  This is what licenses the timeline views (sweep
    summaries, stall profiles) to report on the production kernels.
    """
    compiled = compile_program(materialize(spec).build())
    trace = execute(compiled)
    for model in ALL_MODELS:
        fast, slow = Timeline(), Timeline()
        fast_stats = run_model(model, trace, config, tracer=fast)
        slow_stats = run_model(model, trace, config, tracer=slow,
                               slow=True)
        assert _comparable(fast_stats) == _comparable(slow_stats), model
        fast_columns, slow_columns = fast.columns(), slow.columns()
        for name in Timeline.FIELDS:
            assert fast_columns[name] == slow_columns[name], (model, name)
        assert fast.commit_seq == list(range(len(trace))), model


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs, st.sampled_from(COLUMNAR_MODELS))
def test_audit_oracle_holds_on_columnar_path(spec, model):
    """The static cycle bound is sound against the columnar kernel too.

    The audit oracle's soundness claim (AUD001) quantifies over timing
    models, not loop implementations — so it must hold for the
    event-driven kernel exactly as for the scalar reference it
    replaced.
    """
    trace = execute(compile_program(materialize(spec).build()))
    bound = cycle_lower_bound(trace).bound
    fast = run_model(model, trace).cycles
    slow = run_model(model, trace, slow=True).cycles
    assert fast == slow, model
    assert bound <= fast, (
        f"{model}: columnar kernel simulated {fast} cycles below the "
        f"static lower bound {bound} (AUD001)")


def test_columnar_routing(monkeypatch):
    """The scalar reference loop runs exactly when ``slow=True``,
    recording or not; everything else runs the columnar kernel."""
    ran = []
    for module, cls in ((ooo_core, ooo_core.OutOfOrderCore),
                        (multipass_core, multipass_core.MultipassCore)):
        kernel, scalar = module.run_columnar, cls._run_scalar

        def columnar(core, max_cycles, kernel=kernel):
            ran.append("columnar")
            return kernel(core, max_cycles)

        def reference(core, max_cycles=500_000_000, scalar=scalar):
            ran.append("scalar")
            return scalar(core, max_cycles)

        monkeypatch.setattr(module, "run_columnar", columnar)
        monkeypatch.setattr(cls, "_run_scalar", reference)

    spec = ([("add", *_regs(3))], 2, False)
    trace = execute(compile_program(materialize(spec).build()))
    for model in COLUMNAR_MODELS:
        results = []
        for slow in (False, True):
            for tracer in (None, Timeline()):
                del ran[:]
                results.append(_comparable(run_model(
                    model, trace, slow=slow, tracer=tracer)))
                loop = "scalar" if slow else "columnar"
                assert ran == [loop], (model, slow, tracer)
        # All four agree on the stats regardless of the loop that ran.
        assert all(r == results[0] for r in results), model


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs, configs)
def test_multipass_family_retired_streams_identical(spec, config):
    """Dedicated multipass-family differential: the columnar advance/
    rally kernel retires the same seqs in the same order as the scalar
    reference, on every family variant, with and without RESTART
    directives in the generated program."""
    compiled = compile_program(materialize(spec).build())
    trace = execute(compiled)
    n = len(trace)
    for model in MULTIPASS_MODELS:
        fast_stats, fast_seqs = _run_recorded(model, trace, False, config)
        slow_stats, slow_seqs = _run_recorded(model, trace, True, config)
        assert fast_seqs == slow_seqs, model
        assert sorted(fast_seqs) == list(range(n)), model
        assert _comparable(fast_stats) == _comparable(slow_stats), model


def _idle_skip_program(padding: int):
    """A cold-miss load, ``padding`` independent ALU ops, a dependent
    consumer: the consumer stalls architecturally on the miss, the
    advance pass drains, and the machine goes idle until the fill."""
    b = ProgramBuilder(f"idle-skip-{padding}")
    for i in range(2, 8):
        b.movi(R(i), i)
    b.movi(R(12), 0x1000)
    b.ld(R(1), R(12), 0)
    for i in range(padding):
        r = R(2 + (i % 6))
        b.addi(r, r, 1)
    b.add(R(8), R(1), R(1))
    b.halt()
    return b.build()


def test_pass_restart_lands_on_first_skipped_cycle():
    """Idle-skip boundary sweep for the multipass kernel.

    While the architectural stream is blocked on a cold memory miss the
    kernel fast-forwards idle cycles to the next event.  The pass
    restart (the trigger-load fill that re-enters rally — and, on the
    hardware-restart ablation, the wheel/heap pready rendezvous) must
    never be jumped over.  Sweeping the padding length slides the stall
    entry cycle one step per iteration relative to the fixed fill time,
    so some alignment in the sweep places the restart event exactly on
    the first skipped cycle; fast and slow must agree at every
    alignment, including that one.
    """
    for padding in range(0, 40):
        trace = execute(compile_program(_idle_skip_program(padding)))
        n = len(trace)
        for model in ("multipass", "runahead", "multipass-hwrestart"):
            fast_stats, fast_seqs = _run_recorded(model, trace,
                                                  slow=False)
            slow_stats, slow_seqs = _run_recorded(model, trace,
                                                  slow=True)
            assert fast_seqs == slow_seqs, (model, padding)
            assert sorted(fast_seqs) == list(range(n)), (model, padding)
            assert _comparable(fast_stats) == _comparable(slow_stats), (
                model, padding)


def test_load_merges_into_in_flight_fill_of_evicted_line():
    """An L1D load miss on a line whose fill is still in flight merges
    into that fill's MSHR.

    With a 2-set direct-mapped L1D, the load at ``+128`` evicts the line
    the first load is still filling; the repeat load then misses the
    L1D, hits the L2 and merges into the pending miss.  The program is
    not compiled, so the scheduler cannot reorder the three loads.
    """
    b = ProgramBuilder("mshr-merge")
    b.movi(R(12), 0x1000)
    b.ld(R(1), R(12), 0)
    b.ld(R(2), R(12), 128)
    b.ld(R(3), R(12), 0)
    b.halt()
    trace = execute(b.build())
    config = MachineConfig(hierarchy=replace(
        HIERARCHIES["base"](), l1d=CacheConfig("L1D", 128, 64, 1, 1)))
    for model in ("ooo", "ooo-realistic"):
        fast = run_model(model, trace, config)
        slow = run_model(model, trace, config, slow=True)
        assert fast.memory.mshr_merges == 1, model
        assert _comparable(fast) == _comparable(slow), model


def _regs(k):
    from repro.isa import R
    return (R(1), R(2), R(k))
