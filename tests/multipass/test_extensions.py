"""Tests for the extension models: two-pass, hardware restart, mode log."""

from bisect import bisect_left

import pytest

from repro.compiler import CompileOptions
from repro.harness import TraceCache, run_model
from repro.multipass import Mode, MultipassCore, TwoPassCore, simulate_twopass
from repro.telemetry import Timeline
from tests.conftest import build_trace
from tests.multipass.test_core import persistence_kernel, restart_kernel

NO_REORDER = CompileOptions(reorder=False, restarts=False)


class TestTwoPass:
    def test_persists_but_never_restarts(self):
        trace = build_trace(restart_kernel, compile_opts=NO_REORDER)
        stats = simulate_twopass(trace)
        assert stats.counters["advance_restarts"] == 0
        assert stats.counters.get("rs_writes", 0) > 0
        assert stats.instructions == len(trace)

    def test_matches_norestart_multipass(self):
        trace = build_trace(persistence_kernel, compile_opts=NO_REORDER)
        twopass = simulate_twopass(trace)
        norestart = MultipassCore(trace, enable_restart=False).run()
        assert twopass.cycles == norestart.cycles

    def test_registered_in_harness(self):
        trace = TraceCache(0.05).trace("crafty")
        stats = run_model("twopass", trace)
        assert stats.model == "twopass"
        assert stats.instructions == len(trace)


class TestHardwareRestart:
    def test_fires_on_fruitless_pass(self):
        """A dependent chain behind a short miss defers everything: the
        footnote-1 detector must restart without any RESTART directive."""
        def body(b):
            from repro.isa import P, R
            b.movi(R(1), 0x700000)
            b.movi(R(2), 0x710000)
            b.ld(R(3), R(1), 0)            # trigger (long miss)
            b.add(R(4), R(3), R(3))        # consumer -> advance
            b.ld(R(5), R(2), 0)            # advance load, L1 miss
            for i in range(6, 30):         # long dependent (deferred) cone
                b.add(R(i), R(i - 1), R(5))
            b.halt()

        trace = build_trace(body, compile_opts=NO_REORDER)
        core = MultipassCore(trace, enable_restart=False,
                             hardware_restart=True)
        # Make the advance load short so the restart has a rendezvous.
        core.hierarchy.l2.fill(0x710000)
        if core.hierarchy.l3:
            core.hierarchy.l3.fill(0x710000)
        stats = core.run()
        assert stats.counters.get("hardware_restarts", 0) >= 1
        assert stats.instructions == len(trace)

    def test_does_not_fire_without_pending_fills(self):
        """Pure poison with nothing in flight: restarting cannot help."""
        def body(b):
            from repro.isa import R
            b.movi(R(1), 0x720000)
            b.ld(R(2), R(1), 0)
            b.add(R(3), R(2), R(2))        # trigger; everything below
            for i in range(4, 28):         # depends only on the trigger
                b.add(R(i), R(i - 1), R(2))
            b.halt()

        trace = build_trace(body, compile_opts=NO_REORDER)
        stats = MultipassCore(trace, enable_restart=False,
                              hardware_restart=True).run()
        assert stats.counters.get("hardware_restarts", 0) == 0

    def test_registered_in_harness(self):
        trace = TraceCache(0.05).trace("mcf")
        stats = run_model("multipass-hwrestart", trace)
        assert stats.instructions == len(trace)

    def test_recovers_some_restart_benefit(self):
        """On the restart kernel, hardware restart lands between the
        no-restart and compiler-restart designs."""
        trace = build_trace(restart_kernel, compile_opts=NO_REORDER)

        def run(**kw):
            core = MultipassCore(trace, **kw)
            core.hierarchy.l2.fill(0x500000)
            if core.hierarchy.l3:
                core.hierarchy.l3.fill(0x500000)
            return core.run().cycles

        none = run(enable_restart=False)
        hw = run(enable_restart=False, hardware_restart=True,
                 hw_restart_window=4)
        compiler = run(enable_restart=True)
        assert compiler <= hw <= none + 8


class TestModeLog:
    """The mode timeline of a recorded run (the mode spans, the DEQ
    pointer from the commit cycles, the PEEK point from advance issues)."""

    @staticmethod
    def _recorded(kernel):
        trace = build_trace(kernel, compile_opts=NO_REORDER)
        timeline = Timeline()
        MultipassCore(trace, tracer=timeline).run()
        return trace, timeline

    def test_disabled_by_default(self):
        trace = build_trace(persistence_kernel, compile_opts=NO_REORDER)
        core = MultipassCore(trace)
        core.run()
        assert core.tracer is None

    def test_records_all_three_modes(self):
        _trace, timeline = self._recorded(restart_kernel)
        modes = set(map(Mode, timeline.mode_name))
        assert modes == {Mode.ARCHITECTURAL, Mode.ADVANCE, Mode.RALLY}
        assert timeline.mode_start == sorted(timeline.mode_start)

    def test_pointers_consistent(self):
        trace, timeline = self._recorded(restart_kernel)
        for cycle, seq, mode in zip(timeline.issue_cycle,
                                    timeline.issue_seq,
                                    timeline.issue_mode):
            deq = bisect_left(timeline.commit_cycle, cycle)
            assert 0 <= deq <= len(trace)
            if mode == "advance":
                assert seq >= deq
