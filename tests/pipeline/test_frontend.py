"""Tests for the shared front-end model and machine configuration."""

from dataclasses import replace

import pytest

from repro.branch import GsharePredictor
from repro.harness.experiment import TraceCache
from repro.isa import P, R
from repro.machine import MachineConfig, itanium2_like
from repro.memory import config2_hierarchy
from repro.memory.configs import HIERARCHIES
from repro.pipeline.frontend import FrontEnd
from repro.telemetry import Timeline
from repro.workloads import ALL_WORKLOADS
from tests.conftest import TWO_LINE_L1I, build_trace


def straight_line_trace(n=40):
    def body(b):
        for i in range(n):
            b.movi(R(1 + (i % 8)), i)
        b.halt()
    return build_trace(body)


def make_frontend(trace, config=None, buffer_size=24):
    config = config or MachineConfig()
    hierarchy = config.hierarchy.build()
    predictor = GsharePredictor(config.branch_predictor_entries)
    return FrontEnd(trace, hierarchy, predictor, config, buffer_size)


class TestFrontEnd:
    def test_fetches_up_to_width(self):
        trace = straight_line_trace()
        fe = make_frontend(trace)
        fe.tick(0, 0)
        assert fe.fetched_until == MachineConfig().fetch_width

    def test_respects_buffer_bound(self):
        trace = straight_line_trace()
        fe = make_frontend(trace, buffer_size=10)
        for cycle in range(20):
            fe.tick(cycle, 0)
        assert fe.fetched_until == 10

    def test_advances_with_consumption(self):
        trace = straight_line_trace()
        fe = make_frontend(trace, buffer_size=10)
        for cycle in range(5):
            fe.tick(cycle, 0)
        fe.tick(5, 8)   # consumer caught up
        assert fe.fetched_until > 10

    def test_never_fetches_past_trace_end(self):
        trace = straight_line_trace(5)
        fe = make_frontend(trace)
        for cycle in range(10):
            fe.tick(cycle, cycle)
        assert fe.fetched_until == len(trace)

    def test_redirect_rolls_back_and_stalls(self):
        trace = straight_line_trace()
        fe = make_frontend(trace)
        for cycle in range(4):
            fe.tick(cycle, 0)
        fetched = fe.fetched_until
        fe.redirect(resume_index=3, now=10)
        assert fe.fetched_until == 3 < fetched
        assert fe.stall_until == 10 + MachineConfig().mispredict_penalty
        assert fe.redirects == 1

    def test_prewarm_covers_static_code(self):
        trace = straight_line_trace()
        fe = make_frontend(trace)
        config = MachineConfig()
        for inst in trace.program:
            addr = inst.index * config.instruction_bytes
            assert fe.hierarchy.l1i.probe(addr)

    def test_residency_of_packaged_code(self):
        """Every packaged program's code stays in the L1I after the
        pre-warm under each Fig. 7 hierarchy; a 2-line L1I cannot hold
        any of them, so their fetch probes the L1I."""
        traces = TraceCache(0.05)
        for name in sorted(HIERARCHIES):
            hierarchy = HIERARCHIES[name]()
            tiny = replace(hierarchy, l1i=TWO_LINE_L1I)
            for workload in ALL_WORKLOADS:
                trace = traces.trace(workload)
                fe = make_frontend(trace, MachineConfig(hierarchy=hierarchy))
                assert fe.resident, (name, workload)
                fe = make_frontend(trace, MachineConfig(hierarchy=tiny))
                assert not fe.resident, (name, workload)

    def test_resident_fetch_counts_what_probing_finds(self):
        """On resident code ``tick`` counts L1I hits instead of probing;
        the fetched range, the L1I counters and the recorded fetches
        equal those of the probing path on the same code, redirects
        included."""
        trace = TraceCache(0.05).trace("gap")
        counted, probed = make_frontend(trace), make_frontend(trace)
        assert counted.resident
        probed.resident = False
        counted.tracer, probed.tracer = Timeline(), Timeline()
        consume = 0
        for now in range(3000):
            fetched = counted.tick(now, consume)
            assert probed.tick(now, consume) == fetched
            assert counted.fetched_until == probed.fetched_until == fetched
            if now % 97 == 96 and consume + 1 < fetched:
                counted.redirect(consume + 1, now)
                probed.redirect(consume + 1, now)
            consume = max(consume, fetched - 5)
        for fe in (counted, probed):
            assert fe.fetched_until == len(trace)
        c, p = counted.hierarchy.l1i, probed.hierarchy.l1i
        assert (c.accesses, c.hits, c.misses) == (
            p.accesses, p.hits, p.misses)
        assert c.misses == 0 < c.hits
        assert counted.tracer.columns() == probed.tracer.columns()

    def test_nullified_branch_trains_not_taken(self):
        def body(b):
            b.movi(R(1), 1)
            b.cmpeqi(P(1), R(1), 0)      # false
            b.br("skip", pred=P(1))      # nullified every time
            b.movi(R(2), 2)
            b.label("skip")
            b.halt()

        trace = build_trace(body)
        fe = make_frontend(trace)
        branch = next(e for e in trace.entries if e.is_branch)
        for _ in range(8):
            fe.resolve(branch.seq, branch.inst.index, branch.taken, now=0)
        assert fe.predictor.predict(branch.inst.index) is False


class TestMachineConfig:
    def test_table2_defaults(self):
        config = itanium2_like()
        assert config.ports.width == 6
        assert config.branch_predictor_entries == 1024
        assert config.multipass_queue_size == 256
        assert config.ooo_window == 128
        assert config.ooo_rob == 256
        assert config.ooo_extra_stages == 3
        assert config.hierarchy.max_outstanding_misses == 16
        assert config.asc_entries == 64 and config.asc_assoc == 2
        assert config.smaq_entries == 128

    def test_with_hierarchy(self):
        config = itanium2_like().with_hierarchy(config2_hierarchy())
        assert config.hierarchy.name == "config2"
        assert "config2" in config.name
        # Original untouched (frozen dataclass semantics).
        assert itanium2_like().hierarchy.name == "base"

    def test_frozen(self):
        with pytest.raises(Exception):
            itanium2_like().fetch_width = 8
