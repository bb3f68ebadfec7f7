"""Mode-transition and internal-invariant tests for the multipass core."""

from bisect import bisect_left

import pytest

from repro.compiler import CompileOptions
from repro.harness import TraceCache, make_model
from repro.isa import P, R
from repro.machine import MachineConfig
from repro.multipass import Mode, MultipassCore
from repro.telemetry import Timeline
from tests.conftest import build_trace

NO_REORDER = CompileOptions(reorder=False, restarts=False)


def stall_kernel(b):
    """One long miss with work behind it: one clean advance episode."""
    b.movi(R(1), 0x100000)
    b.ld(R(2), R(1), 0)
    b.add(R(3), R(2), R(2))    # trigger
    for i in range(4, 24):
        b.movi(R(i), i)
    b.halt()


def test_mode_transition_counters():
    trace = build_trace(stall_kernel, compile_opts=NO_REORDER)
    core = MultipassCore(trace)
    stats = core.run()
    assert stats.counters["advance_entries"] == 1
    assert stats.counters["advance_cycles"] > 0
    assert stats.counters["rally_cycles"] >= 1
    assert core.mode in (Mode.ARCHITECTURAL, Mode.RALLY)
    # The pipeline ends having committed everything.
    assert core.arch_ptr == len(trace)


def test_advance_respects_queue_window():
    """The PEEK pointer never runs past arch_ptr + IQ size."""
    def body(b):
        b.movi(R(1), 0x200000)
        b.ld(R(2), R(1), 0)
        b.add(R(3), R(2), R(2))
        for i in range(400):          # more work than the window holds
            b.movi(R(4 + (i % 20)), i)
        b.halt()

    trace = build_trace(body, compile_opts=NO_REORDER)
    config = MachineConfig(multipass_queue_size=64)
    timeline = Timeline()
    MultipassCore(trace, config, tracer=timeline).run()

    # DEQ at cycle c is the count of commits before c; an advance issue
    # of seq s at c puts the PEEK point at s + 1.
    max_lead = max(seq + 1 - bisect_left(timeline.commit_cycle, cycle)
                   for cycle, seq, mode in zip(timeline.issue_cycle,
                                               timeline.issue_seq,
                                               timeline.issue_mode)
                   if mode == "advance")
    assert 0 < max_lead <= 64


def test_architectural_mode_uses_no_multipass_structures():
    """A kernel with no load stalls never enters advance mode."""
    def body(b):
        b.movi(R(1), 1)
        for _ in range(50):
            b.addi(R(1), R(1), 1)
        b.halt()

    trace = build_trace(body, compile_opts=NO_REORDER)
    stats = MultipassCore(trace).run()
    assert stats.counters["advance_entries"] == 0
    assert stats.counters["rs_writes"] == 0
    assert stats.counters["asc_reads"] == 0


def test_merged_values_match_golden_trace():
    """Result preservation must be architecturally invisible: every value
    the rally merges equals what the golden functional run computed."""
    def body(b):
        b.movi(R(1), 0x300000)
        b.movi(R(9), 0x400000)
        b.movi(R(10), 7)
        b.ld(R(2), R(1), 0)
        b.add(R(3), R(2), R(2))       # trigger
        b.mul(R(4), R(10), R(10))     # preexecutable work
        b.addi(R(5), R(4), 1)
        b.st(R(5), R(9), 0)           # preexecuted store
        b.ld(R(6), R(9), 0)           # forwarded through the ASC
        b.add(R(7), R(6), R(4))
        b.halt()

    trace = build_trace(body, compile_opts=NO_REORDER)
    core = MultipassCore(trace)
    stats = core.run()
    assert stats.counters["rally_merges"] > 0
    # The committed memory view matches the functional simulator's.
    for addr, value in core.mem_vals.items():
        assert trace.final_memory.get(addr, 0) == value or \
            addr in trace.program.memory_image


def test_rs_capacity_matches_queue(monkeypatch):
    trace = build_trace(stall_kernel, compile_opts=NO_REORDER)
    config = MachineConfig(multipass_queue_size=128)
    core = MultipassCore(trace, config)
    assert core.rs.capacity == 128
    assert core.buffer_size == 128


def test_flush_penalty_configurable():
    from tests.multipass.test_core import flush_kernel
    trace = build_trace(flush_kernel, compile_opts=NO_REORDER)
    fast = MultipassCore(trace, MachineConfig(flush_penalty=0)).run()
    slow = MultipassCore(trace, MachineConfig(flush_penalty=40)).run()
    assert fast.counters["value_flushes"] >= 1
    assert slow.cycles > fast.cycles


def test_restart_refill_delays_pass():
    from tests.multipass.test_core import restart_kernel, run_mp
    trace = build_trace(restart_kernel, compile_opts=NO_REORDER)
    fast = run_mp(trace, config=MachineConfig(advance_restart_refill=0))
    slow = run_mp(trace, config=MachineConfig(advance_restart_refill=30))
    assert fast.cycles <= slow.cycles


def test_persist_off_never_merges():
    trace = build_trace(stall_kernel, compile_opts=NO_REORDER)
    stats = MultipassCore(trace, persist_results=False).run()
    assert stats.counters["rally_merges"] == 0
    assert stats.counters["rs_writes"] == 0
    assert stats.instructions == len(trace)


def test_waw_flag_changes_deferral_behaviour():
    """With the §3.5 ablation, consumers wait for fills instead of
    deferring — fewer deferrals, same architectural outcome."""
    def body(b):
        b.movi(R(1), 0x500000)
        b.movi(R(9), 0x600000)
        b.ld(R(2), R(1), 0)
        b.add(R(3), R(2), R(2))       # trigger
        b.ld(R(4), R(9), 0)           # advance load: L1 miss
        b.add(R(5), R(4), R(4))       # consumer: deferred vs waiting
        b.add(R(6), R(5), R(5))
        b.halt()

    trace = build_trace(body, compile_opts=NO_REORDER)
    paper = MultipassCore(trace).run()
    ablated = MultipassCore(trace, l1_miss_writes_srf=True).run()
    assert paper.instructions == ablated.instructions == len(trace)
    assert ablated.counters["advance_deferrals"] <= \
        paper.counters["advance_deferrals"]


@pytest.mark.parametrize("slow", [False, True], ids=["kernel", "slow"])
@pytest.mark.parametrize("model", ["multipass", "runahead"])
def test_cores_keep_their_stores_off_the_shared_image(model, slow):
    """Every core replaying a trace reads the program's one data image;
    a multipass-family core keeps only the stores it commits, in its
    own overlay, and never writes the image."""
    trace = TraceCache(0.05).trace("mcf")
    image = trace.program.memory_image
    before = dict(image)
    core = make_model(model, trace, slow=slow)
    core.run()
    assert image == before
    stored = {addr for addr, store in zip(trace.addr, trace.decoded.is_store)
              if store}
    assert core.mem_vals and set(core.mem_vals) <= stored
    assert all(core.mem_vals[addr] == trace.final_memory[addr]
               for addr in core.mem_vals)
