"""Runtime invariant checking: ArchReplay and the --check instrumentation."""

import pytest

from repro.analysis import ArchReplay, InvariantError
from repro.harness import TraceCache, make_model
from repro.isa import P, R, ProgramBuilder, execute
from repro.isa.trace import TraceEntry
from repro.multipass.result_store import ResultStore


def small_trace():
    b = ProgramBuilder("inv")
    b.movi(R(1), 3)
    b.movi(R(2), 0x80)
    b.label("loop")
    b.ld(R(3), R(2), 0)
    b.add(R(4), R(3), R(1))
    b.st(R(4), R(2), 0)
    b.subi(R(1), R(1), 1)
    b.cmplti(P(1), R(1), 1)
    b.cmpeqi(P(2), P(1), 0)
    b.br("loop", pred=P(2))
    b.halt()
    b.data_word(0x80, 5)
    return execute(b.build())


def test_replaying_golden_trace_passes():
    trace = small_trace()
    replay = ArchReplay(trace)
    for entry in trace:
        replay.commit(entry)
    replay.finish()


def test_out_of_order_commit_raises():
    trace = small_trace()
    replay = ArchReplay(trace)
    replay.commit(trace[0])
    with pytest.raises(InvariantError, match="out-of-order commit"):
        replay.commit(trace[2])


def test_double_commit_raises():
    trace = small_trace()
    replay = ArchReplay(trace)
    replay.commit(trace[0])
    with pytest.raises(InvariantError, match="out-of-order commit"):
        replay.commit(trace[0])


def test_skipped_entry_detected_at_finish():
    trace = small_trace()
    replay = ArchReplay(trace)
    for entry in trace.entries[:-1]:
        replay.commit(entry)
    with pytest.raises(InvariantError, match="incomplete retirement"):
        replay.finish()


def test_tampered_value_detected():
    trace = small_trace()
    replay = ArchReplay(trace)
    first_load = next(e for e in trace if e.is_load)
    for entry in trace.entries[:first_load.seq]:
        replay.commit(entry)
    forged = TraceEntry(first_load.inst, first_load.seq, first_load.dests,
                        first_load.srcs, addr=first_load.addr,
                        value=12345, taken=first_load.taken)
    with pytest.raises(InvariantError, match="value mismatch"):
        replay.commit(forged)


def test_wrong_path_commit_detected():
    trace = small_trace()
    replay = ArchReplay(trace)
    skipped_ahead = TraceEntry(trace[1].inst, 0, trace[1].dests,
                               trace[1].srcs, value=trace[1].value)
    with pytest.raises(InvariantError, match="control-flow divergence"):
        replay.commit(skipped_ahead)


@pytest.mark.parametrize("model", ["inorder", "multipass", "runahead",
                                   "twopass", "ooo", "ooo-realistic",
                                   "multipass-hwrestart"])
def test_every_model_passes_checked_run(model):
    cache = TraceCache(scale=0.05)
    trace = cache.trace("vpr")
    core = make_model(model, trace, check=True)
    core.run()
    assert core.replay.retired == len(trace)


def test_result_store_checked_capacity_overflow():
    rs = ResultStore(8, capacity=2, checked=True)
    rs.put(0, ready=1)
    rs.put(1, ready=1)
    rs.put(1, ready=2)            # an overwrite takes no new slot
    with pytest.raises(InvariantError, match="overflowed"):
        rs.put(2, ready=1)


def test_result_store_unchecked_does_not_enforce():
    rs = ResultStore(8, capacity=1, checked=False)
    rs.put(0, ready=1)
    rs.put(1, ready=1)   # legacy permissive behaviour
    assert len(rs) == 2


@pytest.mark.parametrize("slow", [False, True])
def test_checked_run_enforces_result_store_capacity(slow):
    """Both multipass loops write the core's one result store, so a
    checked run of either overflows a store shrunk below the queue."""
    trace = TraceCache(scale=0.05).trace("mcf")
    core = make_model("multipass", trace, check=True, slow=slow)
    core.rs.capacity = 4
    with pytest.raises(InvariantError, match="result store overflowed"):
        core.run()
