"""Pin the decoded-trace cache to the single-step reference executor.

``DecodedTrace`` is pure derived data: every flat list must agree with
the corresponding property of the ``TraceEntry`` that
``FunctionalSimulator.step`` produces for the same dynamic instruction
(including nullification semantics — ``is_load``/``is_store`` gated on
``executed``, ``is_branch`` not).  The step loop is independent of the
columns ``run()`` appends, from which ``trace.entries`` is derived.  A
real workload trace exercises predication, nullified slots, restarts,
loads, stores and branches.
"""

import pytest

from repro.harness.experiment import TraceCache
from repro.isa.opcodes import FUClass
from repro.isa.trace import Trace

from .test_executor import reference_run


@pytest.fixture(scope="module")
def trace():
    return TraceCache(scale=0.05).trace("vpr")


@pytest.fixture(scope="module")
def reference(trace):
    entries, _, _, _ = reference_run(trace.program, len(trace))
    return entries


def test_fields_match_entry_properties(trace, reference):
    dec = trace.decoded
    assert dec.n == len(reference)
    for i, entry in enumerate(reference):
        inst = entry.inst
        spec = inst.spec
        assert dec.fu[i] is spec.fu
        assert dec.srcs[i] == entry.srcs
        assert dec.dests[i] == entry.dests
        assert dec.static_dests[i] == inst.dests
        assert dec.latency[i] == spec.latency
        assert dec.pc[i] == inst.index
        assert dec.stop[i] == inst.stop
        assert dec.executed[i] == entry.executed
        assert dec.is_load[i] == entry.is_load
        assert dec.is_store[i] == entry.is_store
        assert dec.is_branch[i] == spec.is_branch
        assert dec.is_restart[i] == entry.is_restart
        assert dec.mem_exec[i] == (entry.executed
                                   and (entry.is_load or entry.is_store))
        assert dec.addr[i] == entry.addr
        assert dec.value[i] == entry.value
        assert dec.taken[i] == entry.taken


def test_issue_fu_matches_basecore_rule(trace, reference):
    """An entry occupies its static FU class, or NONE when nullified."""
    dec = trace.decoded
    nullified = 0
    for i, entry in enumerate(reference):
        spec = entry.inst.spec
        assert dec.issue_fu[i] is (spec.fu if entry.executed
                                   else FUClass.NONE)
        if dec.issue_fu[i] is FUClass.NONE and spec.fu is not FUClass.NONE:
            nullified += 1
    assert nullified > 0, "workload should exercise nullified slots"


def test_decoded_is_cached_per_trace(trace):
    assert trace.decoded is trace.decoded


def test_decoded_lazy_on_fresh_trace(trace):
    clone = Trace(trace.program, trace.pc, trace.executed, trace.addr,
                  trace.value, trace.taken, trace.final_registers,
                  trace.final_memory)
    assert clone._decoded is None
    dec = clone.decoded
    assert dec.n == trace.decoded.n
