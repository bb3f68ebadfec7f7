"""Pin the columnar trace data to its per-entry reference rules.

The issue-resource columns in ``repro.isa.columns`` are checked against
the per-entry rules the cores used to apply inline, on a real workload
trace that exercises predication, nullified slots, loads, stores and
branches.
"""

import pytest

from repro.harness.experiment import TraceCache
from repro.isa.columns import columns_of
from repro.isa.opcodes import FUClass
from repro.resources import PORT_CODE, QUEUE_CODE


@pytest.fixture(scope="module")
def trace():
    return TraceCache(scale=0.05).trace("vpr")


def test_issue_resource_columns(trace):
    dec = trace.decoded
    cols = columns_of(dec)
    assert cols.n == dec.n
    for seq in range(dec.n):
        fu = dec.issue_fu[seq]
        assert cols.port_code[seq] == PORT_CODE[fu], seq
        assert cols.queue_code[seq] == QUEUE_CODE[fu], seq
    # The queue partition: MEM -> 0, ALU/BR/NONE -> 1, FP/MULDIV -> 2.
    assert {QUEUE_CODE[FUClass.MEM]} == {0}
    assert {QUEUE_CODE[FUClass.ALU], QUEUE_CODE[FUClass.BR],
            QUEUE_CODE[FUClass.NONE]} == {1}
    assert {QUEUE_CODE[FUClass.FP], QUEUE_CODE[FUClass.MULDIV]} == {2}


def test_columns_cached_per_decoded_trace(trace):
    dec = trace.decoded
    cols = columns_of(dec)
    assert columns_of(dec) is cols
    assert cols.fetch_runs(4, 64) is cols.fetch_runs(4, 64)
    assert cols.multipass_kind() is cols.multipass_kind()
