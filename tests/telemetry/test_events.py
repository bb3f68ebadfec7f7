"""Timeline span bookkeeping and the fields of its exported records."""

from repro.isa import R
from repro.pipeline.stats import StallCategory
from repro.telemetry import Timeline, records
from tests.conftest import build_trace

LOAD, OTHER = StallCategory.LOAD, StallCategory.OTHER


def straight_line(b):
    for i in range(1, 9):
        b.movi(R(i), i)
    b.halt()


def test_event_to_dict_omits_inapplicable_fields():
    trace = build_trace(straight_line)
    timeline = Timeline()
    timeline.mode(0, "advance")
    timeline.fetch(3, 7)
    timeline.charge(4, LOAD, seq=1, pc=4, cycles=6)
    timeline.finish(10)
    assert records(timeline, trace) == [
        {"kind": "mode", "cycle": 0, "mode": "advance", "cycles": 10},
        {"kind": "fetch", "cycle": 3, "seq": 7,
         "pc": trace.decoded.pc[7]},
        {"kind": "stall_begin", "cycle": 4, "seq": 1, "pc": 4,
         "category": "load"},
        {"kind": "stall_end", "cycle": 10, "seq": 1, "pc": 4,
         "category": "load", "cycles": 6},
    ]


def test_consecutive_same_site_charges_coalesce_into_one_span():
    timeline = Timeline()
    for cycle in range(5, 9):
        timeline.charge(cycle, LOAD, seq=2, pc=7)
    timeline.charge(9, StallCategory.EXECUTION)
    begin, end = records(timeline, build_trace(straight_line))
    assert (begin["kind"], begin["cycle"], begin["pc"]) == (
        "stall_begin", 5, 7)
    assert (end["kind"], end["cycle"], end["cycles"]) == ("stall_end", 9, 4)


def test_category_or_pc_change_splits_the_span():
    timeline = Timeline()
    timeline.charge(0, LOAD, pc=1)
    timeline.charge(1, LOAD, pc=2)       # same category, new pc
    timeline.charge(2, OTHER, pc=2)      # new category
    timeline.finish(3)
    assert list(zip(timeline.stall_category, timeline.stall_pc,
                    timeline.stall_start, timeline.stall_end)) == [
        (LOAD, 1, 0, 1), (LOAD, 2, 1, 2), (OTHER, 2, 2, 3)]


def test_multi_cycle_charge_extends_span_by_its_length():
    timeline = Timeline()
    timeline.charge(0, LOAD, pc=3, cycles=4)
    timeline.charge(4, LOAD, pc=3, cycles=6)
    timeline.finish(10)
    assert (timeline.stall_start, timeline.stall_end) == ([0], [10])


def test_mode_calls_dedup_into_spans():
    timeline = Timeline()
    for cycle in range(0, 4):
        timeline.mode(cycle, "architectural")
    for cycle in range(4, 6):
        timeline.mode(cycle, "advance")
    timeline.finish(6)
    assert list(zip(timeline.mode_name, timeline.mode_start,
                    timeline.mode_cycles)) == [
        ("architectural", 0, 4), ("advance", 4, 2)]


def test_finish_is_idempotent_and_closes_open_spans():
    timeline = Timeline()
    timeline.charge(0, StallCategory.FRONT_END, pc=0)
    timeline.mode(0, "architectural")
    timeline.finish(1)
    timeline.finish(2)
    assert timeline.stall_end == [1]
    assert timeline.mode_cycles == [1]
