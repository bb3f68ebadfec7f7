"""Exporter validity: Chrome trace-event JSON and the pipeview."""

import io
import json

from repro.compiler import CompileOptions
from repro.harness import TraceCache, run_model
from repro.isa import R
from repro.telemetry import (Timeline, chrome_trace, export_trace, records,
                             render_pipeview, write_chrome_trace)
from repro.telemetry.export import FORMATS
from tests.conftest import build_trace

NO_REORDER = CompileOptions(reorder=False, restarts=False)


def stall_kernel(b):
    b.movi(R(1), 0x100000)
    b.ld(R(2), R(1), 0)
    b.add(R(3), R(2), R(2))
    for i in range(4, 16):
        b.movi(R(i), i)
    b.halt()


def traced_events(model="multipass"):
    trace = build_trace(stall_kernel, compile_opts=NO_REORDER)
    timeline = Timeline()
    run_model(model, trace, tracer=timeline)
    return records(timeline, trace), trace


def test_chrome_trace_is_valid_trace_event_json():
    events, _trace = traced_events()
    doc = chrome_trace(events, model="multipass", workload="t")
    # Round-trip through the serializer Perfetto would parse.
    parsed = json.loads(json.dumps(doc))
    assert isinstance(parsed["traceEvents"], list)
    phases = {e["ph"] for e in parsed["traceEvents"]}
    assert phases <= {"M", "X", "i"}
    for event in parsed["traceEvents"]:
        assert {"ph", "name", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 1


def test_chrome_trace_has_mode_spans_covering_the_run():
    events, _trace = traced_events()
    doc = chrome_trace(events, model="multipass", workload="t")
    modes = [e for e in doc["traceEvents"] if e.get("cat") == "mode"]
    names = {e["name"] for e in modes}
    assert "architectural" in names and "advance" in names
    # Mode spans tile the timeline: contiguous and non-overlapping.
    spans = sorted((e["ts"], e["ts"] + e["dur"]) for e in modes)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start == end


def test_chrome_trace_stall_spans_carry_attribution():
    events, _trace = traced_events()
    doc = chrome_trace(events, model="multipass", workload="t")
    stalls = [e for e in doc["traceEvents"] if e.get("cat") == "stall"]
    assert stalls
    for span in stalls:
        assert span["args"]["pc"] >= 0


def test_write_chrome_trace_round_trips(tmp_path):
    events, _trace = traced_events()
    out = io.StringIO()
    write_chrome_trace(events, out, model="multipass", workload="t")
    parsed = json.loads(out.getvalue())
    assert parsed["otherData"]["model"] == "multipass"


def test_pipeview_shows_advance_overlap_under_the_stall():
    events, trace = traced_events()
    view = render_pipeview(events, trace)
    lines = view.splitlines()
    assert lines[0].startswith("pipeview:")
    body = [line for line in lines if "|" in line][1:]
    assert len(body) == len(trace)
    # The miss-shadow work preexecutes: some row shows an advance mark.
    assert any("A" in line.split("|", 1)[1] for line in body)
    # Every instruction eventually commits.
    assert all("C" in line.split("|", 1)[1] for line in body)


def test_pipeview_clips_and_notes_truncation():
    events, trace = traced_events()
    view = render_pipeview(events, trace, max_cycles=10, max_rows=4)
    assert "clipped to cycles 0..9" in view
    assert "omitted" in view


def test_pipeview_windows_a_suffix_trace_around_its_events():
    events, trace = traced_events()
    # ``--max-events`` keeps only a suffix: drop the first half.
    cut = len(events) // 2
    suffix = events[cut:]
    base = min(e["cycle"] for e in suffix
               if e["kind"] in ("fetch", "issue", "rs_hit", "commit"))
    view = render_pipeview(suffix, trace)
    # The ruler starts at the suffix's first milestone, not at 0...
    assert f"|{base}" in view
    # ...so the rendered rows actually carry marks.
    body = [line.split("|", 1)[1] for line in view.splitlines()
            if "|" in line][1:]
    assert any(line.strip(" .") for line in body)


def test_repro_trace_exports_never_build_trace_entries():
    """``repro trace`` records on the production kernels, which read the
    trace's columns only, and the exporters do too."""
    trace = TraceCache(0.05).trace("mcf")
    for fmt, model in zip(FORMATS, ("inorder", "ooo", "multipass")):
        written, recorded = export_trace(model, trace, fmt, io.StringIO())
        assert written == recorded > 0
    assert trace._entries is None
