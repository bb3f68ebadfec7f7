"""How ``repro trace`` streams and bounds its records."""

import io
import json

from repro.telemetry import chrome_trace, export_trace, render_pipeview

from .test_export import traced_events


def test_ring_buffer_keeps_the_most_recent_events():
    """Chrome and pipeview keep the last ``max_events`` records."""
    listed, trace = traced_events()
    keep = len(listed) // 2
    out = io.StringIO()
    assert export_trace("multipass", trace, "chrome", out,
                        max_events=keep) == (keep, len(listed))
    assert json.loads(out.getvalue()) == chrome_trace(
        listed[-keep:], model="multipass", workload=trace.program.name)
    out = io.StringIO()
    export_trace("multipass", trace, "pipeview", out, max_events=keep)
    assert out.getvalue() == render_pipeview(listed[-keep:], trace)


def test_jsonl_sink_streams_one_parseable_object_per_line():
    listed, trace = traced_events()
    out = io.StringIO()
    assert export_trace("multipass", trace, "jsonl", out) == (
        len(listed), len(listed))
    lines = out.getvalue().splitlines()
    assert [json.loads(line) for line in lines] == listed
