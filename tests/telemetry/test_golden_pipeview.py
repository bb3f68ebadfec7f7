"""Golden exports of a tiny deterministic advance episode.

The pipeview is the human-facing rendering of the multipass story —
fetch marks running ahead under a miss, advance marks in the shadow,
the rally merge-and-commit burst — so its exact shape is pinned the
same way the golden stats are.  The JSONL export of the same run pins
the records and their cycle-major order.  Both are recorded on the
production kernel.  Regenerate deliberately with::

    pytest tests/telemetry/test_golden_pipeview.py --update-golden
"""

import io
from pathlib import Path

import pytest

from repro.compiler import CompileOptions
from repro.harness import run_model
from repro.isa import R
from repro.telemetry import Timeline, records, render_pipeview, write_jsonl
from tests.conftest import build_trace

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

#: Deterministic layout: no reordering, no compiler restarts.
NO_REORDER = CompileOptions(reorder=False, restarts=False)


def kernel(b):
    """One long L2/memory miss with independent work behind it."""
    b.movi(R(1), 0x100000)
    b.ld(R(2), R(1), 0)
    b.add(R(3), R(2), R(2))        # trigger: consumes the miss
    for i in range(4, 12):
        b.movi(R(i), i)            # miss-shadow work, preexecutable
    b.halt()


def _recorded():
    trace = build_trace(kernel, name="pipeview", compile_opts=NO_REORDER)
    timeline = Timeline()
    run_model("multipass", trace, tracer=timeline)
    return records(timeline, trace), trace


def _check_golden(request, name, text):
    golden = GOLDEN_DIR / name
    if request.config.getoption("--update-golden"):
        golden.write_text(text)
        pytest.skip(f"regenerated {name}")
    assert golden.exists(), (
        f"missing {golden}; generate it with "
        "pytest tests/telemetry/test_golden_pipeview.py --update-golden")
    assert text == golden.read_text(), (
        f"{name} drifted from the golden export — rerun with "
        "--update-golden only for deliberate timing/exporter changes")


def test_golden_pipeview(request):
    listed, trace = _recorded()
    _check_golden(request, "pipeview_multipass.txt",
                  render_pipeview(listed, trace))


def test_golden_trace_jsonl(request):
    listed, _trace = _recorded()
    out = io.StringIO()
    write_jsonl(listed, out)
    _check_golden(request, "trace_multipass.jsonl", out.getvalue())
