"""Trace exports of a recorded run: JSONL records, Chrome trace-event
JSON and a Konata-style pipeview.

:func:`records` turns a finished
:class:`~repro.telemetry.timeline.Timeline` into one list of JSON-able
records, one per occurrence, and every export reads that list.

Fields.  Every record has ``kind`` (one of :data:`KINDS`) and ``cycle``.
``seq`` and ``pc`` appear where they apply: a per-instruction record's
``pc`` is ``trace.decoded.pc[seq]``, a stall record's is the blamed
site's.  Stall records carry ``category``; multipass issues and merges
carry ``mode``; misses carry the serving ``level``; a span longer than
one cycle carries ``cycles``.  A span's ``stall_begin`` and ``mode``
records sit at its start cycle and its ``stall_end`` at its end
(exclusive).

Order is cycle-major: by ``cycle``, then by the kind's rank in
:data:`KINDS`, then by ``seq`` (records without one first); ties keep
recording order.  The rank follows the course of a cycle: the stall span
that closed at its start, the mode and any stall span opening at it,
then fetch, issue, cache miss, result-store merge, restart and commit.
``tests/golden/trace_multipass.jsonl`` pins the order.

* :func:`write_jsonl` writes one record per line.
* :func:`chrome_trace` produces the Trace Event Format consumed by
  Perfetto / ``chrome://tracing``: mode and stall spans as complete
  (``"X"``) events on their own tracks, restarts / result-store merges
  / cache misses as instants.  One simulated cycle maps to one
  microsecond of trace time.
* :func:`render_pipeview` produces a Konata-style text pipeline view:
  one row per dynamic instruction, one column per cycle, with
  per-stage milestone characters — the quickest way to *see* advance
  passes overlapping an architectural stall.

:func:`export_trace` is ``repro trace``: it records one run on the
production kernel and writes one export of it.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Tuple

from ..isa.trace import Trace
from .timeline import Timeline

#: Record kinds, in their rank within one cycle.
KINDS = ("stall_end", "mode", "stall_begin", "fetch", "issue",
         "cache_miss", "rs_hit", "restart", "commit")

#: The formats :func:`export_trace` writes.
FORMATS = ("jsonl", "chrome", "pipeview")


def _record(kind: str, cycle: int, seq: int = -1, pc: int = -1,
            cycles: int = 1, **labels: str) -> dict:
    """One record, leaving out the fields that do not apply."""
    record = {"kind": kind, "cycle": cycle}
    if seq >= 0:
        record["seq"] = seq
    if pc >= 0:
        record["pc"] = pc
    for name, value in labels.items():
        if value:
            record[name] = value
    if cycles != 1:
        record["cycles"] = cycles
    return record


def records(timeline: Timeline, trace: Trace) -> List[dict]:
    """Every occurrence ``timeline`` recorded over ``trace``, as records
    in cycle-major order (see the module docstring)."""
    tl = timeline
    pcs = trace.decoded.pc
    out = []
    for kind, cycles, seqs in (("fetch", tl.fetch_cycle, tl.fetch_seq),
                               ("commit", tl.commit_cycle, tl.commit_seq),
                               ("restart", tl.restart_cycle,
                                tl.restart_seq)):
        out += [_record(kind, c, s, pcs[s]) for c, s in zip(cycles, seqs)]
    out += [_record("issue", c, s, pcs[s], mode=m) for c, s, m
            in zip(tl.issue_cycle, tl.issue_seq, tl.issue_mode)]
    out += [_record("rs_hit", c, s, pcs[s], mode=m) for c, s, m
            in zip(tl.rs_hit_cycle, tl.rs_hit_seq, tl.rs_hit_mode)]
    out += [_record("cache_miss", c, s, pcs[s], level=level)
            for c, s, level in zip(tl.miss_cycle, tl.miss_seq,
                                   tl.miss_level)]
    for start, end, category, pc, seq in zip(
            tl.stall_start, tl.stall_end, tl.stall_category, tl.stall_pc,
            tl.stall_seq):
        out.append(_record("stall_begin", start, seq, pc,
                           category=category.value))
        out.append(_record("stall_end", end, seq, pc, end - start,
                           category=category.value))
    out += [_record("mode", start, cycles=n, mode=name) for start, n, name
            in zip(tl.mode_start, tl.mode_cycles, tl.mode_name)]
    rank = {kind: i for i, kind in enumerate(KINDS)}
    out.sort(key=lambda r: (r["cycle"], rank[r["kind"]], r.get("seq", -1)))
    return out


def write_jsonl(listed: Sequence[dict], stream) -> None:
    """Write one record per line (keys sorted)."""
    encode = json.JSONEncoder(sort_keys=True).encode
    for record in listed:
        stream.write(encode(record))
        stream.write("\n")


#: Track (``tid``) layout of the Chrome trace.
_TID_MODE = 1
_TID_STALL = 2
_TID_EVENTS = 3
_TID_MEMORY = 4


def _site(record: dict) -> dict:
    """Chrome ``args`` naming a record's instruction (``-1``: none)."""
    return {"pc": record.get("pc", -1), "seq": record.get("seq", -1)}


def chrome_trace(listed: Sequence[dict], model: str = "",
                 workload: str = "") -> dict:
    """Convert records to a Trace Event Format document (a JSON dict)."""
    name = "/".join(p for p in (workload, model) if p) or "repro"
    trace_events: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": name}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": _TID_MODE,
         "args": {"name": "mode"}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": _TID_STALL,
         "args": {"name": "stalls"}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": _TID_EVENTS,
         "args": {"name": "events"}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": _TID_MEMORY,
         "args": {"name": "memory"}},
    ]
    for record in listed:
        kind = record["kind"]
        cycle = record["cycle"]
        if kind == "mode":
            trace_events.append({
                "ph": "X", "cat": "mode", "name": record["mode"],
                "pid": 1, "tid": _TID_MODE,
                "ts": cycle, "dur": record.get("cycles", 1),
            })
        elif kind == "stall_end":
            cycles = record.get("cycles", 1)
            trace_events.append({
                "ph": "X", "cat": "stall", "name": record["category"],
                "pid": 1, "tid": _TID_STALL,
                "ts": cycle - cycles, "dur": cycles, "args": _site(record),
            })
        elif kind == "restart":
            trace_events.append({
                "ph": "i", "cat": "multipass", "name": "restart",
                "pid": 1, "tid": _TID_EVENTS, "ts": cycle,
                "s": "t", "args": _site(record),
            })
        elif kind == "rs_hit":
            trace_events.append({
                "ph": "i", "cat": "multipass", "name": "rs_hit",
                "pid": 1, "tid": _TID_EVENTS, "ts": cycle,
                "s": "t", "args": {**_site(record), "mode": record["mode"]},
            })
        elif kind == "cache_miss":
            trace_events.append({
                "ph": "i", "cat": "memory",
                "name": f"miss:{record['level']}",
                "pid": 1, "tid": _TID_MEMORY, "ts": cycle,
                "s": "t", "args": _site(record),
            })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms",
            "otherData": {"model": model, "workload": workload,
                          "time_unit": "1 cycle = 1us"}}


#: Pipeview milestone characters, in increasing display precedence.
_CHAR_FETCH = "F"
_CHAR_ADVANCE = "A"      # advance-mode (pre)execution
_CHAR_EXECUTE = "E"      # architectural/rally execution
_CHAR_MERGE = "M"        # result-store merge
_CHAR_COMMIT = "C"
_PRECEDENCE = {_CHAR_FETCH: 0, _CHAR_ADVANCE: 1, _CHAR_EXECUTE: 2,
               _CHAR_MERGE: 3, _CHAR_COMMIT: 4}


class _Row:
    __slots__ = ("seq", "pc", "marks")

    def __init__(self, seq: int, pc: int):
        self.seq = seq
        self.pc = pc
        self.marks = {}

    def mark(self, cycle: int, char: str) -> None:
        current = self.marks.get(cycle)
        if current is None or _PRECEDENCE[char] > _PRECEDENCE[current]:
            self.marks[cycle] = char


def render_pipeview(listed: Sequence[dict], trace: Trace,
                    max_cycles: int = 240,
                    max_rows: int = 200) -> str:
    """Render a Konata-style text pipeline diagram.

    One row per dynamic instruction (``seq``), one column per cycle.
    ``F`` fetch, ``A`` advance (pre)execution, ``E`` architectural or
    rally execution, ``M`` result-store merge, ``C`` commit; ``.``
    fills the in-flight window between the first and last milestone.
    The cycle window starts at the first milestone in ``listed`` (so a
    ``--max-events`` suffix renders its own range, not emptiness)
    and is clipped to ``max_cycles`` columns and ``max_rows`` rows
    with an explicit truncation note, so the view stays terminal-sized.
    """
    rows: dict = {}

    def row(record: dict) -> _Row:
        seq = record["seq"]
        entry = rows.get(seq)
        if entry is None:
            entry = rows[seq] = _Row(seq, record["pc"])
        return entry

    last_cycle = 0
    for record in listed:
        kind = record["kind"]
        cycle = record["cycle"]
        if cycle > last_cycle:
            last_cycle = cycle
        if kind == "fetch":
            row(record).mark(cycle, _CHAR_FETCH)
        elif kind == "issue":
            char = (_CHAR_ADVANCE if record.get("mode") == "advance"
                    else _CHAR_EXECUTE)
            row(record).mark(cycle, char)
        elif kind == "rs_hit":
            row(record).mark(cycle, _CHAR_MERGE)
        elif kind == "commit":
            row(record).mark(cycle, _CHAR_COMMIT)

    base = min((min(r.marks) for r in rows.values() if r.marks),
               default=0)
    width = min(last_cycle + 1 - base, max_cycles)
    n = len(trace)
    instructions = trace.program.instructions
    lines = [
        f"pipeview: {trace.program.name} — {len(rows)} instruction(s), "
        f"{last_cycle + 1} cycle(s)",
        "F=fetch A=advance E=execute M=merge C=commit",
        "",
    ]
    ruler = ["cycle".rjust(5) + " " * 36]
    tick_row = list(" " * width)
    for tick in range(0, width, 10):
        label = str(base + tick)
        for offset, char in enumerate(label):
            if tick + offset < width:
                tick_row[tick + offset] = char
    ruler[0] += "|" + "".join(tick_row)
    lines.extend(ruler)

    clipped_rows = 0
    for seq in sorted(rows):
        if len(lines) - 4 >= max_rows:
            clipped_rows += 1
            continue
        entry_row = rows[seq]
        if seq < n:
            asm = instructions[entry_row.pc].render()
        else:  # pragma: no cover - defensive
            asm = "?"
        if len(asm) > 30:
            asm = asm[:27] + "..."
        cells = list(" " * width)
        marks = {c - base: ch for c, ch in entry_row.marks.items()
                 if c - base < width}
        if marks:
            first, last = min(marks), max(marks)
            for cycle in range(first, last):
                cells[cycle] = "."
            for cycle, char in marks.items():
                cells[cycle] = char
        label = f"{seq:>5} {asm:<35}"
        lines.append(label + "|" + "".join(cells).rstrip())

    notes = []
    if last_cycle + 1 - base > max_cycles:
        notes.append(f"clipped to cycles {base}..{base + max_cycles - 1} "
                     f"of {last_cycle + 1}")
    if clipped_rows:
        notes.append(f"omitted {clipped_rows} later row(s)")
    if notes:
        lines.append("")
        lines.append("note: " + "; ".join(notes))
    return "\n".join(lines) + "\n"


def write_chrome_trace(listed: Sequence[dict], stream, model: str = "",
                       workload: str = "") -> None:
    """Serialize :func:`chrome_trace` output to a text stream."""
    json.dump(chrome_trace(listed, model=model, workload=workload),
              stream, indent=1)
    stream.write("\n")


def export_trace(model: str, trace: Trace, fmt: str, stream,
                 max_events: Optional[int] = None) -> Tuple[int, int]:
    """Run ``model`` over ``trace`` recording a Timeline on its
    production kernel, and write one export of it to ``stream``.

    ``fmt`` is one of :data:`FORMATS`.  ``max_events`` bounds the
    output only: ``jsonl`` keeps the first N records, ``chrome`` and
    ``pipeview`` the last N.  Returns ``(written, recorded)``, the
    record counts after and before that bound.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}; "
                         f"available: {FORMATS}")
    if max_events is not None and max_events < 1:
        raise ValueError(f"max_events must be positive, got {max_events}")
    from ..harness.experiment import run_model

    timeline = Timeline()
    run_model(model, trace, tracer=timeline)
    listed = records(timeline, trace)
    kept = listed
    if max_events is not None:
        kept = (listed[:max_events] if fmt == "jsonl"
                else listed[-max_events:])
    if fmt == "jsonl":
        write_jsonl(kept, stream)
    elif fmt == "chrome":
        write_chrome_trace(kept, stream, model=model,
                           workload=trace.program.name)
    else:
        stream.write(render_pipeview(kept, trace))
    return len(kept), len(listed)


__all__ = ["FORMATS", "KINDS", "chrome_trace", "export_trace", "records",
           "render_pipeview", "write_chrome_trace", "write_jsonl"]
