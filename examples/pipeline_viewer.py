#!/usr/bin/env python
"""Visualize the multipass pipeline's operating modes over time.

Runs a workload on the multipass core recording a timeline (paper
Fig. 3: architectural / advance / rally) and renders:

* a mode strip over the whole run, from the recorded mode spans,
* the DEQ (architectural) vs PEEK (advance) pointer excursion around one
  advance episode,
* the Fig. 6-style stacked stall bars for in-order vs multipass vs OOO.

Run:  python examples/pipeline_viewer.py [workload] [scale]
"""

import sys
from bisect import bisect_left, bisect_right

from repro.harness import TraceCache, run_matrix, run_model
from repro.harness.charts import fig6_chart, mode_strip, speedup_bars
from repro.telemetry import Timeline


def pointer_excursion(timeline, width=64):
    """Render the PEEK pointer's lead over DEQ around the first episode.

    DEQ at cycle c is the number of instructions committed before c; the
    PEEK point is one past the latest advance-mode issue before c.
    """
    starts, names = timeline.mode_start, timeline.mode_name
    if "advance" not in names:
        return "(no advance episode occurred)"
    start = starts[names.index("advance")]
    end = min(start + width, starts[-1] + timeline.mode_cycles[-1])
    advance = [(cycle, seq) for cycle, seq, mode
               in zip(timeline.issue_cycle, timeline.issue_seq,
                      timeline.issue_mode) if mode == "advance"]
    advance_cycles = [cycle for cycle, _ in advance]
    lines = [f"PEEK lead over DEQ, cycles {start}..{start + width} "
             f"(one row per 4 cycles):"]
    for cycle in range(start, end, 4):
        mode = names[bisect_right(starts, cycle) - 1]
        deq = bisect_left(timeline.commit_cycle, cycle)
        issued = bisect_left(advance_cycles, cycle)
        peek = advance[issued - 1][1] + 1 if issued else deq
        lead = max(0, peek - deq)
        lines.append(f"  cycle {cycle:>6} {mode[:4]:>4} "
                     f"lead={lead:>3} |{'>' * min(60, lead)}")
    return "\n".join(lines)


def main():
    workload = sys.argv[1] if len(sys.argv) > 1 else "mcf"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.15
    cache = TraceCache(scale)
    trace = cache.trace(workload)

    timeline = Timeline()
    stats = run_model("multipass", trace, tracer=timeline)
    print(f"{workload} on the multipass core: {stats.cycles} cycles, "
          f"{stats.counters['advance_entries']} advance episodes, "
          f"{stats.counters['advance_restarts']} restarts\n")
    print(mode_strip(timeline))
    print()
    print(pointer_excursion(timeline))

    print("\n" + "=" * 72)
    matrix = run_matrix(("inorder", "multipass", "ooo"),
                        workloads=(workload,), cache=cache)
    print(fig6_chart(matrix))

    base = matrix.get(workload, "inorder").cycles
    speedups = {
        model: base / run_model(model, trace).cycles
        for model in ("multipass", "runahead", "twopass", "ooo",
                      "ooo-realistic")
    }
    print("speedup over in-order:")
    print(speedup_bars(speedups))


if __name__ == "__main__":
    main()
