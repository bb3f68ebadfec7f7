"""ASCII chart rendering for terminal-friendly figure output.

Plotting libraries are deliberately avoided: these renderers turn the
harness's structured results into the stacked bars of Fig. 6, simple
speedup bars, and the multipass mode strip — all as plain text.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..multipass.core import Mode
from ..pipeline.stats import SimStats, StallCategory
from ..telemetry.timeline import Timeline
from .experiment import Matrix

#: One fill character per Fig. 6 stall category.
CATEGORY_GLYPHS = {
    StallCategory.EXECUTION: "#",
    StallCategory.FRONT_END: "f",
    StallCategory.OTHER: "o",
    StallCategory.LOAD: ".",
}

_MODE_GLYPHS = {
    Mode.ARCHITECTURAL: "-",
    Mode.ADVANCE: "A",
    Mode.RALLY: "R",
}


def stacked_bar(stats: SimStats, baseline_cycles: int,
                width: int = 60) -> str:
    """One normalized Fig. 6 bar: ``###ffoo.....`` scaled to baseline=width.

    Each character is ``baseline_cycles / width`` cycles; the bar's length
    shows the model's normalized total and its fill shows the breakdown.
    """
    if baseline_cycles <= 0:
        raise ValueError("baseline cycles must be positive")
    chars: List[str] = []
    for category in (StallCategory.EXECUTION, StallCategory.FRONT_END,
                     StallCategory.OTHER, StallCategory.LOAD):
        share = stats.cycle_breakdown[category] / baseline_cycles
        chars.append(CATEGORY_GLYPHS[category] * round(share * width))
    return "".join(chars)


def fig6_chart(matrix: Matrix,
               models: Sequence[str] = ("inorder", "multipass", "ooo"),
               width: int = 60) -> str:
    """Render the whole Figure 6 as stacked ASCII bars."""
    lines = [
        "Normalized execution cycles "
        f"({CATEGORY_GLYPHS[StallCategory.EXECUTION]}=execution "
        f"{CATEGORY_GLYPHS[StallCategory.FRONT_END]}=front-end "
        f"{CATEGORY_GLYPHS[StallCategory.OTHER]}=other "
        f"{CATEGORY_GLYPHS[StallCategory.LOAD]}=load)",
    ]
    for workload in matrix.workloads():
        base_cycles = matrix.get(workload, "inorder").cycles
        for model in models:
            stats = matrix.get(workload, model)
            bar = stacked_bar(stats, base_cycles, width)
            lines.append(f"{workload:>8} {model:>10} |{bar}")
        lines.append("")
    return "\n".join(lines)


def speedup_bars(speedups: Dict[str, float], width: int = 50,
                 max_value: float = None) -> str:
    """Horizontal bars for per-workload (or per-model) speedups."""
    if not speedups:
        return "(no data)"
    limit = max_value or max(speedups.values())
    lines = []
    for name, value in speedups.items():
        bar = "#" * max(1, round(value / limit * width))
        lines.append(f"{name:>14} {value:6.2f}x |{bar}")
    return "\n".join(lines)


def mode_strip(timeline: Timeline, width: int = 72) -> str:
    """Compress the mode spans of a multipass run into a strip.

    Each output character summarizes a bucket of cycles: ``-`` pure
    architectural, ``A`` advance-dominated, ``R`` rally-dominated, and
    ``m`` for mixed buckets.
    """
    spans = list(zip(timeline.mode_start, timeline.mode_cycles,
                     timeline.mode_name))
    if not spans:
        return "(no mode spans recorded)"
    last_start, last_cycles, _ = spans[-1]
    bucket = max(1, (last_start + last_cycles) // width)
    counts: List[Dict[Mode, int]] = [dict() for _ in range(width + 1)]
    for cycle, cycles, name in spans:
        mode = Mode(name)
        end = cycle + cycles
        while cycle < end:
            # The cycles of this span that fall in one bucket (the last
            # bucket takes everything from width * bucket on).
            slot = min(width, cycle // bucket)
            stop = end if slot == width else min(end, (slot + 1) * bucket)
            counts[slot][mode] = counts[slot].get(mode, 0) + stop - cycle
            cycle = stop
    chars = []
    for slot_counts in counts:
        if not slot_counts:
            continue
        dominant, share = max(slot_counts.items(), key=lambda kv: kv[1])
        total_slot = sum(slot_counts.values())
        if share / total_slot >= 0.7:
            chars.append(_MODE_GLYPHS[dominant])
        else:
            chars.append("m")
    return (f"modes (-=architectural A=advance R=rally m=mixed; "
            f"{bucket} cycles/char):\n|" + "".join(chars) + "|")
