#!/usr/bin/env python
"""Python opcodes per simulated instruction, per model and workload.

Usage: python scripts/opcodes.py

Counts the opcodes of every Python frame a ``run_model`` call executes
(``sys.settrace`` with ``frame.f_trace_opcodes``) for the eight model
variants on mcf and gap at scale 0.05, and prints a markdown table of
count / simulated instructions.  Each model runs once untraced first,
so the per-trace columns and per-port-model tables it builds lazily
exist before the count.  The counts are deterministic on one Python
version; they are a proxy for kernel speed that does not depend on
the host's load.
"""

import sys
import time

from repro.harness.experiment import TraceCache, run_model

MODELS = ("inorder", "multipass", "runahead", "ooo", "ooo-realistic",
          "multipass-hwrestart", "multipass-norestart",
          "multipass-noregroup")
WORKLOADS = ("mcf", "gap")
SCALE = 0.05


def count_opcodes(model: str, trace) -> float:
    """Opcodes per simulated instruction of one ``run_model`` call."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        stats = run_model(model, trace)
    finally:
        sys.settrace(None)
    return count / stats.instructions


def main() -> None:
    t0 = time.time()
    cache = TraceCache(scale=SCALE)
    print("| opcodes per simulated instruction | " + " | ".join(MODELS)
          + " |")
    print("|---" * (len(MODELS) + 1) + "|")
    for workload in WORKLOADS:
        trace = cache.trace(workload)
        cells = []
        for model in MODELS:
            run_model(model, trace)
            cells.append(f"{count_opcodes(model, trace):.1f}")
        print(f"| {workload} | " + " | ".join(cells) + " |")
    print(f"[{time.time() - t0:.1f}s, Python "
          f"{sys.version_info.major}.{sys.version_info.minor}]")


if __name__ == "__main__":
    main()
