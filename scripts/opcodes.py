#!/usr/bin/env python
"""Python opcodes per simulated instruction, per model and workload.

Usage: python scripts/opcodes.py [--check | --record]

Counts the opcodes of every Python frame a ``run_model`` call executes
(``sys.settrace`` with ``frame.f_trace_opcodes``) for the eight model
variants on mcf, gap and parser at scale 0.05, and prints a markdown
table of count / simulated instructions.  Each model runs once untraced
first, so the per-trace columns and per-port-model tables it builds
lazily exist before the count.  The counts are deterministic on one
Python version; they are a proxy for kernel speed that does not depend
on the host's load.

``--check`` compares the table with the committed baseline,
``opcodes_baseline.json`` next to this script, which holds one table
per Python minor version.  It exits 1 when any cell runs more than 2%
above its baseline cell, and 3, saying so, when the running version has
no baseline table.  ``--record`` rewrites the running version's table;
re-record on purpose, as with a golden file, when a change moves the
counts.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.harness.experiment import TraceCache, run_model

MODELS = ("inorder", "multipass", "runahead", "ooo", "ooo-realistic",
          "multipass-hwrestart", "multipass-norestart",
          "multipass-noregroup")
WORKLOADS = ("mcf", "gap", "parser")
SCALE = 0.05

BASELINE = Path(__file__).with_name("opcodes_baseline.json")
#: ``--check`` fails a cell that runs more than this share above its
#: baseline.
BOUND = 0.02
#: ``--check``'s exit status when the running version has no baseline.
NO_BASELINE = 3


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


def measure() -> dict:
    """Print the table row by row; return it as workload -> model -> count."""
    cache = TraceCache(scale=SCALE)
    print("| opcodes per simulated instruction | " + " | ".join(MODELS)
          + " |")
    print("|---" * (len(MODELS) + 1) + "|")
    table = {}
    for workload in WORKLOADS:
        trace = cache.trace(workload)
        row = {}
        for model in MODELS:
            run_model(model, trace)
            row[model] = round(count_opcodes(model, trace), 1)
        table[workload] = row
        print(f"| {workload} | "
              + " | ".join(f"{row[m]:.1f}" for m in MODELS) + " |")
    return table


def check(table: dict, baseline: dict) -> int:
    """Exit status of ``--check``: 1 if any cell rose past the bound."""
    over = []
    for workload, row in table.items():
        for model, count in row.items():
            base = baseline.get(workload, {}).get(model)
            if base is None:
                over.append(f"{workload} / {model}: {count:.1f}, no "
                            f"baseline cell")
            elif count > base * (1 + BOUND):
                over.append(f"{workload} / {model}: {count:.1f} vs "
                            f"{base:.1f} (+{count / base - 1:.1%})")
    for line in over:
        print(f"over budget: {line}")
    print(f"opcode budget: {len(over)} of "
          f"{sum(map(len, table.values()))} cells more than "
          f"{BOUND:.0%} above the baseline")
    return 1 if over else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="fail on a cell more than 2%% above the "
                           "committed baseline")
    mode.add_argument("--record", action="store_true",
                      help="rewrite this Python version's baseline")
    args = parser.parse_args()
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    baselines = (json.loads(BASELINE.read_text()) if BASELINE.exists()
                 else {})
    if args.check and version not in baselines:
        print(f"no opcode baseline for Python {version} in "
              f"{BASELINE.name}; record one with --record")
        return NO_BASELINE
    t0 = time.time()
    table = measure()
    print(f"[{time.time() - t0:.1f}s, Python {version}]")
    if args.record:
        baselines[version] = table
        BASELINE.write_text(json.dumps(baselines, indent=2) + "\n")
        print(f"recorded the Python {version} baseline in "
              f"{BASELINE.name}")
    elif args.check:
        return check(table, baselines[version])
    return 0


if __name__ == "__main__":
    sys.exit(main())
