#!/usr/bin/env python
"""A/B benchmark driver: alternating perfbench runs of a revision and this tree.

Usage::

    python3 scripts/ab.py REV --workload W [--pairs 10] [--seconds S] [--seed 0]

Checks ``REV`` out into a temporary git worktree (removed on exit) and
runs ``perfbench/run.py`` on that tree (the base) and on this working
tree (the change), strictly alternating.  The side that runs first
flips every pair, and pair ``i`` uses seed ``seed + i``.  ``--seconds``
defaults to ``BENCHMARK.json``'s ``run_seconds``.

For each end-to-end metric of ``BENCHMARK.json`` it prints both
medians, the base's interquartile range, the change/base ratio of the
medians and how many pairs the change won, in the direction
``BENCHMARK.json`` calls better.  It exits non-zero if a run fails or
reports ``"correct": false``.  The temporary worktree lives under
this tree's ``.bench_build/`` (gitignored), not the system temporary
directory, so both sides run from the same place: with the base under
``/tmp``, A/A runs favoured the base (EXPERIMENTS.md, "How to benchmark
the simulator itself").
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class ABError(RuntimeError):
    """A benchmark run failed or reported wrong outputs."""


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``; returns its end-to-end metrics."""
    command = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise ABError(f"{tree}: {' '.join(command)} exited with "
                      f"{done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if not report["correct"]:
        raise ABError(f"{tree}: outputs differ from perfbench/reference.json "
                      f"({report['failed']} of {report['attempted']})")
    return {name: metric["value"]
            for name, metric in report["metrics"].items()}


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def table(base_runs, change_runs) -> str:
    rows = [f"{'metric':<16} {'base median':>12} {'base IQR':>10} "
            f"{'change median':>14} {'ratio':>7} {'change wins':>12}"]
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        base = [run[name] for run in base_runs]
        change = [run[name] for run in change_runs]
        lower = metric["better"] == "lower"
        wins = sum(1 for b, c in zip(base, change)
                   if (c < b if lower else c > b))
        base_med = statistics.median(base)
        change_med = statistics.median(change)
        ratio = f"{change_med / base_med:.3f}" if base_med else "n/a"
        rows.append(f"{name:<16} {base_med:>12.6g} {iqr(base):>10.4g} "
                    f"{change_med:>14.6g} {ratio:>7} "
                    f"{wins:>9}/{len(base)}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the base revision")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ab-", dir=scratch) as tmp:
        base_tree = Path(tmp) / "base"
        added = subprocess.run(["git", "worktree", "add", "--detach",
                                str(base_tree), args.rev], cwd=ROOT,
                               stdout=subprocess.DEVNULL)
        if added.returncode != 0:
            print(f"ab: cannot check out {args.rev}", file=sys.stderr)
            return 2
        try:
            base_runs, change_runs = [], []
            for i in range(args.pairs):
                seed = args.seed + i
                sides = [("base", base_tree, base_runs),
                         ("change", ROOT, change_runs)]
                if i % 2:
                    sides.reverse()
                for label, tree, runs in sides:
                    print(f"pair {i + 1}/{args.pairs}: {label}, seed {seed}",
                          file=sys.stderr)
                    runs.append(run_once(tree, args.workload, seed,
                                         args.seconds))
        except ABError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 1
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(base_tree)], cwd=ROOT)

    print(f"{args.workload}: {args.pairs} pair(s), --seconds "
          f"{args.seconds:g}, base {args.rev}, change: working tree")
    print(table(base_runs, change_runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
