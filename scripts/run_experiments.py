#!/usr/bin/env python
"""Regenerate every table and figure and write a results report.

Usage:
    python scripts/run_experiments.py [--scale S] [--out results.md]
                                      [--parallel N]
                                      [--results-cache DIR]

This is the free-standing equivalent of ``pytest benchmarks/`` for users
who want the regenerated artefacts without the benchmark machinery.
``--parallel`` fans each figure's cell grid over a worker pool and
``--results-cache`` persists per-cell stats so a re-run (same sources,
same scale) regenerates every artefact without a single simulation;
both default to the $REPRO_JOBS / $REPRO_RESULTS_CACHE environment
knobs (off when unset) and are bit-identical to the serial path.
"""

import argparse
import sys
import time

from repro.harness import (TraceCache, figure6, figure7, figure8,
                           realistic_ooo_comparison, runahead_comparison,
                           table1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale (1.0 = calibrated size)")
    parser.add_argument("--out", default=None,
                        help="also write the report to this file")
    parser.add_argument("--skip-fig7", action="store_true",
                        help="skip the (slow) three-hierarchy sweep")
    parser.add_argument("--parallel", metavar="N", default=None,
                        help="worker processes ('auto' = one per CPU; "
                             "default: $REPRO_JOBS, else serial)")
    parser.add_argument("--results-cache", metavar="DIR", default=None,
                        help="persistent result cache directory "
                             "(default: $REPRO_RESULTS_CACHE, else off)")
    args = parser.parse_args()

    cache = TraceCache(args.scale)
    engine = {"parallel": args.parallel,
              "results_cache": args.results_cache}
    sections = []
    jobs = [
        ("Table 1 — structure power ratios",
         lambda: table1(args.scale, cache=cache, **engine)),
        ("Figure 6 — normalized execution cycles",
         lambda: figure6(args.scale, cache=cache, **engine)),
        ("Figure 8 — regrouping / restart ablations",
         lambda: figure8(args.scale, cache=cache, **engine)),
        ("Section 5.4 — Dundas-Mudge runahead",
         lambda: runahead_comparison(args.scale, cache=cache, **engine)),
        ("Section 5.2 — realistic out-of-order",
         lambda: realistic_ooo_comparison(args.scale, cache=cache,
                                          **engine)),
    ]
    if not args.skip_fig7:
        jobs.append(("Figure 7 — cache hierarchies",
                     lambda: figure7(args.scale, cache=cache, **engine)))

    for title, job in jobs:
        start = time.time()
        result = job()
        banner = f"== {title} " + "=" * max(0, 66 - len(title))
        block = f"{banner}\n{result.text}\n[{time.time() - start:.1f}s]\n"
        print(block)
        sections.append(block)

    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(sections))
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
