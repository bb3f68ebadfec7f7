"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``simulate`` — run one workload through one or more timing models
  (``--check`` enables runtime invariant checking; ``--json`` emits a
  machine-readable report; ``--parallel`` / ``--results-cache`` route
  through the sharded experiment engine).
* ``sweep``    — run a (models x workloads) cell grid through the
  parallel engine with fault handling and the on-disk result cache
  (``--smoke`` is the fast end-to-end variant used by check.sh).
* ``trace``    — run one (workload, model) cell recording a timeline on
  its production kernel and export it as JSONL, a Chrome/Perfetto
  trace, or a Konata-style text pipeline view.
* ``profile``  — stall-attribution profile: which static instructions
  the stalled cycles are charged to, per category, across models.
* ``cache``    — inspect (``stats``, ``--json`` for machines) or empty
  (``clear``) a result cache directory.
* ``compare``  — race all primary models on one workload.
* ``workloads`` — list the packaged SPEC-like kernels.
* ``models``    — list the available timing models.
* ``figures``   — regenerate a paper figure/table by name.
* ``lint``      — run the static program verifier over workloads
  (``--json`` for machine-readable output; exit code 1 only for
  errors, or for warnings too under ``--strict``).
* ``audit``     — assert the static cycle lower bound against the
  simulated cycles of every model x workload cell (``--smoke`` for the
  fast check.sh variant, ``--slack`` for per-instruction slack/
  ineffectuality profiles).
* ``diffcheck`` — differentially execute all simulators and assert
  identical final architectural state (and per-model cycle-bound
  soundness).

``--parallel`` defaults to ``$REPRO_JOBS`` (``auto`` = one worker per
CPU) and ``--results-cache`` to ``$REPRO_RESULTS_CACHE``; both default
off so serial behaviour is unchanged.

Simulator speed is measured outside the CLI, by ``python3
perfbench/run.py`` (EXPERIMENTS.md, "How to benchmark the simulator
itself").
"""

from __future__ import annotations

import argparse
import sys

from .harness import (ABLATION_FACTORIES, MODEL_FACTORIES, TraceCache,
                      figure6, figure7, figure8, realistic_ooo_comparison,
                      run_model, runahead_comparison, table1)
from .telemetry.export import FORMATS
from .workloads import ALL_WORKLOADS, registry

_FIGURES = {
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "table1": table1,
    "runahead": runahead_comparison,
    "realistic-ooo": realistic_ooo_comparison,
}


def _cmd_workloads(_args) -> int:
    for name, spec in sorted(registry().items()):
        print(f"{name:>8}  [{spec.suite}]  {spec.description}")
    return 0


def _cmd_models(_args) -> int:
    print("primary models:")
    for name in MODEL_FACTORIES:
        print(f"  {name}")
    print("ablations / extensions:")
    for name in ABLATION_FACTORIES:
        print(f"  {name}")
    return 0


def _cmd_simulate(args) -> int:
    if (args.parallel or args.results_cache) and not args.check \
            and not args.slow:
        from .harness import run_matrix
        matrix = run_matrix(args.models, (args.workload,),
                            scale=args.scale, parallel=args.parallel,
                            results_cache=args.results_cache)
        results = [matrix.get(args.workload, m) for m in args.models]
        if args.json:
            _print_simulate_json(args, results)
            return 0
        print(f"{args.workload} (scale {args.scale})\n")
        for stats in results:
            print(stats.summary())
            print()
        return 0
    cache = TraceCache(args.scale)
    trace = cache.trace(args.workload)
    results = [run_model(model, trace, check=args.check, slow=args.slow)
               for model in args.models]
    if args.json:
        _print_simulate_json(args, results,
                             instructions=len(trace))
        return 0
    print(f"{args.workload}: {len(trace)} dynamic instructions "
          f"(scale {args.scale})\n")
    for stats in results:
        print(stats.summary())
        print()
    if args.check:
        print("runtime invariant checks passed for all models")
    return 0


def _print_simulate_json(args, results, instructions=None) -> None:
    import json

    doc = {
        "workload": args.workload,
        "scale": args.scale,
        "results": [stats.to_dict() for stats in results],
    }
    if instructions is not None:
        doc["dynamic_instructions"] = instructions
    print(json.dumps(doc, indent=2, sort_keys=True))


def _render_cell_grid(report, models, scale) -> str:
    """The cycles-per-cell table printed by ``sweep``.

    Failed cells show the exception class in place of a cycle count.
    """
    matrix = report.matrix
    failed = {(f.workload, f.model):
              (f.error or "FAILED").split(":", 1)[0]
              for f in report.failures}
    lines = [f"cycles per (workload, model) cell at scale {scale}",
             f"{'workload':>9}" + "".join(f" {m:>14}" for m in models)]
    rows = sorted({w for w, _ in matrix.results} | {w for w, _ in failed})
    for workload in rows:
        cells = ""
        for m in models:
            if (workload, m) in matrix.results:
                cells += f" {matrix.get(workload, m).cycles:>14}"
            else:
                label = failed.get((workload, m), "FAILED")[:14]
                cells += f" {label:>14}"
        lines.append(f"{workload:>9}{cells}")
    return "\n".join(lines)


def _cmd_sweep(args) -> int:
    from .harness.parallel import sweep

    models = args.models
    workloads = args.workloads
    scale = args.scale
    jobs = args.parallel
    if args.smoke:
        # Fast end-to-end exercise of the parallel path for check.sh.
        models = models or ["inorder", "multipass"]
        workloads = workloads or ["vpr", "parser"]
        scale = scale if scale is not None else 0.05
        jobs = jobs if jobs is not None else 2
    models = models or sorted({**MODEL_FACTORIES, **ABLATION_FACTORIES}
                              if args.ablations else MODEL_FACTORIES)
    workloads = workloads or list(ALL_WORKLOADS)
    scale = scale if scale is not None else 1.0

    report = sweep(models, workloads, scale=scale, jobs=jobs,
                   results_cache=args.results_cache,
                   timeout=args.timeout, telemetry=args.telemetry,
                   audit=args.audit)
    print(_render_cell_grid(report, models, scale))
    print()
    print(report.summary())
    if args.telemetry and report.telemetry:
        print(f"\ntelemetry summaries collected for "
              f"{len(report.telemetry)} cell(s):")
        for (workload, model), summary in sorted(report.telemetry.items()):
            counters = summary.get("counters", {})
            stalls = {k.split(".", 1)[1]: v for k, v in counters.items()
                      if k.startswith("stall_cycles.")}
            worst = max(stalls, key=stalls.get) if stalls else "-"
            print(f"  {workload}/{model}: last cycle "
                  f"{summary.get('last_cycle', 0)}, "
                  f"dominant stall {worst}")
    return 0 if report.ok else 1


def _cmd_cache(args) -> int:
    from .harness.results_cache import resolve_results_cache

    if args.json and args.action != "stats":
        print("repro cache: --json applies only to 'stats'",
              file=sys.stderr)
        return 2
    store = resolve_results_cache(args.results_cache)
    if store is None:
        print("repro cache: no cache directory; pass --results-cache DIR "
              "or set REPRO_RESULTS_CACHE", file=sys.stderr)
        return 2
    if args.action == "stats":
        if args.json:
            import json

            print(json.dumps(store.describe_dict(), indent=2,
                             sort_keys=True))
        else:
            print(store.describe())
    else:
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}")
    return 0


def _cmd_lint(args) -> int:
    from .analysis import diagnostics as dc
    from .analysis.verifier import verify_compiled, verify_program
    from .compiler import CompileOptions, compile_program
    from .workloads import build_workload

    workloads = args.workloads or list(ALL_WORKLOADS)
    unknown = [w for w in workloads if w not in ALL_WORKLOADS]
    if unknown:
        print(f"repro lint: unknown workload(s) {unknown}; "
              f"available: {sorted(ALL_WORKLOADS)}", file=sys.stderr)
        return 2
    n_errors = n_warnings = 0
    doc = {"scale": args.scale, "workloads": {}}
    for name in workloads:
        program = build_workload(name, args.scale, verify=False)
        diags = list(verify_program(program))
        compiled = compile_program(program, CompileOptions())
        diags += [d for d in verify_compiled(compiled)]
        n_errors += len(dc.errors(diags))
        n_warnings += len(dc.warnings(diags))
        if args.json:
            doc["workloads"][name] = {
                "source_instructions": len(program),
                "compiled_instructions": len(compiled),
                "diagnostics": [d.to_dict() for d in diags],
            }
            continue
        for diag in diags:
            print(diag.render(name))
        status = "ok" if not diags else f"{len(diags)} finding(s)"
        print(f"{name:>8}: {len(program)} source / {len(compiled)} "
              f"compiled instructions — {status}")
    if args.json:
        import json

        doc["errors"] = n_errors
        doc["warnings"] = n_warnings
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"\nlint: {n_errors} error(s), {n_warnings} warning(s) "
              f"across {len(workloads)} workload(s)")
    if n_errors:
        return 1
    return 1 if (n_warnings and args.strict) else 0


def _cmd_audit(args) -> int:
    from .analysis.audit import audit_matrix

    models = args.models
    workloads = args.workloads
    scale = args.scale
    if args.smoke:
        # Fast end-to-end exercise of the oracle for check.sh.
        models = models or ["inorder", "multipass"]
        workloads = workloads or ["vpr", "parser"]
        scale = scale if scale is not None else 0.05
    models = models or sorted(MODEL_FACTORIES)
    workloads = workloads or list(ALL_WORKLOADS)
    scale = scale if scale is not None else 0.1
    unknown = [w for w in workloads if w not in ALL_WORKLOADS]
    if unknown:
        print(f"repro audit: unknown workload(s) {unknown}; "
              f"available: {sorted(ALL_WORKLOADS)}", file=sys.stderr)
        return 2

    report = audit_matrix(models, workloads, scale=scale,
                          parallel=args.parallel,
                          results_cache=args.results_cache,
                          slack_workloads=args.slack or ())
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if report.violations:
        return 1
    return 1 if (report.unverified and args.strict) else 0


def _cmd_diffcheck(args) -> int:
    from .analysis.equivalence import DEFAULT_MODELS, check_workload

    workloads = args.workloads or list(ALL_WORKLOADS)
    unknown = [w for w in workloads if w not in ALL_WORKLOADS]
    if unknown:
        print(f"repro diffcheck: unknown workload(s) {unknown}; "
              f"available: {sorted(ALL_WORKLOADS)}", file=sys.stderr)
        return 2
    models = args.models or list(DEFAULT_MODELS)
    failures = 0
    for name in workloads:
        report = check_workload(name, models=models, scale=args.scale)
        print(report.render())
        if not report.ok:
            failures += 1
    print(f"\ndiffcheck: {len(workloads) - failures}/{len(workloads)} "
          f"workload(s) equivalent across {len(models) + 2} executions "
          f"each")
    return 1 if failures else 0


def _cmd_trace(args) -> int:
    from .telemetry import export_trace

    cache = TraceCache(args.scale)
    trace = cache.trace(args.workload)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        written, recorded = export_trace(args.model, trace, args.format, out,
                                         args.max_events)
    finally:
        if out is not sys.stdout:
            out.close()
    if written < recorded:
        which = "first" if args.format == "jsonl" else "last"
        print(f"trace: kept the {which} {written} of {recorded} record(s) "
              f"(--max-events)", file=sys.stderr)
    if args.out:
        print(f"trace: {args.format} written to {args.out}",
              file=sys.stderr)
    return 0


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _cmd_profile(args) -> int:
    from .telemetry import profile_model, render_profile

    models = args.models
    if args.all_models:
        models = list(MODEL_FACTORIES)
    models = models or ["inorder", "multipass"]
    cache = TraceCache(args.scale)
    trace = cache.trace(args.workload)
    results = [profile_model(model, trace) for model in models]
    print(render_profile(results, trace, top=args.top), end="")
    return 0


def _cmd_compare(args) -> int:
    cache = TraceCache(args.scale)
    trace = cache.trace(args.workload)
    base = run_model("inorder", trace)
    print(f"{args.workload}: {len(trace)} dynamic instructions\n")
    print(f"{'model':>20} {'cycles':>10} {'IPC':>6} {'speedup':>8}")
    models = ["inorder", "multipass", "runahead", "twopass",
              "ooo", "ooo-realistic"]
    for model in models:
        stats = base if model == "inorder" else run_model(model, trace)
        print(f"{model:>20} {stats.cycles:>10} {stats.ipc:>6.2f} "
              f"{base.cycles / stats.cycles:>7.2f}x")
    return 0


def _cmd_figures(args) -> int:
    driver = _FIGURES[args.name]
    result = driver(scale=args.scale, parallel=args.parallel,
                    results_cache=args.results_cache)
    print(result.text)
    return 0


def _add_engine_flags(parser) -> None:
    parser.add_argument("--parallel", metavar="N", default=None,
                        help="worker processes ('auto' = one per CPU; "
                             "default: $REPRO_JOBS, else serial)")
    parser.add_argument("--results-cache", metavar="DIR", default=None,
                        help="persistent result cache directory "
                             "(default: $REPRO_RESULTS_CACHE, else off)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads").set_defaults(fn=_cmd_workloads)
    sub.add_parser("models").set_defaults(fn=_cmd_models)

    sim = sub.add_parser("simulate")
    sim.add_argument("workload", choices=ALL_WORKLOADS)
    sim.add_argument("--models", nargs="+", default=["multipass"],
                     choices=sorted({**MODEL_FACTORIES,
                                     **ABLATION_FACTORIES}))
    sim.add_argument("--scale", type=float, default=0.25)
    sim.add_argument("--check", action="store_true",
                     help="enable runtime invariant checking")
    sim.add_argument("--slow", action="store_true",
                     help="run the cycle-by-cycle reference loop (no "
                          "stall fast-forwarding); stats are identical "
                          "to the default fast path")
    sim.add_argument("--json", action="store_true",
                     help="emit a machine-readable JSON report instead "
                          "of the text summary")
    _add_engine_flags(sim)
    sim.set_defaults(fn=_cmd_simulate)

    trc = sub.add_parser("trace")
    trc.add_argument("workload", choices=ALL_WORKLOADS)
    trc.add_argument("--model", default="multipass",
                     choices=sorted({**MODEL_FACTORIES,
                                     **ABLATION_FACTORIES}))
    trc.add_argument("--scale", type=float, default=0.05)
    trc.add_argument("--format", default="jsonl", choices=FORMATS,
                     help="jsonl: one record per line; chrome: "
                          "Perfetto/chrome://tracing JSON; pipeview: "
                          "Konata-style text pipeline diagram")
    trc.add_argument("--out", metavar="FILE", default=None,
                     help="output file (default: stdout)")
    trc.add_argument("--max-events", type=_positive_int, default=None,
                     metavar="N",
                     help="bound the exported record count (jsonl keeps "
                          "the first N, chrome/pipeview the last N)")
    trc.set_defaults(fn=_cmd_trace)

    prof = sub.add_parser("profile")
    prof.add_argument("workload", choices=ALL_WORKLOADS)
    prof.add_argument("--models", nargs="+",
                      choices=sorted({**MODEL_FACTORIES,
                                      **ABLATION_FACTORIES}),
                      help="models to profile (default: inorder "
                           "multipass)")
    prof.add_argument("--all-models", action="store_true",
                      help="profile every primary model")
    prof.add_argument("--top", type=_positive_int, default=10,
                      help="static sites listed per stall category")
    prof.add_argument("--scale", type=float, default=0.25)
    prof.set_defaults(fn=_cmd_profile)

    swp = sub.add_parser("sweep")
    swp.add_argument("--models", nargs="+",
                     choices=sorted({**MODEL_FACTORIES,
                                     **ABLATION_FACTORIES}))
    swp.add_argument("--workloads", nargs="+", choices=ALL_WORKLOADS)
    swp.add_argument("--ablations", action="store_true",
                     help="default the model list to primaries + "
                          "ablations")
    swp.add_argument("--scale", type=float, default=None)
    swp.add_argument("--timeout", type=float, default=None,
                     help="per-cell timeout in seconds")
    swp.add_argument("--smoke", action="store_true",
                     help="fast two-workload, two-model sweep at scale "
                          "0.05 with 2 workers (check.sh target)")
    swp.add_argument("--telemetry", action="store_true",
                     help="collect aggregated telemetry per simulated "
                          "cell (skips result-cache reads)")
    swp.add_argument("--audit", action="store_true",
                     help="post-check every cell against the static "
                          "cycle lower bound; violations become "
                          "AuditViolation failure rows (skips "
                          "result-cache reads)")
    _add_engine_flags(swp)
    swp.set_defaults(fn=_cmd_sweep)

    cache_parser = sub.add_parser("cache")
    cache_parser.add_argument("action", choices=("stats", "clear"))
    cache_parser.add_argument("--json", action="store_true",
                              help="machine-readable stats (with "
                                   "'stats' only)")
    cache_parser.add_argument("--results-cache", metavar="DIR",
                              default=None,
                              help="cache directory (default: "
                                   "$REPRO_RESULTS_CACHE)")
    cache_parser.set_defaults(fn=_cmd_cache)

    lint = sub.add_parser("lint")
    lint.add_argument("workloads", nargs="*", metavar="workload",
                      help="workloads to lint (default: all)")
    lint.add_argument("--scale", type=float, default=0.05)
    lint.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON diagnostics")
    lint.add_argument("--strict", action="store_true",
                      help="exit nonzero on warnings too, not just "
                           "errors")
    lint.set_defaults(fn=_cmd_lint)

    audit = sub.add_parser("audit")
    audit.add_argument("workloads", nargs="*", metavar="workload",
                       help="workloads to audit (default: all)")
    audit.add_argument("--models", nargs="+",
                       choices=sorted({**MODEL_FACTORIES,
                                       **ABLATION_FACTORIES}),
                       help="models to audit (default: the five "
                            "primary models)")
    audit.add_argument("--scale", type=float, default=None,
                       help="workload scale (default 0.1)")
    audit.add_argument("--smoke", action="store_true",
                       help="fast two-workload, two-model audit at "
                            "scale 0.05 (check.sh target)")
    audit.add_argument("--slack", nargs="+", metavar="WORKLOAD",
                       choices=ALL_WORKLOADS,
                       help="also print the per-instruction slack/"
                            "ineffectuality profile of these workloads")
    audit.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")
    audit.add_argument("--strict", action="store_true",
                       help="exit nonzero when cells could not be "
                            "verified (simulation failures), not just "
                            "on bound violations")
    _add_engine_flags(audit)
    audit.set_defaults(fn=_cmd_audit)

    diff = sub.add_parser("diffcheck")
    diff.add_argument("workloads", nargs="*", metavar="workload",
                      help="workloads to check (default: all)")
    diff.add_argument("--models", nargs="+",
                      choices=sorted({**MODEL_FACTORIES,
                                      **ABLATION_FACTORIES}))
    diff.add_argument("--scale", type=float, default=0.05)
    diff.set_defaults(fn=_cmd_diffcheck)

    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("workload", choices=ALL_WORKLOADS)
    cmp_parser.add_argument("--scale", type=float, default=0.25)
    cmp_parser.set_defaults(fn=_cmd_compare)

    figures = sub.add_parser("figures")
    figures.add_argument("name", choices=sorted(_FIGURES))
    figures.add_argument("--scale", type=float, default=1.0)
    _add_engine_flags(figures)
    figures.set_defaults(fn=_cmd_figures)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
