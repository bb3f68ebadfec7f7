"""Static-analysis and verification layer.

The layer is built around a shared CFG (:mod:`~repro.analysis.cfg`) and
a generic worklist dataflow solver (:mod:`~repro.analysis.dataflow`)
whose instances — reaching definitions, liveness, must-defined — power
both the compiler's def-use graph and the lint rules.  On top of it,
four tools guard the reproduction's correctness contracts:

* :mod:`~repro.analysis.verifier` — dataflow lint over sealed programs
  (use-before-def, dead writes, unreachable code, no-exit loops,
  label/branch integrity, memory-image alignment, RESTART legality and
  redundancy, issue-group legality);
* :mod:`~repro.analysis.passes_check` — per-stage verification of the
  compiler pass pipeline with def-use-chain diffing;
* :mod:`~repro.analysis.equivalence` — differential execution of every
  simulator with runtime invariant checking
  (:mod:`~repro.analysis.invariants`);
* :mod:`~repro.analysis.bounds` / :mod:`~repro.analysis.audit` — the
  static critical-path estimator and the cycle-bound oracle asserting
  ``static_lower_bound <= simulated_cycles`` for every model x workload
  cell.  Import them from their modules: the package does not load them,
  so the seal-time verifier that every workload build imports stays
  light.

CLI entry points: ``python -m repro lint``, ``python -m repro
diffcheck`` and ``python -m repro audit``.
"""

from .cfg import CFG, BasicBlock, Loop, build_cfg, loops, no_exit_loops
from .dataflow import (DataflowProblem, DataflowSolution, DefUseChains,
                       LiveVariables, MustDefined, ReachingDefinitions,
                       solve)
from .diagnostics import (Diagnostic, DiagnosticSpec, InvariantError,
                          Severity, VerifierError, errors, registry,
                          render_all, warnings)
from .invariants import ArchReplay
from .verifier import (VerifyOptions, assert_valid, verify_compiled,
                       verify_program)

__all__ = [
    "ArchReplay",
    "BasicBlock",
    "CFG",
    "DataflowProblem",
    "DataflowSolution",
    "DefUseChains",
    "Diagnostic",
    "DiagnosticSpec",
    "InvariantError",
    "LiveVariables",
    "Loop",
    "MustDefined",
    "ReachingDefinitions",
    "Severity",
    "VerifierError",
    "VerifyOptions",
    "assert_valid",
    "build_cfg",
    "errors",
    "loops",
    "no_exit_loops",
    "registry",
    "render_all",
    "solve",
    "verify_compiled",
    "verify_program",
    "warnings",
]
