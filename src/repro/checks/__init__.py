"""repro.checks — independent correctness tooling for the migration stack.

Three pillars, one theme: *don't trust the solver, check it*.

* :mod:`repro.checks.lints` — a determinism linter (custom AST pass)
  that flags hash-order-dependent iteration, unseeded randomness, and
  wall-clock reads in schedule-producing modules.
* :mod:`repro.checks.flow` — a whole-program effect and concurrency
  analyzer over the project call graph (:mod:`repro.checks.callgraph`):
  proves solver-registry determinism contracts transitively, checks
  ``core``/``graphs`` clock-freedom from ``repro.plan(...)``, and flags
  asyncio misuse (blocking calls on the loop, orphaned tasks,
  unawaited coroutines) and ``ProcessPoolExecutor`` boundary hazards.
* :mod:`repro.checks.certify` — an independent schedule verifier and
  machine-checkable LB1/LB2 lower-bound certificates.
* :mod:`repro.checks.hashseed` — a cross-``PYTHONHASHSEED`` subprocess
  harness proving schedules, executor runs, and the flow report itself
  are process-independent.
* :mod:`repro.checks.engine` — the engine corpora the frozen plan
  digests pin, and the exact-vs-heuristic battery sandwiching the
  Theorem 5.1 solver between a verified lower bound and a verified
  optimum.

All of them are wired into ``repro-migrate check`` and the CI
``static-analysis`` job.
"""

from repro.checks.astwalk import Finding, parse_suppressions
from repro.checks.certify import (
    CertificationError,
    CertificationReport,
    LB1Witness,
    LB2Witness,
    LowerBoundCertificate,
    certificate_from_json,
    certificate_to_json,
    certify,
    make_certificate,
    verify_certificate,
    verify_optimality_certificate,
    verify_schedule,
)
from repro.checks.callgraph import CallGraph, build_call_graph
from repro.checks.engine import (
    EngineCase,
    EngineReport,
    check_exact_vs_heuristic,
    compare_exact_vs_heuristic,
)
from repro.checks.flow import (
    FLOW_RULES,
    FlowConfig,
    FlowFinding,
    FlowReport,
    analyze_tree,
    load_baseline,
)
from repro.checks.hashseed import (
    DeterminismError,
    DeterminismReport,
    check_determinism,
)
from repro.checks.lints import RULES, LintConfig, LintReport, lint_tree
from repro.checks.typegate import TypeGateReport, run_type_gate

__all__ = [
    "CallGraph",
    "FLOW_RULES",
    "FlowConfig",
    "FlowFinding",
    "FlowReport",
    "analyze_tree",
    "build_call_graph",
    "load_baseline",
    "CertificationError",
    "CertificationReport",
    "DeterminismError",
    "DeterminismReport",
    "EngineCase",
    "EngineReport",
    "Finding",
    "LB1Witness",
    "LB2Witness",
    "LintConfig",
    "LintReport",
    "LowerBoundCertificate",
    "RULES",
    "TypeGateReport",
    "certificate_from_json",
    "certificate_to_json",
    "certify",
    "check_determinism",
    "check_exact_vs_heuristic",
    "compare_exact_vs_heuristic",
    "lint_tree",
    "make_certificate",
    "parse_suppressions",
    "run_type_gate",
    "verify_certificate",
    "verify_optimality_certificate",
    "verify_schedule",
]
