"""repro.exact — exact optimization for small migration instances.

The rest of the repo certifies *lower bounds*; this package certifies
*optima*.  It contains:

* :mod:`repro.exact.subsets` — deterministic connected-subset
  enumeration shared by the exact LB2 witness and the branch-and-bound
  pruner;
* :mod:`repro.exact.search` — a deterministic DFS branch-and-bound
  edge-coloring solver over the compact CSR arrays, supporting the
  makespan, bounded-color and group-completion objectives and emitting
  tamper-evident :class:`~repro.exact.search.OptimalityCertificate`\\ s;
* :mod:`repro.exact.gap` — the true-approximation-gap harness behind
  ``repro-migrate gap`` and ``BENCH_EXACT.json``.

Everything here is stdlib-only and deterministic across processes and
``PYTHONHASHSEED`` values.
"""

from repro.exact.search import (
    DEFAULT_NODE_BUDGET,
    EXACT_BB_METHOD,
    EXACT_SEARCH_EDGE_LIMIT,
    EXACT_SEARCH_NODE_LIMIT,
    ExactBudgetExceeded,
    ExactResult,
    InfeasibleObjectiveError,
    OptimalityCertificate,
    exact_bb_schedule,
    instance_digest,
    solve_exact,
    verify_optimality,
)
from repro.exact.subsets import connected_subsets

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "EXACT_BB_METHOD",
    "EXACT_SEARCH_EDGE_LIMIT",
    "EXACT_SEARCH_NODE_LIMIT",
    "ExactBudgetExceeded",
    "ExactResult",
    "InfeasibleObjectiveError",
    "OptimalityCertificate",
    "connected_subsets",
    "exact_bb_schedule",
    "instance_digest",
    "solve_exact",
    "verify_optimality",
]
