"""True approximation-gap harness over the exact solver.

Theorem 5.1 guarantees the general scheduler uses at most roughly
``2·⌈Δ'/2⌉ + 1`` rounds — a *worst-case* multiplicative bound.  What
the paper cannot report (and PR 6's EXPERIMENTS only estimates against
lower bounds) is the **true** gap: heuristic rounds divided by the
*provably optimal* rounds.  With :mod:`repro.exact.search` in the tree,
that ratio is computable exactly on small instances, and this harness
sweeps it across every generator family at the exact solver's caps
(≤ 16 items, ≤ 14 disks).

For each instance the harness:

* certifies the lower bound (``max(Δ', Γ')`` via
  :mod:`repro.checks.certify`, witnesses re-verified);
* solves to proven optimality and **verifies the optimality
  certificate** — every certificate in the sweep is re-established via
  :func:`repro.checks.certify.verify_optimality_certificate`, never
  trusted;
* runs each comparison heuristic and records ``rounds / optimal``.

Everything is deterministic: the corpus is seeded, the exact search is
RNG- and clock-free, and the metrics payload is canonical JSON — two
runs (under any ``PYTHONHASHSEED``) produce identical bytes, which the
CI ``exact-smoke`` job checks with a literal ``cmp``.  Results accrete
into ``BENCH_EXACT.json`` keyed by commit, through the one writer of
the BENCH files (:func:`repro.analysis.bench.append_bench_entry`).

Run via ``repro-migrate gap`` (``--quick`` for the CI subset,
``--report`` for a canonical JSON artifact, ``--bench`` to append the
BENCH entry).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.bench import append_bench_entry
from repro.core.problem import MigrationInstance
from repro.exact.search import EXACT_SEARCH_EDGE_LIMIT, solve_exact
from repro.workloads.generators import (
    bipartite_instance,
    clique_instance,
    hotspot_instance,
    random_instance,
    regular_instance,
)

BENCH_SCHEMA = "bench-exact/v1"
DEFAULT_BENCH_FILE = "BENCH_EXACT.json"

#: Heuristics whose true approximation ratio the sweep records.  The
#: general solver is the Theorem 5.1 subject; the baselines give the
#: ratio context (how much of the gap is closed by being clever).
HEURISTIC_METHODS: Tuple[str, ...] = ("general", "saia", "greedy", "homogeneous")

#: Instance seeds per family — full sweep and the CI ``--quick`` subset.
FULL_SEEDS: Tuple[int, ...] = (0, 1, 2, 3, 4)
QUICK_SEEDS: Tuple[int, ...] = (0, 1)


@dataclass(frozen=True)
class GapFamily:
    """One generator family, parameterized by an instance seed."""

    name: str
    factory: Callable[[int], MigrationInstance]


def _clique(seed: int) -> MigrationInstance:
    # The clique generator is parameter-deterministic (no RNG); vary the
    # shape with the seed instead: K_3 with 4–5 parallel items per pair,
    # or K_4 with 2 (all ≤ 16 items).
    shapes = ((3, 4), (3, 5), (4, 2))
    disks, per_pair = shapes[seed % len(shapes)]
    return clique_instance(disks, per_pair, capacity=1)


def _class2(seed: int) -> MigrationInstance:
    """Class-2 graphs under unit capacities: the optimum strictly
    exceeds ``max(Δ', Γ')``, so the proof is ``exhausted-frontier`` —
    this family keeps the sweep honest about the replay-verified path.
    """
    if seed % 5 == 0:
        # K5: Δ' = 4 but χ'(K5) = 5 (odd-order complete graph).
        moves = [
            (f"d{i}", f"d{j}") for i in range(5) for j in range(i + 1, 5)
        ]
    elif seed % 5 == 1:
        # Petersen graph: Δ' = 3 but χ' = 4 (the classic snark-adjacent
        # counterexample).
        outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
        inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
        spokes = [(f"o{i}", f"i{i}") for i in range(5)]
        moves = outer + inner + spokes
    else:
        # Odd cycle C_{2k+1}: Δ' = 2 but χ' = 3.
        length = (7, 9, 11)[seed % 5 - 2]
        moves = [(f"d{i}", f"d{(i + 1) % length}") for i in range(length)]
    nodes = sorted({v for pair in moves for v in pair})
    return MigrationInstance.from_moves(moves, {v: 1 for v in nodes})


#: The sweep corpus: seven families, all inside the exact caps.
FAMILIES: Tuple[GapFamily, ...] = (
    GapFamily(
        "random-mixed",
        lambda s: random_instance(
            6, 14, capacities={1: 0.4, 2: 0.4, 3: 0.2}, seed=100 + s
        ),
    ),
    GapFamily(
        "random-unit",
        lambda s: random_instance(7, 15, uniform_capacity=1, seed=200 + s),
    ),
    GapFamily(
        "random-even",
        lambda s: random_instance(6, 16, uniform_capacity=2, seed=300 + s),
    ),
    GapFamily(
        "bipartite",
        lambda s: bipartite_instance(
            4, 3, 14, old_capacity=1, new_capacity=2, seed=400 + s
        ),
    ),
    GapFamily("clique", _clique),
    GapFamily("class2", _class2),
    GapFamily("hotspot", lambda s: hotspot_instance(7, 2, 15, seed=500 + s)),
    GapFamily(
        "regular", lambda s: regular_instance(8, 4, capacity=2, seed=600 + s)
    ),
)


def sweep_instance(instance: MigrationInstance) -> Dict[str, Any]:
    """Exact-solve one instance and measure every heuristic against it.

    The optimality certificate is verified (not trusted) before any
    ratio is derived from it.

    Raises:
        CertificationError: if the certificate fails verification.
        ValueError: if the instance exceeds the exact solver's caps.
    """
    from repro.checks.certify import (
        make_certificate,
        verify_certificate,
        verify_optimality_certificate,
    )
    from repro.pipeline.planner import plan

    lb = verify_certificate(instance, make_certificate(instance))
    res = solve_exact(instance)
    verify_optimality_certificate(
        instance, res.objective, res.schedule, res.certificate
    )
    heuristics: Dict[str, Any] = {}
    for method in HEURISTIC_METHODS:
        rounds = plan(instance, method=method, seed=0).schedule.num_rounds
        heuristics[method] = {
            "rounds": rounds,
            "ratio": round(rounds / res.value, 4) if res.value else 1.0,
        }
    return {
        "disks": instance.num_disks,
        "items": instance.num_items,
        "lower_bound": lb,
        "optimal": res.value,
        "proof": res.certificate.proof,
        "explored": res.explored,
        "heuristics": heuristics,
    }


def collect_gap_metrics(quick: bool = False) -> Dict[str, Any]:
    """One BENCH_EXACT.json metrics payload (deterministic bytes)."""
    seeds = QUICK_SEEDS if quick else FULL_SEEDS
    families: Dict[str, Any] = {}
    for family in FAMILIES:
        cases: List[Dict[str, Any]] = []
        for seed in seeds:
            case = sweep_instance(family.factory(seed))
            case["seed"] = seed
            cases.append(case)
        summary: Dict[str, Any] = {
            "instances": len(cases),
            "optimal_equals_lb": sum(
                1 for c in cases if c["optimal"] == c["lower_bound"]
            ),
        }
        for method in HEURISTIC_METHODS:
            ratios = [c["heuristics"][method]["ratio"] for c in cases]
            summary[method] = {
                "max_ratio": max(ratios),
                "mean_ratio": round(sum(ratios) / len(ratios), 4),
                "optimal_hits": sum(
                    1
                    for c in cases
                    if c["heuristics"][method]["rounds"] == c["optimal"]
                ),
            }
        families[family.name] = {"summary": summary, "cases": cases}
    return {
        "mode": "quick" if quick else "full",
        "edge_limit": EXACT_SEARCH_EDGE_LIMIT,
        "families": families,
    }


def canonical_json(metrics: Dict[str, Any]) -> str:
    """The byte-comparable form of a metrics payload."""
    return json.dumps(metrics, indent=2, sort_keys=True) + "\n"


def render_gap_table(metrics: Dict[str, Any]) -> str:
    """Human summary: one row per family."""
    from repro.analysis.tables import Table

    table = Table(
        "true approximation gap (heuristic rounds / proven optimum)",
        ["family", "n", "opt=LB", "general max", "general mean", "worst baseline"],
    )
    for name in sorted(metrics["families"]):
        summary = metrics["families"][name]["summary"]
        worst = max(
            summary[m]["max_ratio"] for m in HEURISTIC_METHODS if m != "general"
        )
        table.add_row(
            name,
            summary["instances"],
            f'{summary["optimal_equals_lb"]}/{summary["instances"]}',
            f'{summary["general"]["max_ratio"]:.4f}',
            f'{summary["general"]["mean_ratio"]:.4f}',
            f"{worst:.4f}",
        )
    return table.render()


def run_gap(
    quick: bool = False,
    report_path: Optional[str] = None,
    bench_path: Optional[str] = None,
) -> Tuple[Dict[str, Any], int]:
    """The ``repro-migrate gap`` work: sweep, report, bench.

    Returns ``(metrics, exit_code)``; a sweep that completes has
    already verified every optimality certificate, so the exit code is
    0 unless a heuristic beat a "proven" optimum — which would mean the
    proof machinery is broken and must fail loudly.
    """
    metrics = collect_gap_metrics(quick=quick)
    failures = 0
    for name, family in metrics["families"].items():
        for case in family["cases"]:
            for method, row in case["heuristics"].items():
                if row["rounds"] < case["optimal"]:
                    print(
                        f"FAIL {name}/seed{case['seed']}: {method} used "
                        f"{row['rounds']} rounds, below the proven optimum "
                        f"{case['optimal']}"
                    )
                    failures += 1
    if report_path:
        pathlib.Path(report_path).write_text(canonical_json(metrics))
    if bench_path:
        append_bench_entry(pathlib.Path(bench_path), BENCH_SCHEMA, metrics)
    return metrics, (1 if failures else 0)
