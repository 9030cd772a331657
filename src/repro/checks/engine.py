"""The engine corpora and the exact-vs-heuristic battery.

The pipeline runs the paper's three polynomial schedulers — the
Theorem 4.1 even-capacity scheduler, the König bipartite scheduler and
the Theorem 5.1 general solver — as kernels over the flat CSR arrays of
:mod:`repro.graphs.array_backend`.  This module holds the corpora that
pin them:

* :data:`DEFAULT_CORPUS` covers every generator family and every
  kernel.  ``tests/data/plan_digests.json`` pins each entry's plan at
  seeds 0 and 1 — method, rounds, :func:`schedule_digest`, lower bound
  and ``certified_optimal`` — and ``tests/data/lb_certificates.json``
  pins its lower-bound certificate.
* :data:`EXACT_CORPUS` holds small instances with provable optima.
  :func:`check_exact_vs_heuristic` sandwiches the Theorem 5.1 solver
  between a verified lower bound and a verified optimum on each.

Wired into ``repro-migrate check --engine``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.checks.certify import (
    make_certificate,
    rounds_digest,
    verify_certificate,
    verify_optimality_certificate,
)
from repro.core.general import general_schedule_compact
from repro.core.problem import MigrationInstance
from repro.graphs.array_backend import lower_instance
from repro.workloads.generators import (
    bipartite_instance,
    clique_instance,
    hotspot_instance,
    multi_component_instance,
    random_instance,
    regular_instance,
)


@dataclass(frozen=True)
class EngineCase:
    """One battery case: its verdict, rounds and digest."""

    name: str
    ok: bool
    rounds: int = 0
    digest: str = ""
    detail: str = ""


@dataclass(frozen=True)
class EngineReport:
    cases: Tuple[EngineCase, ...]

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def render(self) -> str:
        lines = []
        for case in self.cases:
            status = "ok" if case.ok else "MISMATCH"
            suffix = (
                f" ({case.detail})"
                if case.detail and not case.ok
                else f" rounds={case.rounds} sha256={case.digest[:12]}"
                if case.ok
                else ""
            )
            lines.append(f"  {case.name}: {status}{suffix}")
        return "\n".join(lines)


#: SHA-256 of the exact JSON form of a schedule's rounds, deliberately
#: *not* order-normalized: the digest sees the rounds exactly as
#: emitted, within-round order included.
schedule_digest = rounds_digest


def _odd_unit_cycles() -> MigrationInstance:
    """Two unit-capacity odd cycles, every pair repeated.

    The 5-cycle repeats each pair 4 times, the 7-cycle 3 times.  At
    seeds 0 and 1 each cycle stalls Phase 1 once: the palette grows by
    one color and one edge goes to Phase 2.
    """
    moves: List[Tuple[str, str]] = []
    for length, repeats in ((5, 4), (7, 3)):
        disks = [f"cyc{length}.d{i}" for i in range(length)]
        for i in range(length):
            moves += [(disks[i], disks[(i + 1) % length])] * repeats
    return MigrationInstance.from_moves(moves, {v: 1 for v, _w in moves})


#: The engine corpus: every generator family, chosen so each CSR kernel
#: (even_optimal, bipartite_optimal, general) and the object-graph
#: solvers all get exercised.  ``random/wide-palette`` (an 83-color
#: palette) and ``cycles/odd-unit`` (palette growth and Phase 2) reach
#: the general solver's paths the other entries do not.  The factories
#: are deterministic, so the corpus is too; the frozen digests pin
#: every entry at seeds 0 and 1.
DEFAULT_CORPUS: Tuple[Tuple[str, str, Callable[[], MigrationInstance]], ...] = (
    (
        "random/mixed-caps",
        "auto",
        lambda: random_instance(14, 80, capacities={1: 0.3, 2: 0.4, 4: 0.3}, seed=11),
    ),
    (
        "random/all-even",
        "auto",
        lambda: random_instance(12, 70, uniform_capacity=2, seed=5),
    ),
    (
        "random/general-forced",
        "general",
        lambda: random_instance(10, 60, capacities={1: 0.5, 3: 0.5}, seed=7),
    ),
    (
        "bipartite/disk-addition",
        "auto",
        lambda: bipartite_instance(6, 4, 50, old_capacity=1, new_capacity=3, seed=3),
    ),
    (
        "clique/figure-2",
        "auto",
        lambda: clique_instance(5, 4, capacity=1),
    ),
    (
        "hotspot/hub-drain",
        "auto",
        lambda: hotspot_instance(12, 2, 60, seed=9),
    ),
    (
        "regular/config-model",
        "auto",
        lambda: regular_instance(16, 6, capacity=2, seed=13),
    ),
    (
        "multi-component/mixed-parity",
        "auto",
        lambda: multi_component_instance(3, disks_per_component=6,
                                         items_per_component=25, seed=17),
    ),
    (
        "random/wide-palette",
        "auto",
        lambda: random_instance(20, 700, capacities={1: 0.6, 2: 0.2, 3: 0.2}, seed=19),
    ),
    (
        "cycles/odd-unit",
        "auto",
        _odd_unit_cycles,
    ),
)


# ----------------------------------------------------------------------
# exact-vs-heuristic battery
# ----------------------------------------------------------------------

#: Small-instance corpus for the exact battery — every family again,
#: sized inside the exact solver's caps (≤ 16 items, ≤ 14 disks) so
#: each case has a *provable* optimum to compare the heuristic against.
EXACT_CORPUS: Tuple[Tuple[str, Callable[[], MigrationInstance]], ...] = (
    (
        "random/mixed-caps",
        lambda: random_instance(6, 14, capacities={1: 0.4, 2: 0.4, 3: 0.2}, seed=11),
    ),
    (
        "random/unit-caps",
        lambda: random_instance(7, 15, uniform_capacity=1, seed=5),
    ),
    (
        "random/all-even",
        lambda: random_instance(6, 16, uniform_capacity=2, seed=23),
    ),
    (
        "bipartite/disk-addition",
        lambda: bipartite_instance(4, 3, 14, old_capacity=1, new_capacity=2, seed=3),
    ),
    (
        "clique/figure-2",
        lambda: clique_instance(4, 2, capacity=1),
    ),
    (
        "hotspot/hub-drain",
        lambda: hotspot_instance(7, 2, 15, seed=9),
    ),
    (
        "regular/config-model",
        lambda: regular_instance(8, 4, capacity=2, seed=13),
    ),
)


def compare_exact_vs_heuristic(name: str, instance: MigrationInstance) -> EngineCase:
    """Sandwich the Theorem 5.1 heuristic between proof obligations.

    The exact branch-and-bound must satisfy ``verified LB ≤ exact ≤
    heuristic`` — the left inequality against the independently
    re-verified lower-bound certificate, the right against the general
    solver it uses as incumbent — and its optimality certificate must
    survive :func:`repro.checks.certify.verify_optimality_certificate`.
    The reported digest covers both schedules, so a regression in
    either solver's bytes shows up even when the round counts agree.
    """
    from repro.exact.search import solve_exact

    res = solve_exact(instance)
    heuristic = general_schedule_compact(lower_instance(instance), seed=0)
    heuristic.validate(instance)
    lb = verify_certificate(instance, make_certificate(instance))
    problems: List[str] = []
    if res.value > heuristic.num_rounds:
        problems.append(
            f"exact {res.value} rounds exceeds heuristic {heuristic.num_rounds}"
        )
    if res.value < lb:
        problems.append(f"exact {res.value} rounds below verified LB {lb}")
    try:
        verify_optimality_certificate(
            instance, res.objective, res.schedule, res.certificate
        )
    except Exception as exc:  # CertificationError — report, don't abort the battery
        problems.append(f"optimality certificate rejected: {exc}")
    if problems:
        return EngineCase(name=name, ok=False, detail="; ".join(problems))
    digest = hashlib.sha256(
        (
            schedule_digest(res.schedule.rounds)
            + schedule_digest(heuristic.rounds)
        ).encode("utf-8")
    ).hexdigest()
    return EngineCase(name=name, ok=True, rounds=res.value, digest=digest)


def check_exact_vs_heuristic() -> EngineReport:
    """Run the exact-vs-heuristic battery over :data:`EXACT_CORPUS`."""
    cases = [
        compare_exact_vs_heuristic(f"exact-vs-heuristic/{name}", factory())
        for name, factory in EXACT_CORPUS
    ]
    return EngineReport(cases=tuple(cases))
