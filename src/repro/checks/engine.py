"""Differential engine-equivalence harness (CSR kernels vs object reference).

The pipeline runs the paper's hot kernels on the flat CSR arrays of
:mod:`repro.graphs.array_backend`: the Theorem 4.1 even-capacity
scheduler, the König bipartite scheduler and the Theorem 5.1 general
solver are registered as ``lowered`` solvers.  Their object-engine
implementations stay as the **reference** (:data:`REFERENCES`), and the
kernels claim to be **byte-identical** to them — not "equally valid",
the *same bytes*: same rounds in the same order, same method labels,
same canonical fingerprints, same lower-bound certificates.

This module proves the claim differentially instead of sampling it:
every instance in the generator corpus (all families: even-capacity,
bipartite, clique, hotspot, regular, mixed multi-component) is planned
twice — under :func:`reference_engine` and as shipped — under multiple
seeds, and the harness requires

* identical round lists (compared element by element, order included),
* identical method labels,
* identical SHA-256 digests of the canonical schedule JSON,
* identical verified lower bounds and certificate JSON
  (:mod:`repro.checks.certify` re-verifies both sides independently).

Wired into ``repro-migrate check --engine``; the cross-``PYTHONHASHSEED``
battery (:mod:`repro.checks.hashseed`) additionally runs the comparison
in fresh interpreters under different hash seeds.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.checks.certify import certificate_to_json
from repro.core.even_optimal import even_optimal_schedule
from repro.core.general import (
    GeneralSolverStats,
    general_schedule,
    general_schedule_compact,
)
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.core.special_cases import bipartite_optimal_schedule
from repro.graphs.array_backend import lower_instance
from repro.pipeline import registry
from repro.pipeline.planner import PlanResult, plan
from repro.pipeline.registry import SolveFn
from repro.workloads.generators import (
    bipartite_instance,
    clique_instance,
    hotspot_instance,
    multi_component_instance,
    random_instance,
    regular_instance,
)


def _reference_even_optimal(
    instance: MigrationInstance, seed: int, stats: Optional[GeneralSolverStats]
) -> MigrationSchedule:
    return even_optimal_schedule(instance)


def _reference_bipartite_optimal(
    instance: MigrationInstance, seed: int, stats: Optional[GeneralSolverStats]
) -> MigrationSchedule:
    return bipartite_optimal_schedule(instance)


def _reference_general(
    instance: MigrationInstance, seed: int, stats: Optional[GeneralSolverStats]
) -> MigrationSchedule:
    return general_schedule(instance, seed=seed, stats=stats)


#: Method name -> the object-engine solver its CSR kernel must match.
REFERENCES: Dict[str, SolveFn] = {
    "even_optimal": _reference_even_optimal,
    "bipartite_optimal": _reference_bipartite_optimal,
    "general": _reference_general,
}


@contextmanager
def reference_engine() -> Iterator[None]:
    """Run the :data:`REFERENCES` solvers in place of the kernels.

    For the duration of the block the registry specs of the kernel
    methods solve on the object instance with their reference solver;
    everything else (selection, caching, certification) is unchanged.
    The swap is in-process only: pool workers re-import the registry
    and would run the kernels, so code under the swap must plan
    serially (the default ``parallel=False``).
    """
    saved = {name: registry.get_solver(name) for name in REFERENCES}
    try:
        for name, solve in REFERENCES.items():
            registry._REGISTRY[name] = replace(saved[name], solve=solve, lowered=False)
        yield
    finally:
        registry._REGISTRY.update(saved)


@dataclass(frozen=True)
class EngineCase:
    """One (instance, method, seed) comparison: kernels vs reference."""

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


def schedule_digest(rounds: Sequence[Sequence[int]]) -> str:
    """SHA-256 of the exact JSON form of a schedule's rounds.

    Deliberately *not* order-normalized: the equivalence contract is
    byte-identity, so the digest must see the rounds exactly as the
    engine emitted them, within-round order included.
    """
    blob = json.dumps([list(rnd) for rnd in rounds], separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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


#: The default differential corpus: every generator family, chosen so
#: each CSR kernel (even_optimal, bipartite_optimal, general) and the
#: object-only solvers all get exercised.  ``random/wide-palette``
#: (an 83-color palette) and ``cycles/odd-unit`` (palette growth and
#: Phase 2) reach the general solver's paths the other entries do not.
#: Kept small enough to run in the CI static-analysis job; the
#: factories are deterministic, so the corpus is too.
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


def compare_with_reference(
    name: str,
    instance: MigrationInstance,
    method: str = "auto",
    seed: int = 0,
) -> EngineCase:
    """Plan ``instance`` with the reference and the kernels; compare.

    Both plans run uncached and certified, so the comparison covers
    rounds, method labels, the canonical schedule digest, and the
    independently verified lower bound / certificate JSON.
    """
    with reference_engine():
        obj = plan(instance, method=method, seed=seed, certify=True)
    arr = plan(instance, method=method, seed=seed, certify=True)
    problems = _diff_results(obj, arr)
    if problems:
        return EngineCase(name=name, ok=False, detail="; ".join(problems))
    return EngineCase(
        name=name,
        ok=True,
        rounds=obj.schedule.num_rounds,
        digest=schedule_digest(obj.schedule.rounds),
    )


def _diff_results(obj: PlanResult, arr: PlanResult) -> List[str]:
    problems: List[str] = []
    o_rounds = obj.schedule.rounds
    a_rounds = arr.schedule.rounds
    if o_rounds != a_rounds:
        problems.append(
            f"rounds differ: object={len(o_rounds)} array={len(a_rounds)}, "
            f"first divergence at {_first_round_divergence(o_rounds, a_rounds)}"
        )
    if obj.schedule.method != arr.schedule.method:
        problems.append(
            f"method labels differ: {obj.schedule.method!r} vs "
            f"{arr.schedule.method!r}"
        )
    o_digest = schedule_digest(obj.schedule.rounds)
    a_digest = schedule_digest(arr.schedule.rounds)
    if o_digest != a_digest:
        problems.append(f"schedule digests differ: {o_digest} vs {a_digest}")
    if obj.lower_bound != arr.lower_bound:
        problems.append(
            f"lower bounds differ: {obj.lower_bound} vs {arr.lower_bound}"
        )
    if obj.certified_optimal != arr.certified_optimal:
        problems.append(
            f"certified_optimal differs: {obj.certified_optimal} vs "
            f"{arr.certified_optimal}"
        )
    o_cert = (
        certificate_to_json(obj.certificate) if obj.certificate is not None else None
    )
    a_cert = (
        certificate_to_json(arr.certificate) if arr.certificate is not None else None
    )
    if o_cert != a_cert:
        problems.append("lower-bound certificates differ")
    if [c.method for c in obj.components] != [c.method for c in arr.components]:
        problems.append("per-component method attribution differs")
    return problems


def _first_round_divergence(
    a: List[List[int]], b: List[List[int]]
) -> str:
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            return f"round {i}"
    return "round count"


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
    from repro.checks.certify import (
        make_certificate,
        verify_certificate,
        verify_optimality_certificate,
    )
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


def check_exact_vs_heuristic(
    corpus: Optional[Sequence[Tuple[str, Callable[[], MigrationInstance]]]] = None,
) -> EngineReport:
    """Run the exact-vs-heuristic battery over the small corpus."""
    cases = [
        compare_exact_vs_heuristic(f"exact-vs-heuristic/{name}", factory())
        for name, factory in (corpus or EXACT_CORPUS)
    ]
    return EngineReport(cases=tuple(cases))


def check_engine_equivalence(
    corpus: Optional[
        Sequence[Tuple[str, str, Callable[[], MigrationInstance]]]
    ] = None,
    seeds: Sequence[int] = (0, 1),
) -> EngineReport:
    """Run the full differential battery over the corpus.

    Every corpus entry is compared under every seed (seeds matter for
    the randomized general solver: kernel and reference must agree on
    every seed's schedule, not just one lucky draw).
    """
    cases: List[EngineCase] = []
    for name, method, factory in corpus or DEFAULT_CORPUS:
        for seed in seeds:
            cases.append(
                compare_with_reference(
                    f"{name}/seed{seed}", factory(), method=method, seed=seed
                )
            )
    return EngineReport(cases=tuple(cases))
