"""EXP-WORKLOADS — incremental replanning vs full replans.

The delta planner (:func:`repro.plan_delta`) exists so that a running
tiered system does not pay a from-scratch plan for every temperature
tick.  This bench measures that saving honestly, on the family where a
full plan is genuinely expensive: many small odd-capacity components
(general solver + exhaustive LB2 per component), 30k edges total.  A
1% delta confined to a handful of components should leave everything
else untouched — the patched plan reuses the untouched components from
the prior plan and only re-works the dirty ones.

Three claims are re-asserted on every run, so the speedup numbers can
never drift away from the correctness contract:

* **byte-identity** — ``plan_delta`` rounds equal a full ``plan`` of
  the patched instance against the shared cache, digest for digest;
* **verified lower bound** — every patched plan carries a lower-bound
  certificate that re-verifies from the instance alone, and its bound
  equals the full replan's;
* **patch certificate** — the (prior, delta, result) binding
  re-verifies bit for bit.

The headline case targets **>= 10x** on a 1% delta; the sweep rows
(0.5% / 2% / 5%) show how the advantage decays as the delta spreads
across more components.  Each run appends one commit-keyed entry to
``BENCH_WORKLOADS.json`` at the repo root (a clean commit refreshes
its own entry; see ``benchmarks.conftest.append_bench_entry``).  Run
standalone with ``python -m benchmarks.bench_workloads``; ``--quick``
runs a small smoke case only and requires the delta path to win.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from benchmarks.conftest import append_bench_entry, emit
from repro.analysis.tables import Table
from repro.checks.certify import (
    rounds_digest,
    verify_certificate,
    verify_patch_certificate,
)
from repro.core.delta import InstanceDelta, apply_delta
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from repro.pipeline.cache import PlanCache
from repro.pipeline.delta import plan_delta
from repro.pipeline.planner import plan

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_WORKLOADS.json"
BENCH_SCHEMA = "bench-workloads/v1"

#: base seed for instances, deltas and plans alike.
SEED = 7


@dataclass(frozen=True)
class BenchCase:
    name: str
    num_components: int
    component_nodes: int
    component_edges: int
    #: fraction of all edges edited (split evenly remove/retarget/add).
    delta_fraction: float
    #: components the delta is confined to.
    dirty_components: int
    #: minimum acceptable delta-over-full speedup.
    target: float
    quick: bool = False


CASES: Tuple[BenchCase, ...] = (
    # The headline: 30k edges, odd capacities (general solver +
    # exhaustive LB2 on every 10-node component), 1% delta confined to
    # 4 of the 100 components.
    BenchCase(
        name="delta-30k-1pct",
        num_components=100,
        component_nodes=10,
        component_edges=300,
        delta_fraction=0.01,
        dirty_components=4,
        target=10.0,
    ),
    BenchCase(
        name="delta-30k-halfpct",
        num_components=100,
        component_nodes=10,
        component_edges=300,
        delta_fraction=0.005,
        dirty_components=2,
        target=10.0,
    ),
    BenchCase(
        name="delta-30k-2pct",
        num_components=100,
        component_nodes=10,
        component_edges=300,
        delta_fraction=0.02,
        dirty_components=8,
        target=5.0,
    ),
    BenchCase(
        name="delta-30k-5pct",
        num_components=100,
        component_nodes=10,
        component_edges=300,
        delta_fraction=0.05,
        dirty_components=20,
        target=2.0,
    ),
    BenchCase(
        name="delta-3k-1pct-smoke",
        num_components=20,
        component_nodes=10,
        component_edges=150,
        delta_fraction=0.01,
        dirty_components=2,
        target=1.5,
        quick=True,
    ),
)


def build_instance(case: BenchCase, seed: int = SEED) -> MigrationInstance:
    """Many small odd-capacity components: the full-plan-expensive family.

    Each component is a spanning path plus random extra edges over
    ``component_nodes`` disks with capacities drawn from ``{1, 3}`` —
    odd, so the general solver runs, and small enough (<= 14 nodes)
    that certification takes the exhaustive LB2 branch.
    """
    rng = random.Random(seed)
    graph = Multigraph()
    capacities: Dict[str, int] = {}
    for k in range(case.num_components):
        names = [f"c{k:03d}.d{i:02d}" for i in range(case.component_nodes)]
        for name in names:
            graph.add_node(name)
            capacities[name] = rng.choice((1, 3))
        for i in range(case.component_nodes - 1):
            graph.add_edge(names[i], names[i + 1])
        for _ in range(case.component_edges - (case.component_nodes - 1)):
            u = rng.randrange(case.component_nodes)
            v = rng.randrange(case.component_nodes)
            while v == u:
                v = rng.randrange(case.component_nodes)
            graph.add_edge(names[u], names[v])
    return MigrationInstance(graph, capacities)


def confined_delta(
    instance: MigrationInstance, case: BenchCase, seed: int = SEED
) -> InstanceDelta:
    """A ``delta_fraction`` edit confined to ``dirty_components``.

    The edit budget splits evenly across removes, retargets and adds.
    Removes and retargets consume *disjoint* edges from a shuffled
    pool, so a retarget never races a remove for the last parallel
    edge of a pair.
    """
    rng = random.Random(seed + 1)
    step = case.num_components // case.dirty_components
    dirty = [f"c{k:03d}" for k in range(0, case.num_components, step)][
        : case.dirty_components
    ]
    dirty_set = set(dirty)
    comp_nodes: Dict[str, List[str]] = {c: [] for c in dirty}
    for node in instance.graph.nodes:
        prefix = node.split(".")[0]
        if prefix in dirty_set:
            comp_nodes[prefix].append(node)
    for nodes in comp_nodes.values():
        nodes.sort()
    pool: List[Tuple[str, str]] = []
    for _eid, u, v in instance.graph.edges():
        if u.split(".")[0] in dirty_set:
            pool.append((u, v))
    rng.shuffle(pool)
    n_each = int(instance.num_items * case.delta_fraction) // 3
    if len(pool) < 2 * n_each:
        raise ValueError("dirty components too small for the requested delta")
    removes = [pool.pop() for _ in range(n_each)]
    retargets: List[Tuple[str, str, str]] = []
    for _ in range(n_each):
        u, v = pool.pop()
        candidates = [n for n in comp_nodes[u.split(".")[0]] if n not in (u, v)]
        retargets.append((u, v, candidates[rng.randrange(len(candidates))]))
    adds: List[Tuple[str, str]] = []
    for _ in range(n_each):
        nodes = comp_nodes[dirty[rng.randrange(len(dirty))]]
        i = rng.randrange(len(nodes))
        j = rng.randrange(len(nodes))
        while j == i:
            j = rng.randrange(len(nodes))
        adds.append((nodes[i], nodes[j]))
    return InstanceDelta(
        add_moves=tuple(adds),
        remove_moves=tuple(removes),
        retarget_moves=tuple(retargets),
    )


def run_case(case: BenchCase) -> Dict[str, object]:
    """Time one (prior plan, delta) pair both ways and verify all claims.

    ``t_full`` is a from-scratch certified plan of the patched instance
    (cold cache — what a system without the delta API would pay);
    ``t_delta`` is ``plan_delta`` against the prior plan's warm cache.
    """
    instance = build_instance(case)
    delta = confined_delta(instance, case)
    cache = PlanCache(max_entries=8192)
    prior = plan(instance, "auto", SEED, cache=cache, certify=True)

    start = time.perf_counter()
    result = plan_delta(prior, delta, cache=cache, certify=True)
    delta_seconds = time.perf_counter() - start

    patched = apply_delta(instance, delta)
    start = time.perf_counter()
    cold = plan(patched, "auto", SEED, cache=PlanCache(max_entries=8192), certify=True)
    full_seconds = time.perf_counter() - start

    # Byte-identity contract: a full plan sharing the delta run's cache
    # reproduces the patched schedule digest for digest.
    shared = plan(patched, "auto", SEED, cache=cache, certify=True)
    identical = rounds_digest(shared.schedule.rounds) == rounds_digest(
        result.schedule.rounds
    )

    # Lower-bound certificate: present, re-verifiable, equal to the
    # cold replan's bound.
    assert result.certificate is not None and cold.certificate is not None
    verified_bound = verify_certificate(patched, result.certificate)
    bounds_equal = verified_bound == cold.certificate.bound

    # Patch certificate: (prior, delta, result) binding re-verifies.
    assert result.patch_certificate is not None
    verify_patch_certificate(
        result.patch_certificate,
        prior.schedule.rounds,
        delta.canonical_payload(),
        result.schedule.rounds,
    )

    return {
        "edges": instance.num_items,
        "delta_changes": delta.num_changes,
        "dirty_components": case.dirty_components,
        "rounds": result.schedule.num_rounds,
        "lower_bound": verified_bound,
        "bounds_equal": bounds_equal,
        "components_reused": result.components_reused,
        "components_patched": result.components_patched,
        "components_resolved": result.components_resolved,
        "full_seconds": round(full_seconds, 3),
        "delta_seconds": round(delta_seconds, 3),
        "speedup": round(full_seconds / delta_seconds, 2)
        if delta_seconds > 0
        else 0.0,
        "target": case.target,
        "identical": identical,
    }


def collect_metrics(quick: bool = False) -> Dict[str, object]:
    """One BENCH_WORKLOADS.json metrics payload."""
    cases: Dict[str, object] = {}
    for case in CASES:
        if quick != case.quick:
            continue
        cases[case.name] = run_case(case)
    return {"mode": "quick" if quick else "full", "cases": cases}


def _render_table(metrics: Dict[str, object]) -> Table:
    table = Table(
        "EXP-WORKLOADS: plan_delta vs full certified replan",
        ["case", "edges", "Δ", "reused/patched/resolved",
         "full (s)", "delta (s)", "speedup"],
    )
    for name, row in metrics["cases"].items():  # type: ignore[union-attr]
        table.add_row(
            name, row["edges"], row["delta_changes"],
            f'{row["components_reused"]}/{row["components_patched"]}'
            f'/{row["components_resolved"]}',
            row["full_seconds"], row["delta_seconds"], f'{row["speedup"]}x',
        )
    return table


def _check(metrics: Dict[str, object]) -> int:
    """0 when every case is identical, certified and meets its target."""
    failures = 0
    for name, row in metrics["cases"].items():  # type: ignore[union-attr]
        if not row["identical"]:
            print(f"FAIL {name}: patched schedule diverged from full replan")
            failures += 1
        if not row["bounds_equal"]:
            print(f"FAIL {name}: verified bound differs from full replan's")
            failures += 1
        if row["speedup"] < row["target"]:
            print(
                f"FAIL {name}: speedup {row['speedup']}x below the "
                f"{row['target']}x target"
            )
            failures += 1
    return failures


def test_workloads_smoke(benchmark):
    metrics = collect_metrics(quick=True)
    emit(_render_table(metrics))
    assert _check(metrics) == 0

    case = CASES[-1]
    instance = build_instance(case)
    delta = confined_delta(instance, case)
    cache = PlanCache(max_entries=8192)
    prior = plan(instance, "auto", SEED, cache=cache, certify=True)
    benchmark(lambda: plan_delta(prior, delta, cache=cache, certify=True))


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run the small smoke case only",
    )
    args = parser.parse_args(argv)
    metrics = collect_metrics(quick=args.quick)
    print(_render_table(metrics).render())
    entry = append_bench_entry(BENCH_FILE, BENCH_SCHEMA, metrics)
    print(f"appended to {BENCH_FILE} (commit {entry['commit']})")
    return 1 if _check(metrics) else 0


if __name__ == "__main__":
    sys.exit(main())
