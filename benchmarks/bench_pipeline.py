"""EXP-PIPE — the staged planning pipeline vs monolithic dispatch.

Two claims, each measured:

1. **Decomposition win-rate** — on multi-component mixed-parity
   instances, per-component planning is never worse than the
   monolithic general solver and strictly better on some instances:
   an even or bipartite component is promoted to its optimal
   algorithm, and a component the general solver lands above its
   lower bound on is solved once more with Saia's baseline, kept only
   if strictly shorter — affordable only because the fallback
   re-solves one small component, never the whole instance.
2. **Cached replanning** — after a single-component change, a cached
   replan re-solves only the affected component.
"""

import random
import time

import pytest

from benchmarks.conftest import emit, emit_line
from repro.analysis.tables import Table
from repro.core.general import general_schedule_compact
from repro.core.problem import MigrationInstance
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import Multigraph
from repro.pipeline import PlanCache, plan
from repro.workloads.generators import multi_component_instance

def heavy_multi_component(num_components, disks=14, items=150, seed=0):
    """Disjoint odd-capacity components sized so the general solver's
    exhaustive small-graph LB2 dominates solve time."""
    rng = random.Random(seed)
    graph = Multigraph()
    caps = {}
    for k in range(num_components):
        nodes = [f"c{k:02d}.d{i:02d}" for i in range(disks)]
        for v in nodes:
            graph.add_node(v)
        for a, b in zip(nodes, nodes[1:]):
            graph.add_edge(a, b)
        for _ in range(items - (disks - 1)):
            u, v = rng.sample(nodes, 2)
            graph.add_edge(u, v)
        for v in nodes:
            caps[v] = rng.choice((1, 3))
    return MigrationInstance(graph, caps)


def test_pipe_decomposition_win_rate(benchmark):
    """≥ 50 mixed-parity multi-component instances: pipeline ``auto``
    is never worse than monolithic general, strictly better somewhere."""
    table = Table(
        "EXP-PIPE: component-wise planning vs monolithic general (50 instances)",
        ["components", "instances", "ties", "wins", "max saved", "mean ratio"],
    )
    wins_total = 0
    for num_components in (2, 4, 6, 8, 10):
        ties = wins = 0
        saved_max = 0
        ratios = []
        for trial in range(10):
            seed = 101 * num_components + trial
            inst = multi_component_instance(
                num_components, disks_per_component=5,
                items_per_component=50, seed=seed,
            )
            pipe = plan(inst, seed=seed)
            mono = general_schedule_compact(lower_instance(inst), seed=seed)
            mono.validate(inst)
            assert pipe.num_rounds <= mono.num_rounds, (
                f"pipeline worse than monolithic on seed {seed}"
            )
            saved = mono.num_rounds - pipe.num_rounds
            if saved > 0:
                wins += 1
                saved_max = max(saved_max, saved)
            else:
                ties += 1
            ratios.append(pipe.num_rounds / mono.num_rounds)
        wins_total += wins
        mean_ratio = sum(ratios) / len(ratios)
        table.add_row(num_components, 10, ties, wins, saved_max, round(mean_ratio, 4))
    emit(table)
    assert wins_total >= 1, "decomposition never improved on 50 instances"

    inst = multi_component_instance(6, disks_per_component=5,
                                    items_per_component=50, seed=42)
    benchmark(plan, inst)


def test_pipe_cached_replan():
    """Single-component change: the replan re-solves 1 of N components."""
    inst1 = heavy_multi_component(6, disks=10, items=60, seed=9)
    # The "fault": rebuild with one component's edge count changed.
    inst2 = heavy_multi_component(6, disks=10, items=60, seed=9)
    nodes0 = [v for v in inst2.graph.nodes if repr(v).startswith("'c00")]
    inst2.graph.add_edge(nodes0[0], nodes0[2])

    cache = PlanCache()
    t0 = time.perf_counter()
    cold = plan(inst1, cache=cache)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = plan(inst2, cache=cache)
    warm_s = time.perf_counter() - t0

    assert cold.components_solved == 6
    assert warm.components_solved == 1
    assert warm.components_cached == 5
    emit_line(
        f"EXP-PIPEc: cached replan after 1-of-6 component change — "
        f"cold plan {cold_s:.2f}s (6 solves), replan {warm_s:.2f}s "
        f"(1 solve, 5 cache hits), {cold_s / warm_s:.1f}x faster"
    )
    assert warm_s < cold_s
