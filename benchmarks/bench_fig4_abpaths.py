"""EXP-F4 — Figure 4: ab-path flips in the capacitated recolorer.

Figure 4 illustrates the alternating-path flip (Definition 5.2) that
frees a missing color so an uncolored edge can be colored (Lemma 5.1).
To make the flips do real work we color ``d``-regular bipartite
multigraphs with the *optimal* palette ``q = d`` (König's theorem says
it exists, but first-fit alone reliably gets stuck near the end): the
table reports how many stuck edges the flip engine rescues — the
algorithm achieves the optimal palette iff nothing stays stuck.
"""

import random

import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.core.problem import MigrationInstance
from repro.core.recolor import ArrayColoringState
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import Multigraph


def regular_bipartite_instance(n: int, d: int, seed: int) -> MigrationInstance:
    """A d-regular bipartite multigraph (union of d random matchings)."""
    rng = random.Random(seed)
    g = Multigraph(
        nodes=[("L", i) for i in range(n)] + [("R", i) for i in range(n)]
    )
    for _ in range(d):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            g.add_edge(("L", i), ("R", perm[i]))
    return MigrationInstance(g, {v: 1 for v in g.nodes})


def coloring_state(inst: MigrationInstance, q: int, seed: int) -> ArrayColoringState:
    """An empty q-color state over ``inst``'s CSR graph."""
    ci = lower_instance(inst)
    return ArrayColoringState(ci.graph, ci.capacities, q, seed=seed)


def flip_stats(inst: MigrationInstance, q: int, seed: int):
    """Color everything with q colors; count direct/rescued/stuck."""
    state = coloring_state(inst, q, seed)
    graph = state.graph
    order = list(range(graph.num_edges))
    random.Random(seed).shuffle(order)
    direct = rescued = stuck = 0
    for e in order:
        c = state.common_missing_color(graph.edge_u[e], graph.edge_v[e])
        if c is not None:
            state.assign(e, c)
            direct += 1
        elif state.try_color_edge(e):
            rescued += 1
        else:
            stuck += 1
    state.validate()
    return direct, rescued, stuck


def test_fig4_flip_rescue_rates(benchmark):
    table = Table(
        "EXP-F4 (Figure 4): ab-path flips on d-regular bipartite at the "
        "optimal palette q = d",
        ["side n", "degree d", "edges", "direct", "flip-rescued", "stuck", "optimal palette"],
    )
    for n, d in ((8, 6), (16, 10), (32, 16), (48, 24)):
        inst = regular_bipartite_instance(n, d, seed=n)
        direct, rescued, stuck = flip_stats(inst, d, seed=n)
        table.add_row(n, d, n * d, direct, rescued, stuck, str(stuck == 0))
        assert stuck == 0, "flip engine failed to reach the König optimum"
        assert rescued > 0, "workload too easy: flips never exercised"
    emit(table)

    inst = regular_bipartite_instance(16, 10, seed=16)
    benchmark(flip_stats, inst, 10, 16)


def test_bench_single_flip(benchmark):
    inst = regular_bipartite_instance(32, 16, seed=5)
    state = coloring_state(inst, 16, seed=5)
    for e in range(state.graph.num_edges):
        state.try_color_edge(e)
    saturated = [
        (v, c)
        for v in range(state.graph.num_nodes)
        for c in range(state.q)
        if state.is_saturated(v, c)
    ]
    rng = random.Random(1)

    def kernel():
        v, c = rng.choice(saturated)
        targets = state.missing_colors(v)
        if targets:
            state.attempt_flip(v, c, targets[0])

    benchmark(kernel)
    state.validate()
