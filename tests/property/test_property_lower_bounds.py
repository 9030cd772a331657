"""Property tests: the LB2 kernels against slow references.

* The exhaustive kernel (:func:`lb2_exact_witness`) must return the
  value and the witness of a brute-force maximization — ``subset_bound``
  over every connected subset, in the recursive enumeration's order,
  keeping the first strict maximum.
* The heuristic kernel (:func:`lb2_witness`) must return the value and
  the witness of the quadratic peel below, which picks each victim by a
  ``min`` over all remaining nodes.

The graphs have parallel edges, unit and mixed capacities, isolated
nodes and several components, and their nodes are inserted in an order
that differs from ``repr`` order.  Regular graphs with one capacity
make every peel ratio tie, so ``repr`` picks every victim; a dense
core with pendant nodes makes the tie-break decide the witness itself.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lower_bounds import lb2_exact_witness, lb2_witness, subset_bound
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph, Node
from tests.exact.test_subsets import reference_connected_subsets


def _instance(
    order: List[int], edges: List[Tuple[int, int]], caps: List[int]
) -> MigrationInstance:
    """Nodes ``d0, d1, …`` inserted in ``order``; ``edges`` index them."""
    names = [f"d{i}" for i in range(len(order))]
    graph = Multigraph(nodes=[names[i] for i in order])
    for u, v in edges:
        graph.add_edge(names[u], names[v])
    return MigrationInstance(graph, {names[i]: caps[i] for i in range(len(order))})


@st.composite
def multigraph_instances(draw, max_nodes: int, max_edges: int) -> MigrationInstance:
    n = draw(st.integers(2, max_nodes))
    order = draw(st.permutations(range(n)))
    # Few distinct pairs, many repeats: parallel edges and hot pairs.
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda t: t[0] != t[1]
        ),
        min_size=1,
        max_size=max(1, max_edges // 3),
    ))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=max_edges))
    unit = draw(st.booleans())
    caps = [1] * n if unit else draw(
        st.lists(st.integers(1, 4), min_size=n, max_size=n)
    )
    return _instance(list(order), edges, caps)


@st.composite
def regular_instances(draw, max_half: int) -> MigrationInstance:
    """A union of random perfect matchings, every node at one capacity."""
    n = 2 * draw(st.integers(1, max_half))
    degree = draw(st.integers(1, 6))
    edges: List[Tuple[int, int]] = []
    for _ in range(degree):
        perm = draw(st.permutations(range(n)))
        edges.extend((perm[k], perm[k + 1]) for k in range(0, n, 2))
    order = draw(st.permutations(range(n)))
    capacity = draw(st.integers(1, 3))
    return _instance(list(order), edges, [capacity] * n)


@st.composite
def cored_instances(draw) -> MigrationInstance:
    """A dense core plus pendant nodes, every node at one capacity.

    The pendants' peel ratios tie, and the bound can first reach its
    maximum with only some pendants peeled, so the tie-break decides
    which pendants the witness keeps."""
    core = draw(st.integers(2, 5))
    pendants = draw(st.integers(1, 10))
    n = core + pendants
    edges: List[Tuple[int, int]] = []
    for u, v in combinations(range(core), 2):
        edges.extend([(u, v)] * draw(st.integers(0, 4)))
    for p in range(core, n):
        edges.append((p, draw(st.integers(0, core - 1))))
    order = draw(st.permutations(range(n)))
    capacity = draw(st.integers(1, 2))
    return _instance(list(order), edges, [capacity] * n)


def reference_exact(instance: MigrationInstance) -> Tuple[List[Node], int]:
    """``subset_bound`` over every connected subset, first strict max."""
    nodes = list(instance.graph.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adjacency: List[List[int]] = [[] for _ in nodes]
    for _eid, u, v in instance.graph.edges():
        adjacency[index[u]].append(index[v])
        adjacency[index[v]].append(index[u])
    best = 0
    best_subset: List[Node] = []
    for combo in reference_connected_subsets(adjacency):
        subset = [nodes[i] for i in combo]
        value = subset_bound(instance, subset)
        if value > best:
            best, best_subset = value, subset
    return best_subset, best


def reference_heuristic(instance: MigrationInstance) -> Tuple[List[Node], int]:
    """The heuristic's candidate family, evaluated by full rescans."""
    graph = instance.graph
    best = 0
    best_subset: List[Node] = []

    pair_edges: Dict[Tuple[Node, Node], int] = {}
    for _eid, u, v in graph.edges():
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        pair_edges[key] = pair_edges.get(key, 0) + 1
    for (u, v), m in pair_edges.items():
        half = (instance.capacity(u) + instance.capacity(v)) // 2
        if half > 0:
            value = math.ceil(m / half)
            if value > best:
                best = value
                best_subset = [u, v]

    for component in graph.connected_components():
        if len(component) < 2:
            continue
        value = subset_bound(instance, component)
        if value > best:
            best = value
            best_subset = sorted(component, key=repr)
        peel_subset, peel_value = reference_peel(instance, component)
        if peel_value > best:
            best = peel_value
            best_subset = peel_subset
    return best_subset, best


def reference_peel(
    instance: MigrationInstance, component: Set[Node]
) -> Tuple[List[Node], int]:
    """Best LB2 prefix along a capacity-aware peeling, each victim a
    ``min`` over every remaining node."""
    graph = instance.graph
    nodes = set(component)
    internal_degree: Dict[Node, int] = {v: 0 for v in nodes}
    edges_inside = 0
    for _eid, u, v in graph.edges():
        if u in nodes and v in nodes:
            internal_degree[u] += 1
            internal_degree[v] += 1
            edges_inside += 1
    capacity_sum = sum(instance.capacity(v) for v in nodes)

    best = 0
    best_subset: List[Node] = []
    while len(nodes) >= 2 and edges_inside > 0:
        half = capacity_sum // 2
        if half > 0:
            value = math.ceil(edges_inside / half)
            if value > best:
                best = value
                best_subset = sorted(nodes, key=repr)
        victim = min(
            nodes, key=lambda v: (internal_degree[v] / instance.capacity(v), repr(v))
        )
        nodes.discard(victim)
        capacity_sum -= instance.capacity(victim)
        for eid in graph.incident_edges(victim):
            other = graph.other_endpoint(eid, victim)
            if other in nodes:
                internal_degree[other] -= 1
                edges_inside -= 1
        internal_degree.pop(victim, None)
    return best_subset, best


class TestExhaustiveKernel:
    @given(multigraph_instances(max_nodes=9, max_edges=40))
    @settings(deadline=None, max_examples=150)
    def test_matches_brute_force(self, instance):
        assert lb2_exact_witness(instance) == reference_exact(instance)

    @given(multigraph_instances(max_nodes=7, max_edges=24))
    @settings(deadline=None, max_examples=60)
    def test_connected_subsets_lose_nothing(self, instance):
        nodes = list(instance.graph.nodes)
        every = max(
            subset_bound(instance, combo)
            for size in range(2, len(nodes) + 1)
            for combo in combinations(nodes, size)
        )
        assert lb2_exact_witness(instance)[1] == every

    @given(regular_instances(max_half=5))
    @settings(deadline=None, max_examples=40)
    def test_regular_graphs(self, instance):
        assert lb2_exact_witness(instance) == reference_exact(instance)


class TestHeuristicKernel:
    @given(multigraph_instances(max_nodes=24, max_edges=90))
    @settings(deadline=None, max_examples=150)
    def test_matches_quadratic_peel(self, instance):
        assert lb2_witness(instance) == reference_heuristic(instance)

    @given(regular_instances(max_half=20))
    @settings(deadline=None, max_examples=80)
    def test_regular_graphs_where_every_ratio_ties(self, instance):
        assert lb2_witness(instance) == reference_heuristic(instance)

    @given(cored_instances())
    @settings(deadline=None, max_examples=150)
    def test_pendant_ties_decide_the_witness(self, instance):
        assert lb2_witness(instance) == reference_heuristic(instance)
