"""The two lower bounds of Section III, with machine-checkable witnesses.

* ``LB1 = Δ' = max_v ceil(d_v / c_v)`` — a disk can move at most
  ``c_v`` items per round.
* ``LB2 = Γ' = max_{S ⊆ V} ceil(|E(S)| / floor(Σ_{v in S} c_v / 2))``
  — a round schedules at most ``floor(Σ_{v∈S} c_v / 2)`` edges inside
  ``S`` (Lemma 3.1).

``LB2`` maximizes over exponentially many subsets.  :func:`lb2_exact`
enumerates subsets and is intended for small graphs
(``n <= EXACT_LB2_NODE_LIMIT``);
:func:`lb2` evaluates a polynomial family of candidate subsets (node
pairs, components, capacity-aware peeling orders) and is a certified
lower bound — every candidate's value is a true bound, we simply may
not find the maximizing ``S``.  The benchmark ``bench_lb_bounds``
measures how often the heuristic matches the exact value.

Every bound comes in a witness-producing form (:func:`lb1_witness`,
:func:`lb2_witness`, :func:`lb2_exact_witness`): the returned node /
subset is a self-contained proof of the bound that
:mod:`repro.checks.certify` re-verifies without trusting this module.

Both LB2 witnesses and :func:`lower_bound`'s value are computed once
per instance and kept in ``MigrationInstance.memo``: the solve stage's
fallback check reads the value the general solver computed, and the
certifier reads the first computation.  A
memo hit still applies :func:`lb2_exact`'s node limit, and witnesses
come back as fresh lists that callers may sort or keep.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Node

#: Node-count cutoff below which LB2 is computed by exhaustive subset
#: enumeration (up to ``2^n`` connected subsets at ``O(n)`` each, never
#: an edge scan — at 14 nodes that is ~16k subsets, tens of
#: milliseconds; each extra node doubles it).  The single source of
#: truth: :func:`lb2_exact`, :func:`lower_bound` and
#: :mod:`repro.checks.certify` all key off it, so "exact when small"
#: means the same thing everywhere.
EXACT_LB2_NODE_LIMIT = 14


def lb1(instance: MigrationInstance) -> int:
    """``Δ' = max_v ceil(d_v / c_v)``."""
    return instance.delta_prime()


def lb1_witness(instance: MigrationInstance) -> Tuple[Optional[Node], int]:
    """``(argmax_v ceil(d_v / c_v), Δ')``; ``(None, 0)`` if no nodes.

    Ties are broken toward the node with the smallest ``repr`` so the
    witness is reproducible across processes.
    """
    best_node: Optional[Node] = None
    best_value = 0
    for v in instance.graph.nodes:
        value = instance.constrained_degree(v)
        if value > best_value:
            best_node, best_value = v, value
        elif value == best_value and value > 0 and repr(v) < repr(best_node):
            best_node = v
    if best_value == 0:
        return (None, 0)
    return (best_node, best_value)


def subset_bound(instance: MigrationInstance, subset: Iterable[Node]) -> int:
    """The LB2 term for one subset ``S`` (0 if S has no internal edges).

    ``ceil(|E(S)| / floor(Σ c_v / 2))``; if the capacity sum inside S
    is < 2 no transfer can happen inside S at all, so any internal edge
    would make the instance infeasible — we return a harmless 0 for
    empty E(S) and raise otherwise.
    """
    nodes = set(subset)
    edges_inside = sum(
        1 for _eid, u, v in instance.graph.edges() if u in nodes and v in nodes
    )
    if edges_inside == 0:
        return 0
    half_capacity = sum(instance.capacity(v) for v in nodes) // 2
    if half_capacity == 0:
        raise ValueError(f"subset {nodes!r} has internal edges but capacity sum < 2")
    return math.ceil(edges_inside / half_capacity)


def lb2_exact(instance: MigrationInstance, max_nodes: int = EXACT_LB2_NODE_LIMIT) -> int:
    """Exact ``Γ'`` by exhaustive subset enumeration.

    Raises:
        ValueError: if the graph has more than ``max_nodes`` nodes
            (the enumeration is exponential).
    """
    return lb2_exact_witness(instance, max_nodes=max_nodes)[1]


def lb2_exact_witness(
    instance: MigrationInstance, max_nodes: int = EXACT_LB2_NODE_LIMIT
) -> Tuple[List[Node], int]:
    """Exact ``Γ'`` plus a maximizing subset (empty list when Γ' = 0).

    Enumerates *connected* subsets via the shared
    :func:`repro.exact.subsets.connected_subsets` iterator (also used by
    the branch-and-bound pruner), which carries each subset's ``|E(S)|``
    and ``Σ c_v``.  That restriction is lossless:
    a disconnected maximizer splits into components whose half-capacities
    sum to at most the union's (floor superadditivity) and the mediant
    inequality then bounds the union's density term by its densest
    component — see :mod:`repro.exact.subsets`.  The witness is the
    first subset, in enumeration order, that attains the maximum; its
    nodes come in graph insertion order.

    Raises:
        ValueError: if the graph has more than ``max_nodes`` nodes
            (the enumeration is exponential).
    """
    # Imported lazily: repro.exact sits above repro.core in the layer
    # order, and its search module imports this one.
    from repro.exact.subsets import connected_subsets, mask_members, multiplicity_table

    graph = instance.graph
    nodes = graph.nodes
    if len(nodes) > max_nodes:
        raise ValueError(
            f"exact LB2 is exponential; graph has {len(nodes)} > {max_nodes} nodes"
        )
    known: Optional[Tuple[List[Node], int]] = instance.memo.get("lb2_exact")
    if known is not None:
        return list(known[0]), known[1]
    index = {v: i for i, v in enumerate(nodes)}
    table = multiplicity_table(
        len(nodes), ((index[u], index[v]) for _eid, u, v in graph.edges())
    )
    capacities = [instance.capacity(v) for v in nodes]
    best = 0
    best_mask = 0
    for mask, inside, capacity_sum in connected_subsets(table, capacities):
        # ceil(inside / half) > best  <=>  inside > best * half; every
        # subset has >= 2 nodes of capacity >= 1, so half >= 1.
        half = capacity_sum // 2
        if inside > best * half:
            best = math.ceil(inside / half)
            best_mask = mask
    witness = [nodes[i] for i in mask_members(best_mask)]
    instance.memo["lb2_exact"] = (witness, best)
    return list(witness), best


def lb2(instance: MigrationInstance) -> int:
    """Heuristic (but certified) ``Γ'`` over candidate subsets.

    See :func:`lb2_witness` for the candidate family.
    """
    return lb2_witness(instance)[1]


def lb2_witness(instance: MigrationInstance) -> Tuple[List[Node], int]:
    """Heuristic ``Γ'`` plus the best witness subset found.

    Candidates evaluated:

    * every node pair with at least one edge (captures multiplicity
      hot-spots, the common binding case);
    * the whole node set and every connected component;
    * every prefix of a capacity-aware peeling order per component:
      repeatedly delete the node with the smallest
      ``internal_degree / c_v`` ratio, evaluating the bound after each
      deletion (generalizes the classic densest-subgraph peeling).

    Returns ``(subset, value)``; the subset is empty iff the value is 0.
    The subset is a *witness*: ``subset_bound(instance, subset)`` equals
    the returned value, so downstream certification never has to trust
    the maximization itself.
    """
    known: Optional[Tuple[List[Node], int]] = instance.memo.get("lb2")
    if known is not None:
        return list(known[0]), known[1]
    graph = instance.graph
    nodes = graph.nodes
    index = {v: i for i, v in enumerate(nodes)}
    reprs = [repr(v) for v in nodes]
    capacities = [instance.capacity(v) for v in nodes]
    best = 0
    best_subset: List[Node] = []

    # Node pairs with edges, in first-occurrence order; the same pass
    # gives each node its neighbours and their multiplicities.
    pair_edges: Dict[Tuple[int, int], int] = {}
    for _eid, u, v in graph.edges():
        i, j = index[u], index[v]
        key = (i, j) if i < j else (j, i)
        pair_edges[key] = pair_edges.get(key, 0) + 1
    neighbours: List[List[int]] = [[] for _ in nodes]
    multiplicities: List[List[int]] = [[] for _ in nodes]
    for (i, j), m in pair_edges.items():
        neighbours[i].append(j)
        multiplicities[i].append(m)
        neighbours[j].append(i)
        multiplicities[j].append(m)
        # Capacities are >= 1, so half >= 1; ceil(m / half) > best
        # iff m > best * half.
        half = (capacities[i] + capacities[j]) // 2
        if m > best * half:
            best = math.ceil(m / half)
            pair = (i, j) if reprs[i] <= reprs[j] else (j, i)
            best_subset = [nodes[k] for k in pair]
    del pair_edges  # freed before the peel builds its heap

    # Components and their peeling prefixes.  Every edge at a component
    # node lies inside the component, so degrees are internal degrees.
    degree = [graph.degree(v) for v in nodes]
    for members in graph.connected_components():
        if len(members) < 2:
            continue
        component = sorted(index[v] for v in members)
        edges_inside = sum(degree[i] for i in component) // 2
        value = math.ceil(
            edges_inside / (sum(capacities[i] for i in component) // 2)
        )
        if value > best:
            best = value
            best_subset = sorted((nodes[i] for i in component), key=repr)
        peel_subset, peel_value = _peel(
            component, edges_inside, degree, neighbours, multiplicities,
            capacities, reprs,
        )
        if peel_value > best:
            best = peel_value
            best_subset = [nodes[i] for i in peel_subset]
    instance.memo["lb2"] = (best_subset, best)
    return list(best_subset), best


def _peel(
    component: Sequence[int],
    edges_inside: int,
    degree: List[int],
    neighbours: Sequence[Sequence[int]],
    multiplicities: Sequence[Sequence[int]],
    capacities: Sequence[int],
    reprs: Sequence[str],
) -> Tuple[List[int], int]:
    """Best LB2 prefix along a capacity-aware peeling of ``component``.

    Each step removes the node with the smallest
    ``(internal_degree / c_v, repr(v))``, the node index breaking any
    remaining tie.  A lazy-deletion heap holds one entry per degree a
    node has had; a node's degree only falls, so its newest entry is
    its smallest and pops first, and every later pop of it is skipped.
    The component's entries of ``degree`` are used up: a removed node's
    entry becomes -1.

    Returns ``(subset, value)`` for the best prefix encountered, the
    subset as node indices sorted by ``repr``.
    """
    heap = [(degree[i] / capacities[i], reprs[i], i) for i in component]
    heapq.heapify(heap)
    capacity_sum = sum(capacities[i] for i in component)
    remaining = len(component)
    removed: List[int] = []
    best = 0
    best_removed = 0
    while remaining >= 2 and edges_inside > 0:
        # At least two nodes of capacity >= 1 remain, so half >= 1.
        half = capacity_sum // 2
        if edges_inside > best * half:
            best = math.ceil(edges_inside / half)
            best_removed = len(removed)
        # Remove the node contributing least density per unit capacity.
        victim = heapq.heappop(heap)[2]
        while degree[victim] < 0:
            victim = heapq.heappop(heap)[2]
        degree[victim] = -1
        removed.append(victim)
        remaining -= 1
        capacity_sum -= capacities[victim]
        for w, m in zip(neighbours[victim], multiplicities[victim]):
            if degree[w] >= 0:
                degree[w] -= m
                edges_inside -= m
                heapq.heappush(heap, (degree[w] / capacities[w], reprs[w], w))
    if best == 0:
        return [], 0
    kept = removed[best_removed:] + [i for i in component if degree[i] >= 0]
    return sorted(kept, key=lambda i: reprs[i]), best


def lower_bound(instance: MigrationInstance, exact_small: bool = True) -> int:
    """``max(LB1, LB2)`` — the certified lower bound used everywhere.

    Args:
        exact_small: when the graph has at most
            :data:`EXACT_LB2_NODE_LIMIT` nodes, compute LB2 exactly
            instead of heuristically.

    The value is memoized per instance and per LB2 variant, so a
    repeated call reaches no LB2 code.
    """
    exact = exact_small and instance.graph.num_nodes <= EXACT_LB2_NODE_LIMIT
    key = "lower_bound.exact" if exact else "lower_bound.heuristic"
    known: Optional[int] = instance.memo.get(key)
    if known is not None:
        return known
    if exact:
        gamma = lb2_exact(instance, max_nodes=EXACT_LB2_NODE_LIMIT)
    else:
        gamma = lb2(instance)
    bound = instance.memo[key] = max(lb1(instance), gamma)
    return bound
