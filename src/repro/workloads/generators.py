"""Parametric transfer-graph generators.

Each generator returns a ready-to-schedule
:class:`~repro.core.problem.MigrationInstance`.  They cover the graph
families the paper's analysis distinguishes:

* :func:`random_instance` — Erdős–Rényi-style multigraphs with a
  capacity mix (the generic sweep workhorse);
* :func:`clique_instance` — ``K_n`` with ``M`` parallel edges per pair
  (Figure 2 is ``n = 3``);
* :func:`bipartite_instance` — old-disks → new-disks redistribution
  shapes (Coffman et al.'s optimally-solvable class);
* :func:`hotspot_instance` — a few overloaded disks shedding load,
  producing high multiplicity where LB2 (Γ') binds;
* :func:`regular_instance` — near-``d``-regular graphs where LB1 is
  tight everywhere at once;
* :func:`multi_component_instance` — several disjoint sub-instances of
  mixed parity glued into one instance (the planning pipeline's
  decomposition showcase).

Capacity mixes are expressed as ``{c_value: fraction}``; see
:func:`capacity_mix`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph, Node


def capacity_mix(
    nodes: Sequence[Node], mix: Mapping[int, float], rng: random.Random
) -> Dict[Node, int]:
    """Assign each node a capacity drawn from a ``{c: fraction}`` mix.

    Fractions are normalized; e.g. ``{1: 0.5, 4: 0.5}`` models a fleet
    of half legacy, half modern devices.
    """
    values = list(mix)
    weights = [mix[c] for c in values]
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError(f"invalid capacity mix {dict(mix)!r}")
    return {v: rng.choices(values, weights=weights, k=1)[0] for v in nodes}


def random_instance(
    num_disks: int,
    num_items: int,
    capacities: Mapping[int, float] = (),
    seed: int = 0,
    uniform_capacity: Optional[int] = None,
) -> MigrationInstance:
    """Uniformly random source/target pairs (a random multigraph).

    Args:
        capacities: capacity mix, e.g. ``{1: 0.3, 2: 0.4, 4: 0.3}``.
        uniform_capacity: shortcut for a homogeneous fleet; overrides
            ``capacities``.
    """
    if num_disks < 2:
        raise ValueError("need at least 2 disks")
    rng = random.Random(seed)
    nodes = [f"disk{i}" for i in range(num_disks)]
    graph = Multigraph(nodes=nodes)
    for _ in range(num_items):
        u, v = rng.sample(nodes, 2)
        graph.add_edge(u, v)
    caps = (
        {v: uniform_capacity for v in nodes}
        if uniform_capacity is not None
        else capacity_mix(nodes, dict(capacities) or {1: 0.25, 2: 0.5, 4: 0.25}, rng)
    )
    return MigrationInstance(graph, caps)


def clique_instance(
    num_disks: int, items_per_pair: int, capacity: int = 1
) -> MigrationInstance:
    """``K_n`` with ``M`` parallel items per pair (Figure 2: ``n=3``)."""
    if num_disks < 2:
        raise ValueError("need at least 2 disks")
    nodes = [f"disk{i}" for i in range(num_disks)]
    graph = Multigraph(nodes=nodes)
    for i in range(num_disks):
        for j in range(i + 1, num_disks):
            for _ in range(items_per_pair):
                graph.add_edge(nodes[i], nodes[j])
    return MigrationInstance(graph, {v: capacity for v in nodes})


def bipartite_instance(
    num_old: int,
    num_new: int,
    num_items: int,
    old_capacity: int = 1,
    new_capacity: int = 4,
    seed: int = 0,
) -> MigrationInstance:
    """Old disks shedding items to new disks (disk-addition shape).

    New hardware typically sustains more parallel transfers, hence the
    asymmetric default capacities.
    """
    rng = random.Random(seed)
    old = [f"old{i}" for i in range(num_old)]
    new = [f"new{i}" for i in range(num_new)]
    graph = Multigraph(nodes=old + new)
    for _ in range(num_items):
        graph.add_edge(rng.choice(old), rng.choice(new))
    caps = {v: old_capacity for v in old}
    caps.update({v: new_capacity for v in new})
    return MigrationInstance(graph, caps)


def hotspot_instance(
    num_disks: int,
    num_hot: int,
    num_items: int,
    hot_capacity: int = 2,
    cold_capacity: int = 2,
    seed: int = 0,
) -> MigrationInstance:
    """A few hot disks drain to the rest — high multiplicity at the hubs.

    This family makes the density bound LB2 (Γ') compete with LB1.
    """
    if not 1 <= num_hot < num_disks:
        raise ValueError("need 1 <= num_hot < num_disks")
    rng = random.Random(seed)
    nodes = [f"disk{i}" for i in range(num_disks)]
    hot, cold = nodes[:num_hot], nodes[num_hot:]
    graph = Multigraph(nodes=nodes)
    for _ in range(num_items):
        graph.add_edge(rng.choice(hot), rng.choice(cold))
    caps = {v: hot_capacity for v in hot}
    caps.update({v: cold_capacity for v in cold})
    return MigrationInstance(graph, caps)


def multi_component_instance(
    num_components: int,
    disks_per_component: int = 8,
    items_per_component: int = 40,
    seed: int = 0,
) -> MigrationInstance:
    """Disjoint mixed-parity sub-instances glued into one instance.

    Component ``k`` is a connected random multigraph on its own disks
    (``cN.diskM`` names keep components disjoint and canonically
    ordered).  Capacity parities alternate by component — all-even,
    bipartite-with-odd-capacities, mixed — so a monolithic ``auto``
    dispatch sees a mixed instance and falls back to the general
    approximation, while per-component selection can still run the
    optimal even-capacity / bipartite algorithms where they apply.
    """
    if num_components < 1:
        raise ValueError("need at least 1 component")
    if disks_per_component < 2:
        raise ValueError("need at least 2 disks per component")
    rng = random.Random(seed)
    graph = Multigraph()
    caps: Dict[Node, int] = {}
    for k in range(num_components):
        nodes = [f"c{k}.disk{i}" for i in range(disks_per_component)]
        for v in nodes:
            graph.add_node(v)
        # A spanning path first, so the component is connected and
        # decomposition sees exactly `num_components` pieces.
        for a, b in zip(nodes, nodes[1:]):
            graph.add_edge(a, b)
        for _ in range(max(0, items_per_component - (len(nodes) - 1))):
            u, v = rng.sample(nodes, 2)
            graph.add_edge(u, v)
        flavor = k % 3
        if flavor == 0:  # all-even: the Section-IV optimal class
            for v in nodes:
                caps[v] = rng.choice((2, 4))
        elif flavor == 1:  # odd capacities: forces the general solver
            for v in nodes:
                caps[v] = rng.choice((1, 3))
        else:  # mixed parity
            for v in nodes:
                caps[v] = rng.choice((1, 2, 3, 4))
    return MigrationInstance(graph, caps)


def regular_instance(
    num_disks: int, degree: int, capacity: int = 2, seed: int = 0
) -> MigrationInstance:
    """Random near-``degree``-regular multigraph (configuration model).

    Every node has degree exactly ``degree`` when ``n·degree`` is even
    (pairs of stubs are matched uniformly; self-pairs are re-drawn, so
    a handful of nodes may fall short by a stub on adversarial draws).
    """
    if num_disks * degree % 2 != 0:
        raise ValueError("num_disks * degree must be even")
    rng = random.Random(seed)
    nodes = [f"disk{i}" for i in range(num_disks)]
    stubs: List[Node] = [v for v in nodes for _ in range(degree)]
    rng.shuffle(stubs)
    graph = Multigraph(nodes=nodes)
    buffer: List[Node] = []
    for stub in stubs:
        if buffer and buffer[-1] != stub:
            graph.add_edge(buffer.pop(), stub)
        else:
            buffer.append(stub)
    # Leftover identical stubs: wire them crosswise where possible.
    while len(buffer) >= 2:
        u = buffer.pop()
        v = buffer.pop()
        if u != v:
            graph.add_edge(u, v)
    return MigrationInstance(graph, {v: capacity for v in nodes})
