"""Adversarial and structured workload families.

Families engineered to stress particular bounds and code paths rather
than look realistic:

* :func:`shannon_triangle` — the extremal multigraph for Shannon's
  theorem: three nodes, parallel bundles of sizes ``(k, k, k)``.  At
  ``c_v = 1`` it needs exactly ``3k`` rounds (``Γ'``-bound) while
  ``Δ' = 2k`` — the worst case for per-node reasoning.
* :func:`odd_cycle_with_helpers` — ``Γ'``-bound cycles plus idle
  helper disks: the forwarding extension's home turf.
* :func:`capacity_cliff` — one huge-capacity disk feeding many
  unit-capacity disks: maximal heterogeneity in a single instance.
* :func:`replication_fanout` — a cloning workload: hot items on a few
  sources, each needing replicas on many destinations.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.core.problem import MigrationInstance
from repro.extensions.cloning import CloningInstance
from repro.graphs.multigraph import Multigraph


def shannon_triangle(bundle: int, capacity: int = 1) -> MigrationInstance:
    """Three disks, ``bundle`` parallel items between every pair."""
    if bundle < 1:
        raise ValueError("bundle must be >= 1")
    graph = Multigraph(nodes=["a", "b", "c"])
    for u, v in (("a", "b"), ("b", "c"), ("c", "a")):
        for _ in range(bundle):
            graph.add_edge(u, v)
    return MigrationInstance(graph, {v: capacity for v in graph.nodes})


def odd_cycle_with_helpers(
    cycle_len: int, multiplicity: int, num_helpers: int
) -> MigrationInstance:
    """An odd cycle of unit-capacity disks plus idle helpers.

    Direct migration needs ``ceil(cycle_len · multiplicity /
    floor(cycle_len/2))`` rounds (the density bound); with helpers the
    forwarding scheduler can approach ``Δ' = 2 · multiplicity``.
    """
    if cycle_len < 3 or cycle_len % 2 == 0:
        raise ValueError("cycle_len must be odd and >= 3")
    nodes = [f"n{i}" for i in range(cycle_len)]
    helpers = [f"h{i}" for i in range(num_helpers)]
    graph = Multigraph(nodes=nodes + helpers)
    for i in range(cycle_len):
        for _ in range(multiplicity):
            graph.add_edge(nodes[i], nodes[(i + 1) % cycle_len])
    return MigrationInstance(graph, {v: 1 for v in nodes + helpers})


def capacity_cliff(num_small: int, items_each: int, big_capacity: int) -> MigrationInstance:
    """A single high-capacity hub drains to many unit disks."""
    if big_capacity < 1:
        raise ValueError("big_capacity must be >= 1")
    graph = Multigraph(nodes=["hub"] + [f"leaf{i}" for i in range(num_small)])
    for i in range(num_small):
        for _ in range(items_each):
            graph.add_edge("hub", f"leaf{i}")
    caps: Dict = {"hub": big_capacity}
    caps.update({f"leaf{i}": 1 for i in range(num_small)})
    return MigrationInstance(graph, caps)


def petersen_instance(capacity: int = 1) -> MigrationInstance:
    """The Petersen graph at ``c_v = 1`` — a class-2 instance.

    Δ = 3 and the density bound gives only ``ceil(15/7) = 3``, yet the
    chromatic index is 4: the certified lower bound is strictly below
    OPT.  This is the instance family that *forces* the general
    algorithm's witness/palette-growth path (everywhere else it tends
    to finish within the initial palette).
    """
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    graph = Multigraph(nodes=outer + inner)
    for i in range(5):
        graph.add_edge(outer[i], outer[(i + 1) % 5])   # outer cycle
        graph.add_edge(inner[i], inner[(i + 2) % 5])   # inner pentagram
        graph.add_edge(outer[i], inner[i])             # spokes
    return MigrationInstance(graph, {v: capacity for v in graph.nodes})


def replication_fanout(
    num_items: int, fanout: int, num_disks: int, capacity: int = 2
) -> CloningInstance:
    """Hot items each needing ``fanout`` replicas (cloning workload).

    Item ``k`` starts on disk ``k mod num_disks`` and must reach the
    next ``fanout`` disks around the ring.
    """
    if fanout >= num_disks:
        raise ValueError("fanout must be < num_disks")
    disks = [f"d{i}" for i in range(num_disks)]
    items: Dict[str, Tuple[str, Set[str]]] = {}
    for k in range(num_items):
        src_idx = k % num_disks
        dests = {disks[(src_idx + j) % num_disks] for j in range(1, fanout + 1)}
        items[f"item{k}"] = (disks[src_idx], dests)
    return CloningInstance(items, {d: capacity for d in disks})
