"""Structural pipeline stages: normalize, decompose, merge.

**Normalize** inspects the instance once and records the facts every
later stage keys off (parity, Δ', idle disks, emptiness) — no instance
mutation happens here; instances are immutable by convention.

**Decompose** splits the transfer multigraph into its connected
components and builds one sub-instance per component that has at least
one edge.  Edge ids are preserved (each component graph is copied from
the parent's tables by ``Multigraph.component_graphs``), so component
schedules talk about the same edges as the parent instance.  Both
lower bounds decompose exactly over components:

* ``LB1 = max_v ⌈d_v/c_v⌉`` is a per-node maximum, and every node
  lives in exactly one component;
* ``LB2``'s maximizing subset never needs to span components — for a
  subset ``S = S₁ ∪ S₂`` split across two components,
  ``⌈(e₁+e₂)/(b₁+b₂)⌉ ≤ max(⌈e₁/b₁⌉, ⌈e₂/b₂⌉)`` (the mediant
  inequality), so some single-component subset does at least as well.

Hence ``OPT(instance) = max over components of OPT(component)`` —
Theorem 4.1 / Corollary 5.3 apply piecewise, which is what lets the
*select* stage promote an even-capacity or bipartite component to its
optimal solver inside a globally mixed instance.

**Merge** zips component schedules back together: merged round ``i``
is the concatenation of every component's round ``i`` (components are
node-disjoint, so no transfer constraint can be violated by the
union), giving ``max_k rounds(component_k)`` rounds total.  Components
are processed in a canonical order (ascending minimum node ``repr``),
so the merged bytes depend on the components alone, never on which of
them the cache served and which were solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.multigraph import EdgeId, Node
from repro.pipeline.canonical import fingerprint


@dataclass(frozen=True)
class NormalizedProblem:
    """What the rest of the pipeline needs to know about an instance."""

    instance: MigrationInstance
    num_disks: int
    num_items: int
    idle_disks: int  # degree-0 nodes: carried by the instance, never scheduled
    all_even: bool
    delta_prime: int

    @property
    def empty(self) -> bool:
        return self.num_items == 0


@dataclass(frozen=True)
class Component:
    """One connected component of the transfer multigraph."""

    index: int
    instance: MigrationInstance
    fingerprint: Optional[str]  # None when node reprs are ambiguous

    @property
    def num_disks(self) -> int:
        return self.instance.num_disks

    @property
    def num_items(self) -> int:
        return self.instance.num_items


def normalize(instance: MigrationInstance) -> NormalizedProblem:
    """The *normalize* stage: validate and profile the instance."""
    graph = instance.graph
    idle = sum(1 for v in graph.nodes if graph.degree(v) == 0)
    return NormalizedProblem(
        instance=instance,
        num_disks=instance.num_disks,
        num_items=instance.num_items,
        idle_disks=idle,
        all_even=instance.all_even(),
        delta_prime=instance.delta_prime(),
    )


def decompose(instance: MigrationInstance) -> List[Component]:
    """The *decompose* stage: one sub-instance per edge-bearing component.

    Components are returned in canonical order — ascending minimum
    node ``repr`` — so downstream stages (and the merge) are stable
    across processes and ``PYTHONHASHSEED`` values.  Isolated nodes
    form no component: they have nothing to schedule.
    """
    graph = instance.graph
    components: List[List[Node]] = []
    for nodes in graph.connected_components():
        if all(graph.degree(v) == 0 for v in nodes):
            continue
        components.append(sorted(nodes, key=repr))
    components.sort(key=lambda nodes: repr(nodes[0]))

    # Copied from the parent's tables, which the parent instance has
    # already checked: same orders, ids and id high-water mark.
    result: List[Component] = []
    for index, (nodes, sub) in enumerate(
        zip(components, graph.component_graphs(components))
    ):
        capacities = {v: instance.capacity(v) for v in nodes}
        sub_instance = MigrationInstance._from_checked(sub, capacities)
        result.append(
            Component(
                index=index,
                instance=sub_instance,
                fingerprint=fingerprint(sub_instance),
            )
        )
    return result


def merged_method_name(methods: Sequence[str]) -> str:
    """The merged schedule's ``method`` label.

    A single solver keeps its plain name (preserving the legacy
    ``auto`` dispatch labels); heterogeneous merges are labelled
    ``pipeline(a+b)``.
    """
    unique = sorted(set(methods))
    if len(unique) == 1:
        return unique[0]
    return "pipeline(" + "+".join(unique) + ")"


def merge(
    instance: MigrationInstance,
    component_rounds: Sequence[Sequence[Sequence[EdgeId]]],
    methods: Sequence[str],
) -> MigrationSchedule:
    """The *merge* stage: interleave component schedules round-by-round.

    ``component_rounds[k][i]`` is component ``k``'s round ``i``; the
    merged schedule's round ``i`` is their concatenation in component
    order.  The result has ``max_k len(component_rounds[k])`` rounds.
    """
    depth = max((len(rounds) for rounds in component_rounds), default=0)
    merged: List[List[EdgeId]] = []
    for i in range(depth):
        rnd: List[EdgeId] = []
        for rounds in component_rounds:
            if i < len(rounds):
                rnd.extend(rounds[i])
        merged.append(rnd)
    return MigrationSchedule(merged, method=merged_method_name(list(methods)))
