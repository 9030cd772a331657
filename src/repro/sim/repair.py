"""Batching repair demands into plannable transfer graphs.

A disk failure (or a latent scrub error) leaves items with missing
fragments.  Each missing fragment is one :class:`RepairDemand`; a
batch of demands becomes one :class:`~repro.core.problem.MigrationInstance`
whose edges are the *reads* the rebuild performs: every demand gets a
target disk from the placement policy and ``repair_fanin`` source
reads from surviving holders, and each read is one transfer-graph
edge (source disk → target disk) subject to the per-disk transfer
constraints ``c_v`` — exactly the paper's scheduling problem, arriving
continuously instead of once.

The instance's nodes are only the *participating* disks.  The plan
fingerprint (:func:`repro.pipeline.canonical.fingerprint`) canonicalizes
away edge ids and item identities but keys on the disk labels and
their capacities, so recurring incidents over the same disks — the
common case for scrub-driven repairs and re-sweeps after a failed
restore — hit the :class:`~repro.pipeline.cache.PlanCache` even though
every sweep rebuilds the graph from scratch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import EdgeId, Multigraph
from repro.sim.placement import FleetView, PlacementPolicy
from repro.sim.redundancy import RedundancyScheme


@dataclass(frozen=True)
class RepairDemand:
    """One missing fragment that must be rebuilt somewhere.

    Attributes:
        item_id: the degraded item.
        frag_index: which fragment of the item was lost.
        holders: disks holding the item's surviving fragments, sorted.
        lost: fragments of this item currently missing (drives the
            scheme's repair fan-in, e.g. LRC local vs. global repair).
    """

    item_id: str
    frag_index: int
    holders: Tuple[str, ...]
    lost: int


@dataclass(frozen=True)
class RepairEdge:
    """What one transfer-graph edge means: a read feeding a rebuild."""

    item_id: str
    frag_index: int
    source: str
    target: str


@dataclass
class RepairPlanSpec:
    """A batched repair ready for :func:`repro.plan`.

    Attributes:
        instance: transfer graph over participating disks only.
        edge_meta: edge id → the read it performs.
        target_of: ``(item_id, frag_index)`` → disk receiving the
            rebuilt fragment.
        unplaceable: demands no alive disk could accept (they stay
            degraded and are retried on the next incident).
    """

    instance: MigrationInstance
    edge_meta: Dict[EdgeId, RepairEdge] = field(default_factory=dict)
    target_of: Dict[Tuple[str, int], str] = field(default_factory=dict)
    unplaceable: List[RepairDemand] = field(default_factory=list)

    @property
    def num_transfers(self) -> int:
        return len(self.edge_meta)


def build_repair_instance(
    demands: Sequence[RepairDemand],
    scheme: RedundancyScheme,
    policy: PlacementPolicy,
    view: FleetView,
    rng: random.Random,
    transfer_limits: Mapping[str, int],
) -> RepairPlanSpec:
    """Batch ``demands`` into one transfer graph.

    Demands are processed in sorted ``(item_id, frag_index)`` order so
    the resulting graph — and therefore the plan fingerprint — is a
    deterministic function of the demand set.  For each demand the
    policy picks a target (excluding current holders and targets
    already chosen for the same item, since fragments must live on
    distinct disks), and ``min(repair_fanin, surviving holders)``
    least-loaded holders are read.

    Args:
        transfer_limits: ``c_v`` per disk id for every disk that may
            participate.
    """
    graph = Multigraph()
    spec = RepairPlanSpec(instance=MigrationInstance(Multigraph(), {}))
    load: Dict[str, int] = {}
    chosen_for_item: Dict[str, List[str]] = {}

    for demand in sorted(demands, key=lambda d: (d.item_id, d.frag_index)):
        exclude = list(demand.holders) + chosen_for_item.get(demand.item_id, [])
        target = policy.repair_target(demand.item_id, exclude, view, rng)
        if target is None or not demand.holders:
            spec.unplaceable.append(demand)
            continue
        chosen_for_item.setdefault(demand.item_id, []).append(target)
        spec.target_of[(demand.item_id, demand.frag_index)] = target

        fanin = min(scheme.repair_fanin(demand.lost), len(demand.holders))
        sources = sorted(
            demand.holders, key=lambda d: (load.get(d, 0), d)
        )[:fanin]
        for source in sources:
            eid = graph.add_edge(source, target)
            spec.edge_meta[eid] = RepairEdge(
                item_id=demand.item_id,
                frag_index=demand.frag_index,
                source=source,
                target=target,
            )
            load[source] = load.get(source, 0) + 1
            load[target] = load.get(target, 0) + 1

    capacities = {v: transfer_limits[str(v)] for v in graph.nodes}
    spec.instance = MigrationInstance(graph, capacities)
    return spec
