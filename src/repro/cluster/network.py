"""Rate models: how long does a round of transfers take?

The paper assumes "a very fast network connection dedicated to support
a storage system" (Section II), i.e. the disks are the bottleneck.
Real clusters sit on rack fabrics with oversubscribed cores, so the
rate computation is pluggable.  Every executor of a schedule prices
its rounds through one of these models:

* :class:`UnitRates` — every round costs one time unit: the paper's
  objective, where time is the number of rounds.
* :class:`FairShareRates` — the paper's Figure 2 model (the default):
  each disk splits its bandwidth over the transfers it actually runs
  this round; a transfer's rate is the min of its endpoints' shares,
  and a round lasts as long as its slowest transfer.
* :class:`ReservedLaneRates` — each disk statically partitions its
  bandwidth into ``c_v`` lanes regardless of use; the rate the eager
  engine runs every transfer at, enabling apples-to-apples comparison.
* :class:`FabricRates` — fair shares plus a two-level rack topology:
  transfers crossing racks additionally share each rack's uplink,
  whose capacity is ``rack_bandwidth / oversubscription``.
  ``bench_network`` sweeps the oversubscription factor.

A model's only obligation is :meth:`RateModel.round_duration`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Protocol

from repro.cluster.disk import DiskId
from repro.cluster.system import MigrationPlanContext, StorageCluster
from repro.core.schedule import endpoint_loads
from repro.graphs.multigraph import EdgeId


class RateModel(Protocol):
    """Strategy for turning a round of transfers into a duration."""

    def round_duration(
        self,
        cluster: StorageCluster,
        context: MigrationPlanContext,
        round_edges: List[EdgeId],
    ) -> float:
        """Simulated duration of executing ``round_edges`` together."""
        ...


def _slowest(
    cluster: StorageCluster,
    context: MigrationPlanContext,
    round_edges: List[EdgeId],
    share: Mapping[DiskId, float],
    cap: Optional[Callable[[DiskId, DiskId], float]] = None,
) -> float:
    """Duration of the round's slowest transfer.

    A transfer ``u -> v`` runs at ``min(share[u], share[v])``, further
    capped by ``cap(u, v)`` when given.
    """
    graph = context.instance.graph
    duration = 0.0
    for eid in round_edges:
        u, v = graph.endpoints(eid)
        rate = min(share[u], share[v])
        if cap is not None:
            rate = min(rate, cap(u, v))
        duration = max(duration, cluster.items[context.edge_items[eid]].size / rate)
    return duration


def _fair_shares(
    cluster: StorageCluster, context: MigrationPlanContext, round_edges: List[EdgeId]
) -> Dict[DiskId, float]:
    """Figure 2's share: each busy disk's bandwidth over its transfers."""
    loads = endpoint_loads(context.instance.graph, round_edges)
    return {d: cluster.disk(d).per_transfer_rate(k) for d, k in loads.items()}


class UnitRates:
    """The paper's clock: a round costs one time unit, whatever it holds.

    An empty round costs one unit too; the executor prices one when
    every attempt in a round timed out.
    """

    def round_duration(self, cluster, context, round_edges) -> float:
        return 1.0


class FairShareRates:
    """Figure 2 semantics: bandwidth splits over *actual* concurrency."""

    def round_duration(self, cluster, context, round_edges) -> float:
        share = _fair_shares(cluster, context, round_edges)
        return _slowest(cluster, context, round_edges, share)


class ReservedLaneRates:
    """Static lanes: every transfer gets ``min(B_u / c_u, B_v / c_v)``."""

    def round_duration(self, cluster, context, round_edges) -> float:
        lanes: Dict[DiskId, float] = {}
        for d in endpoint_loads(context.instance.graph, round_edges):
            disk = cluster.disk(d)
            lanes[d] = disk.bandwidth / disk.transfer_limit
        return _slowest(cluster, context, round_edges, lanes)


@dataclass
class FabricTopology:
    """Two-level topology: disks live in racks behind shared uplinks.

    Attributes:
        rack_of: disk -> rack assignment (disks absent default to the
            ``default_rack``).
        uplink_bandwidth: per-rack uplink capacity in size units per
            time unit, *after* oversubscription is applied.
    """

    rack_of: Dict[DiskId, str] = field(default_factory=dict)
    uplink_bandwidth: float = 4.0
    default_rack: str = "rack0"

    def rack(self, disk_id: DiskId) -> str:
        return self.rack_of.get(disk_id, self.default_rack)

    def crosses_racks(self, u: DiskId, v: DiskId) -> bool:
        return self.rack(u) != self.rack(v)

    @classmethod
    def striped(cls, disk_ids: Iterable[DiskId], racks: int, uplink_bandwidth: float) -> "FabricTopology":
        """Assign disks to ``racks`` racks round-robin."""
        assignment = {
            d: f"rack{i % racks}" for i, d in enumerate(sorted(disk_ids, key=repr))
        }
        return cls(rack_of=assignment, uplink_bandwidth=uplink_bandwidth)


class FabricRates:
    """Fair endpoint shares capped by rack-uplink shares.

    A cross-rack transfer also consumes both racks' uplinks; each
    uplink splits its bandwidth evenly over the cross-rack transfers
    using it this round.  With uplinks too fast to bind, this is
    :class:`FairShareRates` exactly.
    """

    def __init__(self, topology: FabricTopology):
        self.topology = topology

    def round_duration(self, cluster, context, round_edges) -> float:
        graph = context.instance.graph
        topology = self.topology
        # Cross-rack transfer count per rack uplink.
        uplink_load: Dict[str, int] = {}
        for eid in round_edges:
            u, v = graph.endpoints(eid)
            if topology.crosses_racks(u, v):
                for rack in (topology.rack(u), topology.rack(v)):
                    uplink_load[rack] = uplink_load.get(rack, 0) + 1

        def uplink_cap(u: DiskId, v: DiskId) -> float:
            if not topology.crosses_racks(u, v):
                return math.inf
            return min(
                topology.uplink_bandwidth / uplink_load[topology.rack(u)],
                topology.uplink_bandwidth / uplink_load[topology.rack(v)],
            )

        share = _fair_shares(cluster, context, round_edges)
        return _slowest(cluster, context, round_edges, share, uplink_cap)


def rack_locality(context: MigrationPlanContext, topology: FabricTopology) -> float:
    """Fraction of transfers that stay within a rack (0..1)."""
    graph = context.instance.graph
    edges = list(context.edge_items)
    if not edges:
        return 1.0
    local = sum(
        1
        for eid in edges
        if not topology.crosses_racks(*graph.endpoints(eid))
    )
    return local / len(edges)
