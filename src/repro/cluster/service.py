"""Client-visible service degradation during a migration.

The paper's core motivation: "the storage system will perform
sub-optimally until migrations are finished."  This module quantifies
that: while disk ``v`` runs ``k`` of its ``c_v`` transfer lanes, a
``k / c_v`` fraction of its capability is unavailable to clients, and
the demand parked on ``v`` suffers proportionally.  Summing over rounds
(weighted by simulated round duration) gives a *degradation integral* —
demand-seconds of impaired service — the business number a shorter or
better-packed schedule improves.

Used by ``bench_qos`` to compare schedulers on the metric operators
actually feel, not just round counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.cluster.disk import DiskId
from repro.cluster.network import FairShareRates
from repro.cluster.system import MigrationPlanContext, StorageCluster
from repro.core.schedule import MigrationSchedule, endpoint_loads


@dataclass
class DegradationReport:
    """Demand-weighted service impairment of one schedule.

    Two components, reported separately and summed in :attr:`total`:

    * **interference** — while disk ``v`` runs ``k`` of its ``c_v``
      transfer lanes, the demand parked on it is impaired by ``k/c_v``;
    * **displacement** — until an item reaches its target it is served
      from the *wrong* place (the reason the layout is changing), so
      each pending item charges its demand per time unit until its
      round completes.  This is the paper's "the storage system will
      perform sub-optimally until migrations are finished".
    """

    interference: float = 0.0
    displacement: float = 0.0
    per_disk: Dict[DiskId, float] = field(default_factory=dict)
    duration: float = 0.0
    num_rounds: int = 0

    @property
    def total(self) -> float:
        return self.interference + self.displacement

    @property
    def mean_rate(self) -> float:
        """Average demand-impairment per time unit while migrating."""
        return self.total / self.duration if self.duration else 0.0


def disk_demand(cluster: StorageCluster) -> Dict[DiskId, float]:
    """Demand currently served by each disk (sum of resident items')."""
    demand: Dict[DiskId, float] = {d: 0.0 for d in cluster.disks}
    for item_id in cluster.layout.items:
        disk_id = cluster.layout.disk_of(item_id)
        if disk_id in demand:
            demand[disk_id] += cluster.items[item_id].demand
    return demand


def service_degradation(
    cluster: StorageCluster,
    context: MigrationPlanContext,
    schedule: MigrationSchedule,
    demand: Optional[Mapping[DiskId, float]] = None,
) -> DegradationReport:
    """Compute the degradation integral of a schedule.

    Per round: ``duration × Σ_v demand_v × (transfers_v / c_v)``, where
    ``duration`` is the round's length at Figure 2's fair shares
    (:class:`~repro.cluster.network.FairShareRates`).  Demand defaults
    to the demand parked on each disk at migration start
    (conservative: items in flight keep charging their source).

    The cluster is *not* mutated — durations are computed from the
    plan, not by executing it.
    """
    dem = dict(demand) if demand is not None else disk_demand(cluster)
    rates = FairShareRates()
    graph = context.instance.graph
    report = DegradationReport(num_rounds=schedule.num_rounds)

    # Demand of items still awaiting migration (for displacement).
    pending_demand = sum(
        cluster.items[item_id].demand for item_id in context.edge_items.values()
    )

    for round_edges in schedule.rounds:
        duration = rates.round_duration(cluster, context, round_edges)
        report.duration += duration
        # Items in flight this round are still displaced during it.
        report.displacement += duration * pending_demand
        for disk_id, k in endpoint_loads(graph, round_edges).items():
            impairment = duration * dem.get(disk_id, 0.0) * (
                k / context.instance.capacity(disk_id)
            )
            report.per_disk[disk_id] = report.per_disk.get(disk_id, 0.0) + impairment
            report.interference += impairment
        for eid in round_edges:
            pending_demand -= cluster.items[context.edge_items[eid]].demand
    return report


def compare_degradation(
    cluster: StorageCluster,
    context: MigrationPlanContext,
    schedules: Mapping[str, MigrationSchedule],
) -> Dict[str, DegradationReport]:
    """Degradation report per named schedule (shared demand snapshot)."""
    demand = disk_demand(cluster)
    return {
        name: service_degradation(cluster, context, sched, demand=demand)
        for name, sched in schedules.items()
    }
