"""Eager (round-free) schedule execution — an ablation.

The paper's model is round-synchronized: a round ends when its slowest
transfer ends, so fast disks idle at round boundaries.  Real systems
can run *eagerly*: start any pending transfer the moment both endpoints
have a free slot.  This engine is the ablation for that design choice
(``bench_ablations`` quantifies it): it executes the same transfer set
event-driven and reports the makespan to compare with the round model.

Rate model: a transfer runs at the *reserved share* of
:class:`~repro.cluster.network.ReservedLaneRates` — each disk
statically partitions its bandwidth into ``c_v`` lanes.  This keeps
rates constant over a transfer's lifetime (no re-negotiation
mid-flight), making the simulation exact, and matches the round
model's worst case so the two makespans are directly comparable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.item import ItemId
from repro.cluster.network import ReservedLaneRates
from repro.cluster.system import MigrationPlanContext, StorageCluster
from repro.core.errors import ScheduleValidationError
from repro.graphs.multigraph import EdgeId, Node


@dataclass
class EagerReport:
    """Outcome of an eager execution."""

    total_time: float = 0.0
    start_times: Dict[EdgeId, float] = field(default_factory=dict)
    finish_times: Dict[EdgeId, float] = field(default_factory=dict)
    migrated_items: List[ItemId] = field(default_factory=list)

    @property
    def num_transfers(self) -> int:
        return len(self.finish_times)


class EagerEngine:
    """Event-driven executor: transfers start as soon as slots free up."""

    def __init__(self, cluster: StorageCluster):
        self.cluster = cluster
        self._rates = ReservedLaneRates()

    def execute(self, context: MigrationPlanContext) -> EagerReport:
        """Run all transfers of the plan eagerly; returns the report.

        Pending transfers are started longest-first (LPT) among those
        whose endpoints both have free lanes; on every completion the
        freed lanes are refilled.  The result is validated: at no point
        does any disk exceed its transfer constraint.
        """
        graph = context.instance.graph
        pending: List[EdgeId] = sorted(
            context.edge_items,
            key=lambda eid: -self._duration(context, eid),
        )
        active: Dict[Node, int] = {v: 0 for v in graph.nodes}
        report = EagerReport()
        # (finish_time, sequence, edge) — sequence breaks ties stably.
        events: List[Tuple[float, int, EdgeId]] = []
        seq = 0
        now = 0.0

        def try_start() -> None:
            nonlocal seq
            remaining: List[EdgeId] = []
            for eid in pending:
                u, v = graph.endpoints(eid)
                if (
                    active[u] < context.instance.capacity(u)
                    and active[v] < context.instance.capacity(v)
                ):
                    active[u] += 1
                    active[v] += 1
                    duration = self._duration(context, eid)
                    report.start_times[eid] = now
                    heapq.heappush(events, (now + duration, seq, eid))
                    seq += 1
                else:
                    remaining.append(eid)
            pending[:] = remaining

        try_start()
        while events:
            now, _seq, eid = heapq.heappop(events)
            u, v = graph.endpoints(eid)
            active[u] -= 1
            active[v] -= 1
            report.finish_times[eid] = now
            item_id = context.edge_items[eid]
            self.cluster.apply_move(item_id, v)
            report.migrated_items.append(item_id)
            try_start()
        if pending:
            raise ScheduleValidationError(
                f"{len(pending)} transfers never became startable"
            )
        report.total_time = now
        self._validate(context, report)
        return report

    def _duration(self, context: MigrationPlanContext, eid: EdgeId) -> float:
        return self._rates.round_duration(self.cluster, context, [eid])

    def _validate(self, context: MigrationPlanContext, report: EagerReport) -> None:
        """Sweep the timeline: concurrency never exceeds any ``c_v``."""
        graph = context.instance.graph
        deltas: List[Tuple[float, int, Node]] = []
        for eid, start in report.start_times.items():
            finish = report.finish_times[eid]
            u, v = graph.endpoints(eid)
            for node in (u, v):
                deltas.append((start, 1, node))
                deltas.append((finish, -1, node))
        # Process finishes before starts at equal times.
        deltas.sort(key=lambda t: (t[0], t[1]))
        load: Dict[Node, int] = {}
        for _time, delta, node in deltas:
            load[node] = load.get(node, 0) + delta
            if load[node] > context.instance.capacity(node):
                raise ScheduleValidationError(
                    f"eager execution oversubscribed disk {node!r}"
                )
