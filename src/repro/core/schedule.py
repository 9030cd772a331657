"""Migration schedules and their validation.

A schedule is a partition of the transfer graph's edges into rounds.
Feasibility (matching the paper's model) requires that in every round,
every disk ``v`` is an endpoint of at most ``c_v`` scheduled transfers.
Schedules are interchangeable with capacitated edge colorings: round
``i`` is color ``i``.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, Iterable, List, Mapping, NoReturn, Sequence

from repro.core.errors import ScheduleValidationError
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import EdgeId, Multigraph, Node


def endpoint_loads(graph: Multigraph, edges: Iterable[EdgeId]) -> Dict[Node, int]:
    """Transfers each disk takes part in among ``edges`` (one round).

    Disks appear in first-touch order (``u`` before ``v`` of each
    edge), which fixes the order of any per-disk sum built from it.
    """
    loads: Dict[Node, int] = {}
    for eid in edges:
        u, v = graph.endpoints(eid)
        loads[u] = loads.get(u, 0) + 1
        loads[v] = loads.get(v, 0) + 1
    return loads


class MigrationSchedule:
    """An ordered list of rounds; each round is a list of edge ids.

    Empty rounds are dropped by default (makespan counts work, not
    idle time).  Round-indexed objectives — bounded coloring, group
    completion — treat indices as wall-clock rounds, so their schedules
    are built with ``keep_empty=True`` and may contain deliberately
    empty rounds (a maintenance window nothing is allowed in).
    """

    def __init__(
        self,
        rounds: Sequence[Sequence[EdgeId]],
        method: str = "unknown",
        *,
        keep_empty: bool = False,
    ) -> None:
        if keep_empty:
            self._rounds: List[List[EdgeId]] = [list(r) for r in rounds]
        else:
            self._rounds = [list(r) for r in rounds if len(r) > 0]
        self.method = method

    @classmethod
    def from_coloring(
        cls, coloring: Mapping[EdgeId, int], method: str = "unknown"
    ) -> "MigrationSchedule":
        """Convert an ``edge -> color`` map into a schedule.

        Colors need not be contiguous; empty color classes vanish.
        """
        if not coloring:
            return cls([], method=method)
        buckets: Dict[int, List[EdgeId]] = {}
        for eid, c in coloring.items():
            buckets.setdefault(c, []).append(eid)
        return cls([buckets[c] for c in sorted(buckets)], method=method)

    def as_coloring(self) -> Dict[EdgeId, int]:
        """The inverse view: ``edge_id -> round index``."""
        return {eid: i for i, rnd in enumerate(self._rounds) for eid in rnd}

    def restrict(self, edge_ids: Iterable[EdgeId]) -> Dict[EdgeId, int]:
        """The coloring induced on surviving edges.

        Returns ``edge_id -> round index`` for exactly the scheduled
        edges in ``edge_ids``; edges this schedule never colored are
        silently absent (they are the *new* work of a delta).  This is
        the read-side repair primitive of incremental replanning: the
        result feeds :meth:`repro.core.recolor.ArrayColoringState.preload`.
        """
        keep = set(edge_ids)
        return {
            eid: i
            for i, rnd in enumerate(self._rounds)
            for eid in rnd
            if eid in keep
        }

    @property
    def rounds(self) -> List[List[EdgeId]]:
        return [list(r) for r in self._rounds]

    @property
    def num_rounds(self) -> int:
        return len(self._rounds)

    def round_loads(self, instance: MigrationInstance, round_index: int) -> Dict[Node, int]:
        """Transfers each disk performs in the given round."""
        return endpoint_loads(instance.graph, self._rounds[round_index])

    def validate(self, instance: MigrationInstance) -> None:
        """Check the schedule against the instance.

        Verifies that (a) every transfer-graph edge is scheduled in
        exactly one round, (b) no unknown edge appears, and (c) every
        round respects every transfer constraint.

        (a) and (b) together are one set comparison and one length
        check; the per-edge scan runs only to name the first violation.
        Each round's loads are one ``Counter`` over its edges'
        endpoints, in :func:`endpoint_loads`' first-touch order.

        Raises:
            ScheduleValidationError: on the first violation found.
        """
        table = instance.graph.edge_table
        scheduled = list(chain.from_iterable(self._rounds))
        try:
            exact = len(scheduled) == len(table) and table.keys() == set(scheduled)
        except TypeError:  # an unhashable id: the scan says where
            exact = False
        if not exact:
            self._raise_first_misplaced(instance)
        capacity = instance.capacities
        for i, rnd in enumerate(self._rounds):
            loads = Counter(chain.from_iterable([table[eid] for eid in rnd]))
            for v, load in loads.items():
                if load > capacity[v]:
                    raise ScheduleValidationError(
                        f"round {i}: disk {v!r} performs {load} transfers "
                        f"but c_v = {capacity[v]}"
                    )

    def _raise_first_misplaced(self, instance: MigrationInstance) -> NoReturn:
        """Raise for the first unknown, repeated or missing edge, in
        round order, then edge order."""
        seen: Dict[EdgeId, int] = {}
        for i, rnd in enumerate(self._rounds):
            for eid in rnd:
                if not instance.graph.has_edge_id(eid):
                    raise ScheduleValidationError(f"round {i} schedules unknown edge {eid}")
                if eid in seen:
                    raise ScheduleValidationError(
                        f"edge {eid} scheduled twice (rounds {seen[eid]} and {i})"
                    )
                seen[eid] = i
        missing = [eid for eid in instance.graph.edge_ids() if eid not in seen]
        raise ScheduleValidationError(
            f"{len(missing)} items never migrated, e.g. {missing[:5]}"
        )

    def is_valid(self, instance: MigrationInstance) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(instance)
        except ScheduleValidationError:
            return False
        return True

    def __repr__(self) -> str:
        return f"MigrationSchedule(rounds={self.num_rounds}, method={self.method!r})"
