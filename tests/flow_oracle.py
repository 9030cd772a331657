"""Edmonds–Karp max-flow values: the flow oracle.

The library runs one max-flow, the Dinic inside
:class:`repro.graphs.matching.QuotaPeeler`, and one min-cost flow
(:mod:`repro.graphs.mincost`).  :func:`edmonds_karp`, a breadth-first
augmenting-path search, shares no code with either, so the tests can
check both, and the quota peels the planner runs, against a flow value
neither of them computed (:func:`assert_peel_agrees`).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import pytest

from repro.graphs.matching import InfeasibleMatchingError, QuotaPeeler

Node = Hashable


def edmonds_karp(
    edges: List[Tuple[Node, Node, int]], source: Node, sink: Node
) -> int:
    """The maximum flow value from ``source`` to ``sink``.

    Args:
        edges: directed ``(u, v, capacity)`` arcs; parallel arcs add up.
        source / sink: endpoints (need not appear in ``edges``).
    """
    # Build residual adjacency as nested dicts.
    residual: Dict[Node, Dict[Node, int]] = {}

    def ensure(v: Node) -> None:
        residual.setdefault(v, {})

    for u, v, c in edges:
        ensure(u)
        ensure(v)
        residual[u][v] = residual[u].get(v, 0) + c
        residual[v].setdefault(u, 0)
    ensure(source)
    ensure(sink)

    value = 0
    while True:
        # BFS for a shortest augmenting path.
        parent: Dict[Node, Optional[Node]] = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            x = queue.popleft()
            for y, cap in residual[x].items():
                if cap > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            return value
        # Bottleneck along the path.
        bottleneck: Optional[int] = None
        y = sink
        while (x := parent[y]) is not None:
            cap = residual[x][y]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            y = x
        assert bottleneck is not None  # sink reachable, so the path has an edge
        y = sink
        while (x := parent[y]) is not None:
            residual[x][y] -= bottleneck
            residual[y][x] += bottleneck
            y = x
        value += bottleneck


def quota_network_flow(
    left_quota: Sequence[int],
    right_quota: Sequence[int],
    edges: Sequence[Tuple[int, int]],
    pads: Optional[Mapping[Tuple[int, int], int]] = None,
) -> int:
    """Max-flow value of Figure 3's network for one exact-quota peel.

    The source feeds left node ``i`` up to ``left_quota[i]``, right node
    ``j`` drains up to ``right_quota[j]`` into the sink, and each
    ``(i, j)`` in ``edges`` is a unit arc: the network
    :class:`~repro.graphs.matching.QuotaPeeler` builds.  Each padding
    pair ``(i, j)`` with count ``c`` adds ``c`` more unit arcs, where
    the peeler has one arc of capacity ``c``.  A peel meeting every
    quota exists exactly when this value equals the total quota.
    """
    arcs: List[Tuple[Node, Node, int]] = []
    arcs += [("source", ("L", i), q) for i, q in enumerate(left_quota)]
    arcs += [(("R", j), "sink", q) for j, q in enumerate(right_quota)]
    arcs += [(("L", i), ("R", j), 1) for i, j in edges]
    for (i, j), c in (pads or {}).items():
        arcs += [(("L", i), ("R", j), 1)] * c
    return edmonds_karp(arcs, "source", "sink")


def assert_peel_agrees(
    left_quota: Sequence[int],
    right_quota: Sequence[int],
    edges: Sequence[Tuple[int, int]],
    pads: Optional[Mapping[Tuple[int, int], int]] = None,
) -> Optional[List[int]]:
    """Check one :meth:`QuotaPeeler.peel` against the oracle.

    The peel raises :class:`InfeasibleMatchingError` exactly when the
    oracle's max flow is below the total quota; otherwise it returns
    ascending, distinct edge indices that, with each padding pair's
    :meth:`~QuotaPeeler.pad_flows` units (at most its count), meet
    every quota exactly.  Returns the selection, or ``None`` when the
    quotas are infeasible.
    """
    peeler = QuotaPeeler(
        left_quota, right_quota, [i for i, _ in edges], [j for _, j in edges], pads
    )
    if quota_network_flow(left_quota, right_quota, edges, pads) < sum(left_quota):
        with pytest.raises(InfeasibleMatchingError):
            peeler.peel()
        return None
    picked = peeler.peel()
    assert picked == sorted(set(picked))
    flows = peeler.pad_flows()
    pads = pads or {}
    assert len(flows) == len(pads)
    left: Counter = Counter(edges[k][0] for k in picked)
    right: Counter = Counter(edges[k][1] for k in picked)
    for ((i, j), c), f in zip(pads.items(), flows):
        assert 0 <= f <= c
        left[i] += f
        right[j] += f
    assert +left == Counter({i: q for i, q in enumerate(left_quota) if q})
    assert +right == Counter({j: q for j, q in enumerate(right_quota) if q})
    return picked
