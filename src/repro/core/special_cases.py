"""Optimal schedulers for special transfer-graph classes.

Coffman et al. (cited in Section I) solved several transfer-graph
classes optimally in the multi-transfer model; this module reproduces
the class that matters most in practice, for *arbitrary* (odd or even)
transfer constraints:

* **Bipartite transfer graphs** — the disk-addition/removal shape (old
  disks send, new disks receive), forests included.  Split every node
  ``v`` into ``c_v`` copies and spread its edges evenly: each copy has
  degree at most ``Δ' = max_v ceil(d_v/c_v)``, the split graph is still
  bipartite, and König's edge-coloring theorem colors it with exactly
  its max degree.
  Contracting copies yields a ``Δ'``-round schedule — optimal, since
  ``Δ' = LB1`` is a lower bound.

This beats the general Section V algorithm's guarantee (it is
*exactly* optimal), so :func:`repro.plan` in ``auto`` mode prefers it
when the transfer graph qualifies.  The scheduler runs on the flat CSR
arrays of :mod:`repro.graphs.array_backend`.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import CompactInstance
from repro.graphs.coloring.bipartite import (
    NotBipartiteError,
    bipartite_sides,
    compact_konig_coloring,
)


#: The ``MigrationInstance.memo`` key of the bipartite verdict.
_MEMO_KEY = "bipartite"


def is_bipartite_instance(instance: MigrationInstance) -> bool:
    """True iff the transfer graph is bipartite (ignoring isolated nodes).

    The verdict is kept in ``instance.memo``, so the scheduler below,
    run on the component the select stage just tested, does not
    2-colour it again.
    """
    verdict = instance.memo.get(_MEMO_KEY)
    if verdict is None:
        try:
            bipartite_sides(instance.graph)
        except NotBipartiteError:
            verdict = False
        else:
            verdict = True
        instance.memo[_MEMO_KEY] = verdict
    return bool(verdict)


def bipartite_optimal_schedule_compact(ci: CompactInstance) -> MigrationSchedule:
    """Optimal (``Δ'``-round) schedule for a bipartite transfer graph.

    Works for arbitrary transfer constraints — including the odd
    capacities that make the general problem NP-hard.  The round-robin
    node split is arithmetic on the capacity array: copy ``(v, k)`` is
    split index ``offset[v] + k`` (copies numbered per node in node
    order, ``k`` ascending), and split edge ``i`` is original edge
    ``i``, whose ends go to each endpoint's copies in turn.  Copies are
    named ``"(<node repr>, <k>)"``: the König colorer orders each side
    by name, and that order shapes which items share a round, so the
    frozen digests pin it.

    The schedule is returned unvalidated (the ``Δ'`` round count is
    still asserted): the planner validates each merged or forced plan
    once, before it is cached.

    Raises:
        NotBipartiteError: if the transfer graph is not bipartite.
    """
    if not ci.source.memo.get(_MEMO_KEY):
        bipartite_sides(ci.source.graph)  # raises if not bipartite
        ci.source.memo[_MEMO_KEY] = True
    graph = ci.graph
    m = graph.num_edges
    if m == 0:
        return MigrationSchedule([], method="bipartite_optimal")

    caps = ci.capacities
    n = graph.num_nodes
    offset = [0] * (n + 1)
    for v in range(n):
        offset[v + 1] = offset[v] + caps[v]
    reprs = graph.node_reprs()
    split_repr: List[str] = [
        "(" + reprs[v] + ", " + str(k) + ")"
        for v in range(n)
        for k in range(caps[v])
    ]
    cursor = [0] * n
    split_edges: List[Tuple[int, int]] = []
    edge_u, edge_v = graph.edge_u, graph.edge_v
    for e in range(m):
        u, v = edge_u[e], edge_v[e]
        cu = offset[u] + cursor[u] % caps[u]
        cv = offset[v] + cursor[v] % caps[v]
        cursor[u] += 1
        cursor[v] += 1
        split_edges.append((cu, cv))

    coloring = compact_konig_coloring(offset[n], split_edges, split_repr)
    original = {graph.edge_ids[e]: coloring[e] for e in range(m)}
    schedule = MigrationSchedule.from_coloring(original, method="bipartite_optimal")
    assert schedule.num_rounds == ci.delta_prime(), (
        "König contraction must land exactly on Δ'"
    )
    return schedule
