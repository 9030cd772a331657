"""Optimal migration scheduling for even transfer constraints.

Section IV of the paper: when every ``c_v`` is even, a schedule with
exactly ``Δ' = max_v ceil(d_v / c_v)`` rounds — matching lower bound
LB1, hence optimal — is computable in polynomial time:

1. **Augment** (generalized Petersen argument): add self-loops, then
   pair leftover odd-degree nodes with dummy edges, so every node's
   degree becomes exactly ``c_v · Δ'`` (an even number).  Here the
   augmentation is *padding*: the self-loops stay a count per node
   and never become edges, and only the pairing edges are walked.
2. **Euler cycle**: all degrees even, so an Euler circuit exists per
   component; orient edges along it.  Every node gets ``c_v·Δ'/2``
   outgoing and ``c_v·Δ'/2`` incoming edge-ends, a self-loop giving
   one of each, so the walk over the real and pairing edges alone
   (degrees ``c_v·Δ' − 2·loops_v``) orients them the same way.
3. **Bipartite graph H**: split ``v`` into ``v_out``/``v_in``; an edge
   oriented ``u -> v`` becomes ``(u_out, v_in)``.  H lists the real
   items only; node ``v``'s loops are the padding count of the pair
   ``(v_out, v_in)`` and each oriented pairing edge one unit of
   ``(tail_out, head_in)``.
4. **Split into matchings** (Figure 3 / Lemmas 4.1–4.2): partition H
   into ``Δ'`` subgraphs, each matching every ``v_out``/``v_in``
   exactly ``c_v/2`` times, padding included
   (:meth:`~repro.graphs.matching.QuotaPeeler.split`).
   A subgraph owed an even number ``D`` of them is halved along
   alternating closed trails (a closed trail in a bipartite graph has
   even length, so each half gets exactly half of every degree); a
   padding count is halved by arithmetic, its odd unit walked as one
   virtual edge.  At odd ``D`` one subgraph is peeled by max-flow,
   feasible by the fractional flow ``1/D`` per edge (Lemma 4.1), each
   padding pair one capacity arc.  About ``log₂ Δ'`` flows replace the
   paper's ``Δ'`` peels, and the walk and the peels cost what the real
   items cost.  This deliberately deviates from the paper's step 4 in
   which items share a round, not in the rounds' number or exactness;
   schedule validation and the LB1 certificate guard it.
5. **Schedule**: each subgraph's real edges are one round; a node sees
   at most ``c_v/2 + c_v/2 = c_v`` edge-ends per round (Lemma 4.3),
   exactly that less its padding.

The kernel runs on the flat CSR arrays of
:mod:`repro.graphs.array_backend`.
"""

from __future__ import annotations

from typing import List

from repro.core.errors import InvalidInstanceError, SolverError
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import CompactInstance
from repro.graphs.euler import compact_euler_orientation
from repro.graphs.matching import QuotaPeeler


def even_optimal_schedule_compact(ci: CompactInstance) -> MigrationSchedule:
    """An optimal (``Δ'``-round) schedule; all ``c_v`` even.

    The module's five steps over flat arrays:

    1. Augmentation is arithmetic — loop counts and deficiency flags
       come straight off the degree/capacity arrays.  Pairing edges are
       numbered after the real ones, and each Euler row is the node's
       original row, then its pairing edge; the loops stay counts.
    2. The Euler walk runs over those rows with degrees
       ``c_v·Δ' − 2·loops_v`` (:func:`compact_euler_orientation`).
    3. H's edge list is the real edges in orientation order; the
       padding is every node's loops as the pair ``(v, v)`` in node
       order, then each pairing edge as ``(tail, head)``.
    4. :meth:`~repro.graphs.matching.QuotaPeeler.split` partitions it
       into ``Δ'`` parts over int node indices, building one
       :class:`QuotaPeeler` per odd level of the Euler partition.
    5. Every part index lifts to a real edge id, ascending within a
       round.

    Every order above shapes which items share a round; the frozen
    digests (``tests/data/plan_digests.json``) pin the result.

    Raises:
        InvalidInstanceError: if some transfer constraint is odd.
        SolverError: if an internal feasibility invariant breaks
            (should never happen; kept as a loud guard).
    """
    if not ci.all_even():
        capacities = ci.source.capacities
        odd = [v for v, c in capacities.items() if c % 2 == 1]
        raise InvalidInstanceError(
            f"even-capacity algorithm requires even c_v; odd at {odd[:5]}"
        )
    graph = ci.graph
    m = graph.num_edges
    if m == 0:
        return MigrationSchedule([], method="even_optimal")

    delta_prime = ci.delta_prime()
    caps = ci.capacities
    n = graph.num_nodes

    # Step 1: augment to c_v * delta' degrees, arithmetically.
    loops: List[int] = []
    deficient: List[int] = []
    for v in range(n):
        target = caps[v] * delta_prime
        deg = graph.degree[v]
        if deg > target:
            raise SolverError(
                f"degree {deg} of {graph.nodes[v]!r} exceeds c_v·Δ' = {target}"
            )
        loops.append((target - deg) // 2)
        if (target - deg) % 2 == 1:
            deficient.append(v)
    if len(deficient) % 2 != 0:
        raise SolverError("odd number of deficient nodes; parity argument violated")

    # Pairing edges are numbered after the real ones; the self-loops
    # stay counts and never enter the walk.
    pair_of = [-1] * n
    pair_edge = [-1] * n
    aug_edges = m
    for i in range(0, len(deficient), 2):
        a, b = deficient[i], deficient[i + 1]
        pair_of[a] = b
        pair_of[b] = a
        pair_edge[a] = aug_edges
        pair_edge[b] = aug_edges
        aug_edges += 1

    # Euler rows: original row ++ pairing edge.
    indptr: List[int] = [0]
    inc_edge: List[int] = []
    inc_other: List[int] = []
    src_indptr, src_inc_edge, src_inc_other = (
        graph.indptr,
        graph.inc_edge,
        graph.inc_other,
    )
    for v in range(n):
        lo, hi = src_indptr[v], src_indptr[v + 1]
        inc_edge.extend(src_inc_edge[lo:hi])
        inc_other.extend(src_inc_other[lo:hi])
        if pair_edge[v] >= 0:
            inc_edge.append(pair_edge[v])
            inc_other.append(pair_of[v])
        indptr.append(len(inc_edge))
    degree = [c * delta_prime - 2 * k for c, k in zip(caps, loops)]

    # Steps 2-3: orient along Euler circuits; the orientation insertion
    # order of the real edges is the bipartite edge list order, and the
    # loops and oriented pairing edges are H's padding.
    order, tail, head = compact_euler_orientation(
        indptr, inc_edge, inc_other, degree, aug_edges
    )
    real = [e for e in order if e < m] if aug_edges > m else order
    pads = {(v, v): k for v, k in enumerate(loops) if k}
    for e in range(m, aug_edges):
        pads[tail[e], head[e]] = 1

    half = [c // 2 for c in caps]
    parts = QuotaPeeler.split(
        half, half, [tail[e] for e in real], [head[e] for e in real], delta_prime,
        pads,
    )
    edge_ids = graph.edge_ids
    rounds = [[edge_ids[real[i]] for i in part] for part in parts]
    return MigrationSchedule(rounds, method="even_optimal")
