"""Degree-constrained bipartite subgraphs via maximum flow.

This is the "Figure 3" machinery of the paper: Step (4) of the
even-capacity algorithm partitions the oriented bipartite graph ``H``
into ``Δ'`` subgraphs in which each copy ``v_out``/``v_in`` is matched
*exactly* ``c_v/2`` times.  Feasibility of one such subgraph follows
from a fractional argument (Lemma 4.1) and integrality of max-flow.

* :func:`degree_constrained_subgraph` extracts one exact-quota subgraph
  over node labels.  It is deliberately generic (quotas per left node
  and per right node) so it is reusable for other ``b``-matching needs
  (e.g. the Saia baseline's edge spreading is validated against it in
  tests).
* :func:`quota_split` partitions a graph whose degrees are ``q_v·D``
  into ``D`` exact-quota parts by Euler partition (Gabow 1976; Alon,
  IPL 2003): even ``D`` halves the graph along alternating closed
  trails, odd ``D`` peels one part by max-flow.  About ``log₂ D`` flows
  replace the paper's ``D`` peels.
* :class:`QuotaPeeler` is the flow over dense int indices, and
  :meth:`QuotaPeeler.split` the int twin of :func:`quota_split`; the
  two return the same parts.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Sequence, Set, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.core.errors import SolverError
from repro.graphs.flow import FlowNetwork

Node = Hashable

#: Below this many frontier-incident arcs a BFS step runs as a scalar
#: Python loop; above it, as a vectorized numpy gather.  Both compute
#: the same (order-independent) level assignment.
_BFS_VECTOR_THRESHOLD = 4096

#: The DFS current-arc scan tries this many entries as a scalar loop
#: before falling back to a vectorized scan of the rest of the row.
#: The admissible arc is usually within the first few slots (quota
#: arcs sit at the front of their rows, and early in a phase most unit
#: arcs are admissible), but saturated phases scan deep into rows of
#: tens of thousands of arcs, where numpy argmax wins by ~50x.
_DFS_SCALAR_PREFIX = 6

#: Minimum remaining-row length for the vectorized DFS scan; shorter
#: tails stay scalar (numpy call overhead would dominate).
_DFS_VECTOR_THRESHOLD = 64


class InfeasibleMatchingError(ValueError):
    """Raised when no subgraph meets every quota exactly."""


def degree_constrained_subgraph(
    edges: Sequence[Tuple[Node, Node]],
    left_quota: Dict[Node, int],
    right_quota: Dict[Node, int],
) -> List[int]:
    """Select edge indices so each node is matched exactly its quota.

    Args:
        edges: bipartite edges ``(left, right)``; parallel edges are
            allowed and are distinguished by their index.
        left_quota: required number of selected edges at each left node.
        right_quota: required number of selected edges at each right
            node.  ``sum(left_quota.values())`` must equal
            ``sum(right_quota.values())``.

    Returns:
        Indices into ``edges`` of the selected subgraph.

    Raises:
        InfeasibleMatchingError: if no exact-quota subgraph exists.
    """
    demand_left = sum(left_quota.values())
    demand_right = sum(right_quota.values())
    if demand_left != demand_right:
        raise InfeasibleMatchingError(
            f"total left quota {demand_left} != total right quota {demand_right}"
        )

    net = FlowNetwork()
    source, sink = ("__source__",), ("__sink__",)
    for left, quota in left_quota.items():
        net.add_edge(source, ("L", left), quota)
    for right, quota in right_quota.items():
        net.add_edge(("R", right), sink, quota)
    handles = [net.add_edge(("L", u), ("R", v), 1) for u, v in edges]

    value = net.max_flow(source, sink)
    if value != demand_left:
        raise InfeasibleMatchingError(
            f"max flow {value} < required {demand_left}: quotas are infeasible"
        )
    return [i for i, h in enumerate(handles) if net.flow_on(h) == 1]


class QuotaPeeler:
    """One exact-quota peel over a flow network on dense int indices.

    The array-backend twin of one :func:`degree_constrained_subgraph`
    call: the network is built over int node indices instead of
    interned labels, and the Dinic search is vectorized where rows are
    long.  :meth:`split` builds one peeler per odd level of the Euler
    partition.

    Byte-identity argument: arc order per node is the insertion order,
    which matches the order ``degree_constrained_subgraph`` uses for
    the same edges (quota arc first, then unit arcs in edge order), and
    Dinic's augmentations depend only on the residual graph and that
    order.  Hence :meth:`peel` performs exactly the augmentations the
    object engine performs on its freshly built network, and returns
    exactly the same selection.
    """

    def __init__(
        self,
        left_quota: Sequence[int],
        right_quota: Sequence[int],
        edge_left: Sequence[int],
        edge_right: Sequence[int],
    ) -> None:
        """Build the network.

        Args:
            left_quota: quota per left node index.
            right_quota: quota per right node index.
            edge_left / edge_right: endpoint indices of unit edge ``k``.
        """
        num_left = len(left_quota)
        num_right = len(right_quota)
        self._sink = 1 + num_left + num_right
        self._demand = sum(left_quota)
        if self._demand != sum(right_quota):
            raise InfeasibleMatchingError(
                f"total left quota {self._demand} != "
                f"total right quota {sum(right_quota)}"
            )
        # Arc layout (twin of handle h is h ^ 1), in the insertion
        # order degree_constrained_subgraph uses: source->L quota arcs,
        # R->sink quota arcs, then unit arcs in edge order.
        self._unit_base = 2 * (num_left + num_right)
        to: List[int] = []
        cap: List[int] = []
        adj: List[List[int]] = [[] for _ in range(self._sink + 1)]
        for i, q in enumerate(left_quota):
            h = len(to)
            to.extend((1 + i, 0))
            cap.extend((q, 0))
            adj[0].append(h)
            adj[1 + i].append(h + 1)
        for j, q in enumerate(right_quota):
            h = len(to)
            to.extend((self._sink, 1 + num_left + j))
            cap.extend((q, 0))
            adj[1 + num_left + j].append(h)
            adj[self._sink].append(h + 1)
        for l, r in zip(edge_left, edge_right):
            h = len(to)
            to.extend((1 + num_left + r, 1 + l))
            cap.extend((1, 0))
            adj[1 + l].append(h)
            adj[1 + num_left + r].append(h + 1)
        self._to = to
        self._cap = cap
        self._adj = adj
        self._head_np = np.array(to, dtype=np.int64)
        self._pos_np = (np.array(cap, dtype=np.int64) > 0).astype(np.uint8)
        self._rebuild_csr()

    def _rebuild_csr(self) -> None:
        """Build the numpy row gather arrays from the Python rows.

        ``_row_arc_np`` lists every live arc handle exactly once (each
        handle sits in its tail node's row); ``_row_tail_np`` and
        ``_row_head_np`` are its parallel endpoint arrays, precomputed
        here so a BFS step is three flat vector ops instead of a
        per-row gather construction.
        """
        adj = self._adj
        ptr = [0]
        flat: List[int] = []
        tails: List[int] = []
        for v, row in enumerate(adj):
            flat.extend(row)
            tails.extend([v] * len(row))
            ptr.append(len(flat))
        self._row_ptr_np = np.array(ptr, dtype=np.int64)
        self._row_arc_np = np.array(flat, dtype=np.int64)
        self._row_tail_np = np.array(tails, dtype=np.int64)
        self._row_head_np = self._head_np[self._row_arc_np]

    def _dinic(self) -> int:
        """Dinic mirror specialized for the quota network.

        Same residual-twin layout (twin of handle ``h`` is ``h ^ 1``),
        phase structure and per-node arc order as
        :meth:`FlowNetwork.max_flow`, so it performs exactly the same
        augmentations.  BFS levels are computed with a vectorized numpy
        gather when the frontier is large (levels are a pure function
        of the residual graph, so any BFS implementation yields the
        same array); the blocking-flow DFS is iterative, with the
        capacity-positivity numpy mirror (``_pos_np``) kept in sync on
        every 0 <-> positive transition so the next BFS sees the
        residual arcs.
        """
        to = self._to
        cap = self._cap
        adj = self._adj
        t = self._sink
        n = t + 1
        row_ptr = self._row_ptr_np
        row_arc = self._row_arc_np
        row_tail = self._row_tail_np
        row_head = self._row_head_np
        pos = self._pos_np
        num_slots = len(row_arc)
        total = 0
        while True:
            # BFS levels.  The level of a node is its residual BFS
            # distance from the source — a pure function of the
            # residual graph — so the scalar and vectorized variants
            # below produce the same array and the choice between them
            # is purely a constant-factor decision.
            if num_slots < _BFS_VECTOR_THRESHOLD:
                level = [-1] * n
                level[0] = 0
                frontier = [0]
                depth = 0
                while frontier:
                    depth += 1
                    nxt: List[int] = []
                    for v in frontier:
                        for h in adj[v]:
                            if cap[h] > 0:
                                w = to[h]
                                if level[w] < 0:
                                    level[w] = depth
                                    nxt.append(w)
                    frontier = nxt
                level_np = np.array(level, dtype=np.int64)
            else:
                pos_row = pos[row_arc] != 0
                level_np = np.full(n, -1, dtype=np.int64)
                level_np[0] = 0
                fmask = np.zeros(n, dtype=bool)
                fmask[0] = True
                depth = 0
                while fmask.any():
                    depth += 1
                    heads = row_head[pos_row & fmask[row_tail]]
                    seen = np.zeros(n, dtype=bool)
                    seen[heads] = True
                    fmask = seen & (level_np < 0)
                    level_np[fmask] = depth
                level = level_np.tolist()
            if level[t] < 0:
                return total
            # ``level`` (list) serves the scalar DFS scan, ``level_np``
            # the vectorized one; dead-end markings update both.
            it = [0] * n
            # Iterative blocking-flow DFS.  Behaviorally identical to
            # the object engine's repeated recursive ``_dfs_push``
            # calls: after an augmentation the recursion would unwind
            # to the source and re-descend along the unchanged ``it``
            # pointers, re-taking exactly the kept arcs (caps above the
            # first saturated arc are still positive, levels unchanged)
            # — so truncating the explicit path at that arc and
            # continuing visits the same arcs in the same order,
            # without the recursion depth limit on long zig-zag
            # residual paths.
            # The current-arc scan is hybrid: a short scalar prefix,
            # then a vectorized first-admissible-arc search (argmax on
            # the same cap>0 / level==lv predicate over the CSR row
            # slice) — both find the *same* first admissible arc, so
            # the augmentation sequence is unchanged.
            path = [0]
            arcs_stack: List[int] = []
            while path:
                v = path[-1]
                if v == t:
                    pushed = min(cap[h] for h in arcs_stack)
                    cut = len(arcs_stack)
                    for idx, h in enumerate(arcs_stack):
                        c = cap[h] - pushed
                        cap[h] = c
                        if c == 0:
                            pos[h] = 0
                            if idx < cut:
                                cut = idx
                        tw = h ^ 1
                        if cap[tw] == 0:
                            pos[tw] = 1
                        cap[tw] += pushed
                    total += pushed
                    del path[cut + 1 :]
                    del arcs_stack[cut:]
                    continue
                row = adj[v]
                nrow = len(row)
                i = it[v]
                lv = level[v] + 1
                found = -1
                scan_end = i + _DFS_SCALAR_PREFIX
                if scan_end > nrow:
                    scan_end = nrow
                while i < scan_end:
                    h = row[i]
                    if cap[h] > 0 and level[to[h]] == lv:
                        found = h
                        break
                    i += 1
                if found < 0 and i < nrow:
                    if nrow - i >= _DFS_VECTOR_THRESHOLD:
                        start = int(row_ptr[v]) + i
                        end = start + (nrow - i)
                        seg = row_arc[start:end]
                        cand = (pos[seg] != 0) & (level_np[row_head[start:end]] == lv)
                        j = int(cand.argmax())
                        if cand[j]:
                            i += j
                            found = row[i]
                        else:
                            i = nrow
                    else:
                        while i < nrow:
                            h = row[i]
                            if cap[h] > 0 and level[to[h]] == lv:
                                found = h
                                break
                            i += 1
                if found >= 0:
                    it[v] = i
                    path.append(to[found])
                    arcs_stack.append(found)
                    continue
                it[v] = i
                level[v] = -1
                level_np[v] = -1
                path.pop()
                if path:
                    it[path[-1]] += 1
                    arcs_stack.pop()

    def peel(self) -> List[int]:
        """Extract one exact-quota subgraph.

        Returns:
            Ascending indices of the selected edges — the same value
            ``degree_constrained_subgraph`` returns for the same edges
            and quotas.

        Raises:
            InfeasibleMatchingError: if the quotas cannot be met.
        """
        value = self._dinic()
        if value != self._demand:
            raise InfeasibleMatchingError(
                f"max flow {value} < required {self._demand}: quotas are infeasible"
            )
        # A unit arc ends at residual (1, 0) if unpicked or (0, 1) if
        # picked, so "picked" is exactly "forward residual is zero".
        forward = self._pos_np[self._unit_base :: 2]
        return np.flatnonzero(forward == 0).tolist()

    @classmethod
    def split(
        cls,
        left_quota: Sequence[int],
        right_quota: Sequence[int],
        edge_left: Sequence[int],
        edge_right: Sequence[int],
        parts: int,
    ) -> List[List[int]]:
        """Partition the edges into ``parts`` exact-quota subgraphs.

        The int twin of :func:`quota_split`, with left node ``i`` and
        right node ``j`` standing for the ``i``-th and ``j``-th keys of
        its quota dicts; both return the same parts in the same order.
        Each odd level peels through ``cls``, so a subclass sees every
        flow.

        Args:
            left_quota / right_quota: quota ``q_v`` per node index.
            edge_left / edge_right: endpoint indices of edge ``k``.
            parts: the number ``D`` of parts; every node's degree must
                be exactly ``q_v·D``.

        Returns:
            ``D`` lists of ascending edge indices; in each, node ``v``
            has exactly ``q_v`` edges.

        Raises:
            SolverError: if some degree is not ``q_v·D``.
        """
        num_left = len(left_quota)
        degree = [0] * (num_left + len(right_quota))
        for v in edge_left:
            degree[v] += 1
        for v in edge_right:
            degree[num_left + v] += 1
        quota = list(left_quota) + list(right_quota)
        for v, (d, q) in enumerate(zip(degree, quota)):
            if d != q * parts:
                side = "left" if v < num_left else "right"
                index = v if v < num_left else v - num_left
                raise SolverError(
                    f"{side} node {index} has degree {d}, not "
                    f"{q}·{parts}: no {parts} exact-quota parts"
                )

        lefts = np.asarray(edge_left, dtype=np.int64)
        rights = np.asarray(edge_right, dtype=np.int64)
        right_nodes = rights + num_left
        out: List[List[int]] = []
        stack = [(np.arange(len(lefts)), parts)] if parts else []
        while stack:
            part, d = stack.pop()
            if d == 1:
                out.append(part.tolist())
            elif d % 2:
                peeler = cls(
                    left_quota,
                    right_quota,
                    lefts[part].tolist(),
                    rights[part].tolist(),
                )
                picked = np.zeros(len(part), dtype=bool)
                try:
                    picked[peeler.peel()] = True
                except InfeasibleMatchingError as exc:
                    raise SolverError(f"peel at {d} parts infeasible: {exc}") from exc
                stack.append((part[~picked], d - 1))
                stack.append((part[picked], 1))
            else:
                in_b = _alternate_trails(lefts[part], right_nodes[part], len(degree))
                stack.append((part[in_b], d // 2))
                stack.append((part[~in_b], d // 2))
        return out


def _alternate_trails(
    lo: NDArray[Any], hi: NDArray[Any], num_nodes: int
) -> NDArray[Any]:
    """Split a bipartite multigraph with even degrees along closed trails.

    Edge ``i`` joins nodes ``lo[i]`` and ``hi[i]``.  Start nodes are
    taken in index order; from each, the walk follows the current
    node's first unused edge (in edge order) until it reaches a node
    with no unused edge, which with even degrees is the start.  Edges
    alternate between the halves, ``A`` first.  A closed trail in a
    bipartite graph has even length, so every visit pairs one ``A``
    edge with one ``B`` edge, and each half has exactly half of every
    node's degree.

    Returns:
        A boolean mask, true for the edges of half ``B``.
    """
    size = len(lo)
    # Incidence rows as one CSR: a stable sort by node keeps each row
    # in edge order (left and right node indices are disjoint).
    ends = np.concatenate((lo, hi))
    slots = (np.argsort(ends, kind="stable") % size).tolist()
    bounds = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=num_nodes), out=bounds[1:])
    cursor = bounds[:-1].tolist()
    row_end = bounds[1:].tolist()
    other = (lo + hi).tolist()
    used = bytearray(size)
    in_b = bytearray(size)
    for start in range(num_nodes):
        v = start
        flag = 0
        while True:
            i = cursor[v]
            n = row_end[v]
            while i < n and used[slots[i]]:
                i += 1
            if i == n:
                break
            e = slots[i]
            cursor[v] = i + 1
            used[e] = 1
            in_b[e] = flag
            flag ^= 1
            v = other[e] - v
    return np.frombuffer(in_b, dtype=np.bool_)


def quota_split(
    edges: Sequence[Tuple[Node, Node]],
    left_quota: Dict[Node, int],
    right_quota: Dict[Node, int],
    parts: int,
) -> List[List[int]]:
    """Partition a bipartite multigraph into ``parts`` exact-quota parts.

    Every node ``v`` must have degree exactly ``q_v·D`` (``D =
    parts``).  The graph is split on an explicit stack.  At even ``D``
    the walk of :func:`_alternate_trails` halves it along closed trails
    and both halves recurse with ``D/2`` (the first half's parts come
    first).  At odd ``D`` one :func:`degree_constrained_subgraph` call
    peels an exact-quota part, which Lemma 4.1's fractional flow
    ``1/D`` per edge shows exists; it comes first, then the parts of
    the rest with ``D − 1``.  Parts with ``D = 1`` are emitted as they
    are.

    This is the object-engine reference of :meth:`QuotaPeeler.split`:
    the trail walk runs over node labels (start nodes in the quota
    dicts' key order, left before right) and each odd level builds a
    fresh :class:`FlowNetwork`.

    Returns:
        ``parts`` lists of ascending indices into ``edges``.

    Raises:
        SolverError: if some degree is not ``q_v·D``.
    """
    degree: Dict[Tuple[int, Node], int] = {(0, u): 0 for u in left_quota}
    degree.update({(1, v): 0 for v in right_quota})
    for u, v in edges:
        degree[(0, u)] = degree.get((0, u), 0) + 1
        degree[(1, v)] = degree.get((1, v), 0) + 1
    for (side, node), d in degree.items():
        q = (right_quota if side else left_quota).get(node, 0)
        if d != q * parts:
            raise SolverError(
                f"{'right' if side else 'left'} node {node!r} has degree {d}, "
                f"not {q}·{parts}: no {parts} exact-quota parts"
            )

    nodes = list(degree)
    out: List[List[int]] = []
    stack = [(list(range(len(edges))), parts)] if parts else []
    while stack:
        part, d = stack.pop()
        if d == 1:
            out.append(part)
        elif d % 2:
            try:
                picked = set(degree_constrained_subgraph(
                    [edges[k] for k in part], left_quota, right_quota
                ))
            except InfeasibleMatchingError as exc:
                raise SolverError(f"peel at {d} parts infeasible: {exc}") from exc
            rest = [k for i, k in enumerate(part) if i not in picked]
            stack.append((rest, d - 1))
            stack.append(([k for i, k in enumerate(part) if i in picked], 1))
        else:
            a, b = _halve_labels(part, edges, nodes)
            stack.append((b, d // 2))
            stack.append((a, d // 2))
    return out


def _halve_labels(
    part: List[int],
    edges: Sequence[Tuple[Node, Node]],
    nodes: List[Tuple[int, Node]],
) -> Tuple[List[int], List[int]]:
    """:func:`_alternate_trails` over node labels.

    ``nodes`` lists ``(0, left)`` and ``(1, right)`` keys in start
    order; returns the halves ``A`` and ``B`` of ``part``, each in
    ``part`` order.
    """
    rows: Dict[Tuple[int, Node], List[int]] = {v: [] for v in nodes}
    for k in part:
        u, v = edges[k]
        rows[(0, u)].append(k)
        rows[(1, v)].append(k)
    cursor = dict.fromkeys(nodes, 0)
    used: Set[int] = set()
    in_b: Set[int] = set()
    for start in nodes:
        node = start
        flag = False
        while True:
            row = rows[node]
            i = cursor[node]
            while i < len(row) and row[i] in used:
                i += 1
            if i == len(row):
                break
            k = row[i]
            cursor[node] = i + 1
            used.add(k)
            if flag:
                in_b.add(k)
            flag = not flag
            u, v = edges[k]
            node = (1, v) if node[0] == 0 else (0, u)
    return [k for k in part if k not in in_b], [k for k in part if k in in_b]


def maximum_bipartite_matching(
    edges: Sequence[Tuple[Node, Node]]
) -> List[int]:
    """Maximum cardinality matching of a bipartite edge list.

    A thin convenience built on the same flow core (quota 1 per node,
    but quotas need not be met exactly).  Returns selected edge
    indices.
    """
    net = FlowNetwork()
    source, sink = ("__source__",), ("__sink__",)
    # Sorted so network construction (and thus the returned matching)
    # does not depend on hash randomization.
    lefts = sorted({u for u, _ in edges}, key=repr)
    rights = sorted({v for _, v in edges}, key=repr)
    for left in lefts:
        net.add_edge(source, ("L", left), 1)
    for right in rights:
        net.add_edge(("R", right), sink, 1)
    handles = [net.add_edge(("L", u), ("R", v), 1) for u, v in edges]
    net.max_flow(source, sink)
    return [i for i, h in enumerate(handles) if net.flow_on(h) == 1]
