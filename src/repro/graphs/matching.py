"""Degree-constrained bipartite subgraphs via maximum flow.

This is the "Figure 3" machinery of the paper: Step (4) of the
even-capacity algorithm partitions the oriented bipartite graph ``H``
into ``Δ'`` subgraphs in which each copy ``v_out``/``v_in`` is matched
*exactly* ``c_v/2`` times.  Feasibility of one such subgraph follows
from a fractional argument (Lemma 4.1) and integrality of max-flow.

* :meth:`QuotaPeeler.peel` extracts one exact-quota subgraph (a
  ``b``-matching with quotas per left and per right node) by Dinic's
  max-flow over dense int indices.
* :meth:`QuotaPeeler.split` partitions a graph whose degrees are
  ``q_v·D`` into ``D`` exact-quota parts by Euler partition (Gabow
  1976; Alon, IPL 2003): even ``D`` halves the graph along alternating
  closed trails, odd ``D`` peels one part by max-flow.  About
  ``log₂ D`` flows replace the paper's ``D`` peels.

**Padding.**  A caller that fills every degree up to ``q_v·D`` (the
Theorem 4.1 kernel's self-loops and pairing edges, the König colorer's
dummy edges) passes that padding as ``pads``: one count per
``(left, right)`` pair of node indices, never as edges.  Padding has
no edge index and appears in no returned part; it only fills quotas.
At even ``D`` a count ``c`` gives ``⌊c/2⌋`` to each half by
arithmetic (two parallel edges are a closed trail of length 2), and
each odd count is walked as one *virtual edge* placed after the
part's real edges; the half that takes it gets the extra unit.  At odd
``D`` each pair is one capacity arc of the flow network
(:meth:`QuotaPeeler.pad_flows` reads how many units the peel took).
So the walk and the peels cost what the real edges and the odd counts
cost, not what the padding does.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import SolverError

#: Padding: a count of unit fillers per ``(left, right)`` index pair.
Pads = Mapping[Tuple[int, int], int]


class InfeasibleMatchingError(ValueError):
    """Raised when no subgraph meets every quota exactly."""


class QuotaPeeler:
    """One exact-quota peel over a flow network on dense int indices.

    The network is Figure 3's: the source feeds each left node its
    quota, each right node drains its quota into the sink, every edge
    is a unit arc from its left to its right end, and every padding
    pair is one arc whose capacity is its count.  :meth:`split` builds
    one peeler per odd level of the Euler partition.

    Arc order per node is the insertion order (quota arc first, then
    unit arcs in edge order, then pad arcs in pad order), and Dinic's
    augmentations depend only on the residual graph and that order, so
    :meth:`peel` is a pure function of the quotas, the edge list and
    the padding.
    """

    def __init__(
        self,
        left_quota: Sequence[int],
        right_quota: Sequence[int],
        edge_left: Sequence[int],
        edge_right: Sequence[int],
        pads: Optional[Pads] = None,
    ) -> None:
        """Build the network.

        Args:
            left_quota: quota per left node index.
            right_quota: quota per right node index.
            edge_left / edge_right: endpoint indices of unit edge ``k``.
            pads: padding count per ``(left, right)`` pair; each pair
                is one arc of that capacity, after the unit arcs.

        Raises:
            InfeasibleMatchingError: if the quota totals differ.
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
        # Arc layout (twin of handle h is h ^ 1), in insertion order:
        # source->L quota arcs, R->sink quota arcs, unit arcs in edge
        # order, then pad arcs in pad order.  Each block is written by
        # slice assignment; each node's row is its quota arc, then its
        # unit arcs in edge order, then its pad arcs in pad order.
        pads = pads or {}
        sink = self._sink
        quota_end = 2 * num_left
        unit_base = self._unit_base = 2 * (num_left + num_right)
        pad_base = self._pad_base = unit_base + 2 * len(edge_left)
        size = pad_base + 2 * len(pads)
        to = [0] * size
        to[0:quota_end:2] = range(1, 1 + num_left)
        to[quota_end:unit_base:2] = [sink] * num_right
        to[quota_end + 1 : unit_base : 2] = range(1 + num_left, sink)
        to[unit_base:pad_base:2] = [1 + num_left + r for r in edge_right]
        to[unit_base + 1 : pad_base : 2] = [1 + l for l in edge_left]
        to[pad_base::2] = [1 + num_left + r for _, r in pads]
        to[pad_base + 1 :: 2] = [1 + l for l, _ in pads]
        cap = [0] * size
        cap[0:quota_end:2] = left_quota
        cap[quota_end:unit_base:2] = right_quota
        cap[unit_base:pad_base:2] = [1] * len(edge_left)
        cap[pad_base::2] = pads.values()
        adj: List[List[int]] = [list(range(0, quota_end, 2))]
        adj += [[h] for h in range(1, quota_end, 2)]
        adj += [[h] for h in range(quota_end, unit_base, 2)]
        adj.append(list(range(quota_end + 1, unit_base, 2)))
        left_rows = adj[1 : 1 + num_left]
        right_rows = adj[1 + num_left : sink]
        for h, l, r in zip(range(unit_base, pad_base, 2), edge_left, edge_right):
            left_rows[l].append(h)
            right_rows[r].append(h + 1)
        for h, (l, r) in zip(range(pad_base, size, 2), pads):
            left_rows[l].append(h)
            right_rows[r].append(h + 1)
        self._to = to
        self._cap = cap
        self._adj = adj

    def _dinic(self) -> int:
        """Dinic's algorithm specialized for the quota network.

        Each phase levels the residual graph by BFS (twin of handle
        ``h`` is ``h ^ 1``), then pushes a blocking flow along level
        arcs, taking each node's arcs in insertion order.  The BFS runs
        frontier by frontier (levels are a pure function of the
        residual graph, so any BFS order yields the same array); the
        blocking-flow DFS is iterative.
        """
        to = self._to
        cap = self._cap
        adj = self._adj
        t = self._sink
        n = t + 1
        total = 0
        while True:
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
            if level[t] < 0:
                return total
            it = [0] * n
            # Iterative blocking-flow DFS.  After an augmentation a
            # recursive push would unwind to the source and re-descend
            # along the unchanged ``it`` pointers, re-taking exactly the
            # kept arcs (caps above the first saturated arc are still
            # positive, levels unchanged) — so truncating the explicit
            # path at that arc and continuing visits the same arcs in
            # the same order, without the recursion depth limit on long
            # zig-zag residual paths.
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
                        if c == 0 and idx < cut:
                            cut = idx
                        cap[h ^ 1] += pushed
                    total += pushed
                    del path[cut + 1 :]
                    del arcs_stack[cut:]
                    continue
                row = adj[v]
                nrow = len(row)
                i = it[v]
                lv = level[v] + 1
                while i < nrow:
                    h = row[i]
                    if cap[h] > 0 and level[to[h]] == lv:
                        break
                    i += 1
                it[v] = i
                if i < nrow:
                    h = row[i]
                    path.append(to[h])
                    arcs_stack.append(h)
                    continue
                level[v] = -1
                path.pop()
                if path:
                    it[path[-1]] += 1
                    arcs_stack.pop()

    def peel(self) -> List[int]:
        """Extract one exact-quota subgraph.

        Returns:
            Ascending indices of the selected edges; left node ``i``
            has exactly ``left_quota[i]`` of them, right node ``j``
            exactly ``right_quota[j]``, padding included
            (:meth:`pad_flows`).

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
        forward = self._cap[self._unit_base : self._pad_base : 2]
        return [k for k, c in enumerate(forward) if c == 0]

    def pad_flows(self) -> List[int]:
        """After :meth:`peel`: the units of each padding pair (in pad
        order) that the peeled subgraph keeps — each pad arc's flow,
        which is its twin's residual."""
        return self._cap[self._pad_base + 1 :: 2]

    @classmethod
    def split(
        cls,
        left_quota: Sequence[int],
        right_quota: Sequence[int],
        edge_left: Sequence[int],
        edge_right: Sequence[int],
        parts: int,
        pads: Optional[Pads] = None,
    ) -> List[List[int]]:
        """Partition the edges into ``parts`` exact-quota subgraphs.

        The graph is split on an explicit stack.  At even ``D`` the
        walk of :func:`_alternate_trails` halves it along closed trails
        and both halves recurse with ``D/2`` (the first half's parts
        come first).  At odd ``D`` one peel extracts an exact-quota
        part, which Lemma 4.1's fractional flow ``1/D`` per edge shows
        exists; it comes first, then the parts of the rest with
        ``D − 1``.  Parts with ``D = 1`` are emitted as they are.  Each
        odd level peels through ``cls``, so a subclass sees every flow.

        Padding (see the module docstring) travels with each part as
        counts: at even ``D`` each count is halved, its odd unit walked
        as a virtual edge after the part's real edges; at odd ``D`` the
        peel's pad arcs say how many units the peeled part keeps.  With
        no padding the parts are exactly those of the walk and peels
        over the edges alone.

        Args:
            left_quota / right_quota: quota ``q_v`` per node index.
            edge_left / edge_right: endpoint indices of edge ``k``.
            parts: the number ``D`` of parts; every node's degree,
                padding included, must be exactly ``q_v·D``.
            pads: padding count per ``(left, right)`` pair, in the
                order its virtual edges and pad arcs take.

        Returns:
            ``D`` lists of ascending edge indices; in each, node ``v``
            has at most ``q_v`` edges, and exactly ``q_v`` less its
            share of the padding.

        Raises:
            SolverError: if some degree is not ``q_v·D``.
        """
        num_left = len(left_quota)
        left_degree = Counter(edge_left)
        right_degree = Counter(edge_right)
        pad: Pads = pads or {}
        for (l, r), c in pad.items():
            left_degree[l] += c
            right_degree[r] += c
        degree = [left_degree[v] for v in range(num_left)]
        degree += [right_degree[v] for v in range(len(right_quota))]
        quota = list(left_quota) + list(right_quota)
        for v, (d, q) in enumerate(zip(degree, quota)):
            if d != q * parts:
                side = "left" if v < num_left else "right"
                index = v if v < num_left else v - num_left
                raise SolverError(
                    f"{side} node {index} has degree {d}, not "
                    f"{q}·{parts}: no {parts} exact-quota parts"
                )

        # Slots m.. of the walk's endpoint arrays hold the virtual edges
        # of the level being walked.
        m = len(edge_left)
        lo = list(edge_left) + [0] * len(pad)
        hi = [num_left + v for v in edge_right] + [0] * len(pad)
        out: List[List[int]] = []
        stack = [(list(range(m)), pad, parts)] if parts else []
        while stack:
            part, pad, d = stack.pop()
            if d == 1:
                out.append(part)
            elif d % 2:
                peeler = cls(
                    left_quota,
                    right_quota,
                    [edge_left[k] for k in part],
                    [edge_right[k] for k in part],
                    pad,
                )
                try:
                    picked = peeler.peel()
                except InfeasibleMatchingError as exc:
                    raise SolverError(f"peel at {d} parts infeasible: {exc}") from exc
                mark = bytearray(len(part))
                for i in picked:
                    mark[i] = 1
                rest = {
                    pair: c - f
                    for (pair, c), f in zip(pad.items(), peeler.pad_flows())
                    if c > f
                }
                stack.append(([k for k, x in zip(part, mark) if not x], rest, d - 1))
                stack.append(([part[i] for i in picked], {}, 1))
            else:
                a, b, pad_a, pad_b = _halve(part, pad, lo, hi, m, num_left, len(degree))
                stack.append((b, pad_b, d // 2))
                stack.append((a, pad_a, d // 2))
        return out


def _halve(
    part: List[int],
    pad: Pads,
    lo: List[int],
    hi: List[int],
    base: int,
    num_left: int,
    num_nodes: int,
) -> Tuple[List[int], List[int], Pads, Pads]:
    """One even level of :meth:`QuotaPeeler.split`: ``(A, B, pads of
    A, pads of B)``.

    Each count ``c`` gives ``⌊c/2⌋`` to both halves.  Each odd count
    becomes a virtual edge, written into slots ``base, base + 1, ...``
    of ``lo``/``hi`` in pad order and walked after ``part``'s real
    edges; the half it lands in gets the extra unit.  A node's real
    degree and its odd counts have the parity of its full degree, so
    the walked degrees are even and :func:`_alternate_trails` applies
    unchanged.
    """
    k = base
    for (l, r), c in pad.items():
        if c % 2:
            lo[k] = l
            hi[k] = num_left + r
            k += 1
    walk = part + list(range(base, k)) if k > base else part
    a, b = _alternate_trails(walk, lo, hi, num_nodes)
    # The virtual edges end each half, in slot order.
    in_a = bytearray(k - base)
    while a and a[-1] >= base:
        in_a[a.pop() - base] = 1
    while b and b[-1] >= base:
        b.pop()
    pad_a: Dict[Tuple[int, int], int] = {}
    pad_b: Dict[Tuple[int, int], int] = {}
    j = 0
    for pair, c in pad.items():
        ca = cb = c // 2
        if c % 2:
            if in_a[j]:
                ca += 1
            else:
                cb += 1
            j += 1
        if ca:
            pad_a[pair] = ca
        if cb:
            pad_b[pair] = cb
    return a, b, pad_a, pad_b


def _alternate_trails(
    part: List[int], lo: Sequence[int], hi: Sequence[int], num_nodes: int
) -> Tuple[List[int], List[int]]:
    """Split a bipartite multigraph with even degrees along closed trails.

    The graph is the edges ``k`` of ``part``, edge ``k`` joining left
    node ``lo[k]`` and right node ``hi[k]`` (left indices first).
    Start nodes are taken in index order; from each, the walk follows
    the current node's first unused edge (in ``part`` order) until it
    reaches a node with no unused edge, which with even degrees is the
    start.  Edges alternate between the halves, ``A`` first.  A closed
    trail in a bipartite graph has even length, so every visit pairs
    one ``A`` edge with one ``B`` edge, and each half has exactly half
    of every node's degree.

    Only a left node starts a walk: once every left node has been a
    start, every edge is used.  So the walk alternates sides, an edge
    taken from the left is an ``A`` edge and one taken from the right
    a ``B`` edge, and each iteration takes one of each.  Only the
    start can run out of unused edges: every other node is left as
    often as it is entered, so a right node always has one.  The walk
    counts the edges still to take and stops taking starts at 0, so
    the start nodes past the last one with an unused edge cost nothing.

    Returns:
        The halves ``A`` and ``B`` of ``part``, each in ``part`` order.
    """
    rows: List[List[int]] = [[] for _ in range(num_nodes)]
    for k in part:
        rows[lo[k]].append(k)
        rows[hi[k]].append(k)
    cursor = [0] * num_nodes
    used = bytearray(len(lo))
    in_b = bytearray(len(lo))
    left = len(part)
    for start in range(num_nodes):
        if not left:
            break
        v = start
        while True:
            row = rows[v]
            i = cursor[v]
            n = len(row)
            while i < n and used[row[i]]:
                i += 1
            if i == n:
                break
            k = row[i]
            cursor[v] = i + 1
            used[k] = 1
            v = hi[k]
            row = rows[v]
            i = cursor[v]
            while used[row[i]]:
                i += 1
            k = row[i]
            cursor[v] = i + 1
            used[k] = 1
            in_b[k] = 1
            v = lo[k]
            left -= 2
    return [k for k in part if not in_b[k]], [k for k in part if in_b[k]]
