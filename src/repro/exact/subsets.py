"""Deterministic enumeration of connected node subsets, with their counts.

Both exact machines in this repo maximize or prune over node subsets:

* :func:`repro.core.lower_bounds.lb2_exact_witness` maximizes the
  Lemma 3.1 density bound ``ceil(|E(S)| / floor(Σ c_v / 2))`` over
  subsets ``S``;
* the branch-and-bound solver (:mod:`repro.exact.search`) precomputes
  the same bound per subset to prune its color search.

Restricting the enumeration to *connected* subsets loses nothing: if
``S`` splits into components ``S₁, …, S_k`` with ``a_i`` internal edges
and half-capacities ``h_i``, then ``floor(Σ c / 2) ≥ Σ h_i`` (the floor
of a sum dominates the sum of floors) and the mediant inequality gives
``ceil(Σ a_i / Σ h_i) ≤ max_i ceil(a_i / h_i)`` — some component is at
least as dense as the union.  Connected enumeration is typically far
smaller than ``2^n`` on sparse instances, and never larger.

There is one enumeration, :func:`connected_subsets`, and it carries
both terms of the bound down its decision tree: including ``v`` in
``S`` adds ``Σ_{u∈S} mult(u, v)`` internal edges and ``c_v`` capacity,
read from an ``n × n`` multiplicity table built once
(:func:`multiplicity_table`).  A subset therefore costs ``O(|S|)``,
never a scan of the edges, and the subsets stream out one at a time.

The enumeration is deterministic: subsets are produced in a fixed order
that depends only on the (sorted) adjacency structure, never on set or
dict iteration order, so witnesses and prune tables are byte-stable
across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple


def multiplicity_table(n: int, edges: Iterable[Tuple[int, int]]) -> List[List[int]]:
    """The symmetric ``n × n`` table of parallel-edge counts.

    ``edges`` yields ``(u, v)`` node-index pairs, one per edge.
    """
    table = [[0] * n for _ in range(n)]
    for u, v in edges:
        table[u][v] += 1
        table[v][u] += 1
    return table


def mask_members(mask: int) -> Tuple[int, ...]:
    """The node indices of a subset bitmask, ascending."""
    members: List[int] = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def connected_subsets(
    multiplicity: Sequence[Sequence[int]],
    capacities: Sequence[int],
    min_size: int = 2,
) -> Iterator[Tuple[int, int, int]]:
    """Yield every connected subset of ``{0, …, n-1}`` exactly once.

    ``multiplicity[u][v]`` counts the edges between nodes ``u`` and
    ``v`` (the diagonal is ignored); ``capacities[v]`` is ``c_v``.
    Each subset comes out as ``(mask, edges_inside, capacity_sum)``:
    bit ``v`` of ``mask`` is set iff ``v ∈ S`` (see
    :func:`mask_members`), ``edges_inside = |E(S)|`` and
    ``capacity_sum = Σ_{v∈S} c_v``.  Subsets smaller than ``min_size``
    are suppressed.

    Enumeration scheme: for each root ``r`` (ascending), enumerate the
    connected subsets whose minimum element is ``r`` by a binary
    include/exclude decision tree over an ordered frontier, include
    first.  Every subset corresponds to exactly one decision leaf (its
    excluded set is forced to be the full outer neighbourhood), so
    there are no duplicates and the order is a pure function of the
    adjacency.  The tree is walked with an explicit trail rather than
    nested generators, so yielding a subset costs ``O(1)``.
    """
    n = len(multiplicity)
    neighbours = [
        sum(1 << u for u in range(n) if u != v and multiplicity[v][u])
        for v in range(n)
    ]

    for root in range(n):
        # Subsets whose smallest node is ``root``: only nodes from the
        # root up may join.  ``seen`` holds every node already in the
        # subset, excluded from it or waiting on the frontier
        # ``queue[head:]``; including ``v = queue[head]`` appends its
        # unseen neighbours, ascending, and excluding it appends
        # nothing.  The root is the first decision; its exclude branch
        # is the empty leaf, which is never yielded.
        allowed = -1 << root
        seen = 1 << root
        queue = [root]
        members: List[int] = []
        mask = inside = capacity = 0
        # One entry per decision on the current path: ``(head, queue
        # length before the include, edges before the include, nodes
        # the include made seen)``, with a queue length of -1 once the
        # decision has flipped to exclude.
        trail: List[Tuple[int, int, int, int]] = []
        head = 0
        while True:
            if head < len(queue):
                v = queue[head]
                fresh = neighbours[v] & allowed & ~seen
                trail.append((head, len(queue), inside, fresh))
                row = multiplicity[v]
                inside += sum([row[u] for u in members])
                members.append(v)
                mask |= 1 << v
                capacity += capacities[v]
                seen |= fresh
                queue.extend(mask_members(fresh))
                head += 1
                continue
            if members and len(members) >= min_size:
                yield mask, inside, capacity
            # Backtrack to the deepest include and take its exclude branch.
            while trail:
                at, length, before, fresh = trail.pop()
                if length < 0:
                    continue
                v = queue[at]
                seen ^= fresh
                del queue[length:]
                members.pop()
                mask ^= 1 << v
                capacity -= capacities[v]
                inside = before
                trail.append((at, -1, 0, 0))
                head = at + 1
                break
            else:
                break
