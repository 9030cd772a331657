"""Tests for the shared connected-subset enumeration."""

from itertools import combinations
from typing import Iterator, List, Sequence, Tuple

from repro.core.lower_bounds import lb2_exact_witness
from repro.exact.subsets import connected_subsets, mask_members, multiplicity_table
from tests.conftest import random_instance


def brute_connected_subsets(adjacency, min_size=2):
    """Reference enumeration: filter all combinations by connectivity."""
    n = len(adjacency)
    adj = [set(u for u in row if u != i) for i, row in enumerate(adjacency)]
    out = set()
    for size in range(min_size, n + 1):
        for combo in combinations(range(n), size):
            members = set(combo)
            seen = {combo[0]}
            stack = [combo[0]]
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if u in members and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if seen == members:
                out.add(combo)
    return out


_FREE, _IN_SUBSET, _EXCLUDED, _IN_FRONTIER = 0, 1, 2, 3


def reference_connected_subsets(
    adjacency: Sequence[Sequence[int]], min_size: int = 2
) -> Iterator[Tuple[int, ...]]:
    """The recursive include/exclude enumeration whose order the
    counting one must keep: one nested generator per decision, each
    subset yielded as a sorted tuple."""
    n = len(adjacency)
    adj: List[List[int]] = [
        sorted({u for u in row if u != i and 0 <= u < n})
        for i, row in enumerate(adjacency)
    ]
    status = [_FREE] * n

    def extend(
        root: int, subset: List[int], frontier: List[int]
    ) -> Iterator[Tuple[int, ...]]:
        if not frontier:
            if len(subset) >= min_size:
                yield tuple(sorted(subset))
            return
        v = frontier[0]
        rest = frontier[1:]
        status[v] = _IN_SUBSET
        added = [u for u in adj[v] if u > root and status[u] == _FREE]
        for u in added:
            status[u] = _IN_FRONTIER
        subset.append(v)
        yield from extend(root, subset, rest + added)
        subset.pop()
        for u in added:
            status[u] = _FREE
        status[v] = _EXCLUDED
        yield from extend(root, subset, rest)
        status[v] = _IN_FRONTIER

    for root in range(n):
        status[root] = _IN_SUBSET
        frontier = [u for u in adj[root] if u > root]
        for u in frontier:
            status[u] = _IN_FRONTIER
        yield from extend(root, [root], frontier)
        for u in frontier:
            status[u] = _FREE
        status[root] = _FREE


def adjacency_table(adjacency):
    """Adjacency lists (each edge listed at both ends) as a
    multiplicity table."""
    n = len(adjacency)
    return multiplicity_table(
        n, [(u, v) for u, row in enumerate(adjacency) for v in row if u < v]
    )


def enumerate_tuples(adjacency, min_size=2):
    """The counting enumeration's subsets as sorted index tuples."""
    return [
        mask_members(mask)
        for mask, _inside, _caps in connected_subsets(
            adjacency_table(adjacency), [1] * len(adjacency), min_size=min_size
        )
    ]


def instance_table(inst):
    """``(nodes, multiplicity table, capacities)`` in insertion order."""
    nodes = list(inst.graph.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    table = multiplicity_table(
        len(nodes), [(index[u], index[v]) for _eid, u, v in inst.graph.edges()]
    )
    return nodes, table, [inst.capacity(v) for v in nodes]


class TestEnumeration:
    def test_path_graph(self):
        # P4: connected subsets are exactly the contiguous runs.
        adjacency = [[1], [0, 2], [1, 3], [2]]
        got = enumerate_tuples(adjacency)
        assert sorted(got) == [
            (0, 1), (0, 1, 2), (0, 1, 2, 3), (1, 2), (1, 2, 3), (2, 3),
        ]

    def test_no_duplicates_and_matches_brute_force(self):
        # A denser shape: C5 plus a chord and a pendant.
        adjacency = [[1, 4, 2], [0, 2], [1, 3, 0], [2, 4], [3, 0, 5], [4]]
        got = enumerate_tuples(adjacency)
        assert len(got) == len(set(got))
        assert set(got) == brute_connected_subsets(adjacency)

    def test_min_size_one_includes_singletons(self):
        adjacency = [[1], [0], []]
        got = set(enumerate_tuples(adjacency, min_size=1))
        assert (0,) in got and (1,) in got and (2,) in got

    def test_disconnected_graph(self):
        # Two components; no subset may span both.
        adjacency = [[1], [0], [3], [2]]
        assert set(enumerate_tuples(adjacency)) == {(0, 1), (2, 3)}

    def test_duplicate_and_self_entries_ignored(self):
        # Parallel edges change the counts, never the subsets; the
        # diagonal changes neither.
        clean = [[0, 1], [1, 0]]
        messy = [[5, 2], [2, 7]]
        assert list(connected_subsets(clean, [1, 1])) == [(0b11, 1, 2)]
        assert list(connected_subsets(messy, [1, 1])) == [(0b11, 2, 2)]

    def test_order_is_deterministic(self):
        adjacency = [[1, 2, 3], [0, 2], [0, 1, 3], [0, 2]]
        assert enumerate_tuples(adjacency) == enumerate_tuples(adjacency)

    def test_order_matches_recursive_reference(self):
        adjacency = [[1, 4, 2], [0, 2], [1, 3, 0], [2, 4], [3, 0, 5], [4]]
        for min_size in (1, 2):
            assert enumerate_tuples(adjacency, min_size=min_size) == list(
                reference_connected_subsets(adjacency, min_size=min_size)
            )

    def test_counts_are_carried(self):
        # Parallel edges count once each; capacities add up.
        table = [[0, 3, 0], [3, 0, 1], [0, 1, 0]]
        got = {
            mask_members(mask): (inside, caps)
            for mask, inside, caps in connected_subsets(table, [1, 2, 4])
        }
        assert got == {(0, 1): (3, 3), (0, 1, 2): (4, 7), (1, 2): (1, 6)}

    def test_mask_members(self):
        assert mask_members(0) == ()
        assert mask_members(0b101001) == (0, 3, 5)


class TestNodeLifting:
    def test_labels_follow_insertion_order(self):
        inst = random_instance(6, 10, seed=3)
        nodes, table, caps = instance_table(inst)
        for mask, _inside, _caps in connected_subsets(table, caps):
            members = mask_members(mask)
            assert len(members) >= 2
            # Subsets come back in canonical node order.
            assert list(members) == sorted(members)
        witness, _value = lb2_exact_witness(inst)
        indices = [nodes.index(v) for v in witness]
        assert len(indices) >= 2 and indices == sorted(indices)

    def test_counts_match_index_enumeration(self):
        inst = random_instance(6, 10, seed=3)
        nodes, table, caps = instance_table(inst)
        index = {v: i for i, v in enumerate(nodes)}
        adjacency = [[] for _ in nodes]
        for _eid, u, v in inst.graph.edges():
            adjacency[index[u]].append(index[v])
            adjacency[index[v]].append(index[u])
        lifted = list(connected_subsets(table, caps))
        raw = list(reference_connected_subsets(adjacency))
        assert len(lifted) == len(raw)
        for mask, inside, capacity_sum in lifted:
            members = {nodes[i] for i in mask_members(mask)}
            assert inside == sum(
                1 for _eid, u, v in inst.graph.edges()
                if u in members and v in members
            )
            assert capacity_sum == sum(inst.capacity(v) for v in members)
