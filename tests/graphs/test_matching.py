"""Tests for degree-constrained bipartite subgraphs (Figure 3 machinery)."""

import random

import pytest

from repro.graphs.matching import InfeasibleMatchingError, QuotaPeeler


def quota_peel(edges, left_quota, right_quota):
    """One :meth:`QuotaPeeler.peel` over labelled nodes: left and right
    indices follow the quota dicts' insertion order."""
    left = {v: i for i, v in enumerate(left_quota)}
    right = {v: j for j, v in enumerate(right_quota)}
    peeler = QuotaPeeler(
        list(left_quota.values()),
        list(right_quota.values()),
        [left[u] for u, _v in edges],
        [right[v] for _u, v in edges],
    )
    return peeler.peel()


def check_quotas(edges, picked, left_quota, right_quota):
    deg_l = {v: 0 for v in left_quota}
    deg_r = {v: 0 for v in right_quota}
    for i in picked:
        u, v = edges[i]
        deg_l[u] += 1
        deg_r[v] += 1
    assert deg_l == left_quota
    assert deg_r == right_quota


class TestQuotaPeel:
    def test_perfect_matching_square(self):
        edges = [("l0", "r0"), ("l0", "r1"), ("l1", "r0"), ("l1", "r1")]
        picked = quota_peel(
            edges, {"l0": 1, "l1": 1}, {"r0": 1, "r1": 1}
        )
        check_quotas(edges, picked, {"l0": 1, "l1": 1}, {"r0": 1, "r1": 1})

    def test_quota_two_uses_parallel_edges(self):
        edges = [("l", "r")] * 3
        picked = quota_peel(edges, {"l": 2}, {"r": 2})
        assert len(picked) == 2

    def test_mismatched_totals_rejected(self):
        with pytest.raises(InfeasibleMatchingError):
            quota_peel([("l", "r")], {"l": 1}, {"r": 2})

    def test_infeasible_structure_rejected(self):
        # Both left nodes only reach r0, which can absorb one.
        edges = [("l0", "r0"), ("l1", "r0")]
        with pytest.raises(InfeasibleMatchingError):
            quota_peel(
                edges, {"l0": 1, "l1": 1}, {"r0": 1, "r1": 1}
            )

    def test_zero_quota_nodes_allowed(self):
        edges = [("l0", "r0"), ("l1", "r0")]
        picked = quota_peel(
            edges, {"l0": 1, "l1": 0}, {"r0": 1}
        )
        assert picked == [0]

    @pytest.mark.parametrize("seed", range(8))
    def test_regular_bipartite_always_feasible(self, seed):
        """A d-regular bipartite multigraph has an exact 1-per-node subgraph."""
        rng = random.Random(seed)
        n, d = 6, 4
        lefts = [f"l{i}" for i in range(n)]
        rights = [f"r{i}" for i in range(n)]
        # Build d-regular by unioning d random perfect matchings.
        edges = []
        for _ in range(d):
            perm = rights[:]
            rng.shuffle(perm)
            edges.extend(zip(lefts, perm))
        quota_l = {v: d // 2 for v in lefts}
        quota_r = {v: d // 2 for v in rights}
        picked = quota_peel(edges, quota_l, quota_r)
        check_quotas(edges, picked, quota_l, quota_r)
