"""Max-flow: known answers for the Edmonds–Karp oracle, and the quota
peeler's Dinic checked against it on random quota networks."""

import random

import pytest

from tests.flow_oracle import assert_peel_agrees, edmonds_karp


class TestBasicFlows:
    def test_single_edge(self):
        assert edmonds_karp([("s", "t", 5)], "s", "t") == 5

    def test_no_path(self):
        assert edmonds_karp([("s", "a", 5), ("b", "t", 5)], "s", "t") == 0

    def test_series_bottleneck(self):
        assert edmonds_karp([("s", "a", 7), ("a", "t", 3)], "s", "t") == 3

    def test_parallel_paths(self):
        edges = [("s", "a", 2), ("a", "t", 2), ("s", "b", 3), ("b", "t", 3)]
        assert edmonds_karp(edges, "s", "t") == 5

    def test_classic_crossing_network(self):
        # The textbook network where augmenting must use the cross edge.
        edges = [
            ("s", "a", 10),
            ("s", "b", 10),
            ("a", "b", 1),
            ("a", "t", 10),
            ("b", "t", 10),
        ]
        assert edmonds_karp(edges, "s", "t") == 20

    def test_zero_capacity_edge(self):
        assert edmonds_karp([("s", "t", 0)], "s", "t") == 0


def random_quota_network(seed: int):
    """Left quotas in 0..3, right quotas with the same total, and up to
    three random unit edges per unit of demand: some of these networks
    admit an exact-quota peel and some do not."""
    rng = random.Random(seed)
    left = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
    right = [0] * rng.randint(1, 6)
    for _ in range(sum(left)):
        right[rng.randrange(len(right))] += 1
    edges = [
        (rng.randrange(len(left)), rng.randrange(len(right)))
        for _ in range(rng.randint(0, 3 * sum(left) + 2))
    ]
    return left, right, edges


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(10))
    def test_peel_agrees_with_edmonds_karp(self, seed):
        assert_peel_agrees(*random_quota_network(seed))

    def test_networks_cover_both_outcomes(self):
        outcomes = {
            assert_peel_agrees(*random_quota_network(seed)) is None
            for seed in range(10)
        }
        assert outcomes == {True, False}
