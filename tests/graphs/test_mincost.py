"""Tests for min-cost flow and convex assignment."""

import random

import pytest

from repro.graphs.mincost import MinCostFlow, convex_assignment
from tests.flow_oracle import edmonds_karp


class TestMinCostFlow:
    def test_prefers_cheap_path(self):
        net = MinCostFlow()
        cheap = net.add_edge("s", "t", 1, 1)
        pricey = net.add_edge("s", "t", 1, 10)
        flow, cost = net.min_cost_flow("s", "t", max_flow=1)
        assert (flow, cost) == (1, 1)
        assert net.flow_on(cheap) == 1
        assert net.flow_on(pricey) == 0

    def test_spills_to_expensive_when_needed(self):
        net = MinCostFlow()
        net.add_edge("s", "t", 1, 1)
        net.add_edge("s", "t", 1, 10)
        flow, cost = net.min_cost_flow("s", "t")
        assert (flow, cost) == (2, 11)

    def test_two_hop_cost_accumulates(self):
        net = MinCostFlow()
        net.add_edge("s", "a", 2, 3)
        net.add_edge("a", "t", 2, 4)
        flow, cost = net.min_cost_flow("s", "t")
        assert (flow, cost) == (2, 14)

    def test_max_flow_value_matches_oracle(self):
        rng = random.Random(4)
        nodes = [f"n{i}" for i in range(6)] + ["s", "t"]
        edges = []
        for _ in range(30):
            u, v = rng.sample(nodes, 2)
            edges.append((u, v, rng.randint(0, 6)))
        net = MinCostFlow()
        for u, v, c in edges:
            net.add_edge(u, v, c, rng.randint(0, 5))
        value, _cost = net.min_cost_flow("s", "t")
        assert value == edmonds_karp(edges, "s", "t")

    def test_negative_costs_handled(self):
        net = MinCostFlow()
        net.add_edge("s", "a", 1, -5)
        net.add_edge("a", "t", 1, 2)
        flow, cost = net.min_cost_flow("s", "t")
        assert (flow, cost) == (1, -3)

    def test_flow_cap_respected(self):
        net = MinCostFlow()
        net.add_edge("s", "t", 10, 1)
        flow, cost = net.min_cost_flow("s", "t", max_flow=3)
        assert (flow, cost) == (3, 3)

    def test_same_endpoints_rejected(self):
        net = MinCostFlow()
        net.add_edge("s", "t", 1, 1)
        with pytest.raises(ValueError):
            net.min_cost_flow("s", "s")


class TestConvexAssignment:
    def test_spreads_with_convex_costs(self):
        # 4 units, two identical suppliers with increasing marginals:
        # optimum splits 2/2 rather than 4/0.
        out = convex_assignment(
            demands={f"d{i}": 1 for i in range(4)},
            suppliers={"A": 4, "B": 4},
            allowed={f"d{i}": ["A", "B"] for i in range(4)},
            marginal_cost={"A": [1, 2, 3, 4], "B": [1, 2, 3, 4]},
        )
        counts = {}
        for picks in out.values():
            for s in picks:
                counts[s] = counts.get(s, 0) + 1
        assert counts == {"A": 2, "B": 2}

    def test_capability_weighting(self):
        # Supplier F is 4x as capable: with marginals k/capability the
        # optimum sends it ~4x the units.
        out = convex_assignment(
            demands={f"d{i}": 1 for i in range(5)},
            suppliers={"F": 5, "S": 5},
            allowed={f"d{i}": ["F", "S"] for i in range(5)},
            marginal_cost={"F": [1, 2, 3, 4, 5], "S": [4, 8, 12, 16, 20]},
        )
        counts = {}
        for picks in out.values():
            for s in picks:
                counts[s] = counts.get(s, 0) + 1
        assert counts["F"] == 4
        assert counts["S"] == 1

    def test_respects_allowed_lists(self):
        out = convex_assignment(
            demands={"d0": 1, "d1": 1},
            suppliers={"A": 2, "B": 2},
            allowed={"d0": ["A"], "d1": ["B"]},
            marginal_cost={"A": [5, 5], "B": [1, 1]},
        )
        assert out == {"d0": ["A"], "d1": ["B"]}

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="assignable"):
            convex_assignment(
                demands={"d0": 2},
                suppliers={"A": 1},
                allowed={"d0": ["A"]},
                marginal_cost={"A": [1]},
            )
