"""Tests for the edge-orbit reference machinery (Section V)."""

import pytest

from repro.core.edge_orbits import (
    EdgeOrbit,
    explore_orbits,
    grow_orbit,
    resolve_weak_orbit,
    seed_orbits,
    trace_ab_path,
)
from repro.core.recolor import ArrayColoringState
from repro.graphs.array_backend import CompactGraph
from repro.graphs.multigraph import Multigraph


def state_with(moves, caps, q):
    """The state over ``moves``, a map from node label to node index,
    and the edge indices in move order."""
    g = Multigraph()
    for u, v in moves:
        g.add_edge(u, v)
    graph = CompactGraph.from_multigraph(g)
    state = ArrayColoringState(graph, [caps[v] for v in graph.nodes], q)
    return graph.index_of, list(range(len(moves))), state


class TestSeeding:
    def test_parallel_uncolored_edges_seed_an_orbit(self):
        n, eids, state = state_with(
            [("a", "b"), ("a", "b"), ("a", "c")], {"a": 2, "b": 2, "c": 1}, 1
        )
        orbits = seed_orbits(state)
        assert len(orbits) == 1
        assert orbits[0].vertices == {n["a"], n["b"]}
        assert orbits[0].edges == set(eids[:2])

    def test_single_uncolored_edges_do_not_seed(self):
        _n, _eids, state = state_with([("a", "b"), ("b", "c")], {"a": 1, "b": 2, "c": 1}, 1)
        assert seed_orbits(state) == []

    def test_orbits_follow_label_and_id_order(self):
        # Index order differs from both orders: nodes enumerate z, y,
        # b, a and edge ids 4, 3, 1, 2, 0.
        parent = Multigraph()
        for u, v in [("z", "y"), ("z", "y"), ("b", "a"), ("b", "a"), ("z", "y")]:
            parent.add_edge(u, v)
        graph = CompactGraph.from_multigraph(parent.edge_subgraph([4, 3, 1, 2, 0]))
        orbits = seed_orbits(ArrayColoringState(graph, [1] * 4, 1))
        assert [{graph.nodes[v] for v in o.vertices} for o in orbits] == [
            {"a", "b"}, {"y", "z"}
        ]
        assert [[graph.edge_ids[e] for e in o.seed] for o in orbits] == [
            [2, 3], [0, 1]
        ]

    def test_coloring_a_parallel_clears_seed(self):
        _n, eids, state = state_with([("a", "b"), ("a", "b")], {"a": 2, "b": 2}, 1)
        state.assign(eids[0], 0)
        assert seed_orbits(state) == []


class TestTracePath:
    def test_simple_alternation(self):
        # Path a-b-c-d colored 0,1,0; trace (0,1) from a.
        n, eids, state = state_with(
            [("a", "b"), ("b", "c"), ("c", "d")],
            {"a": 1, "b": 1, "c": 1, "d": 1},
            2,
        )
        state.assign(eids[0], 0)
        state.assign(eids[1], 1)
        state.assign(eids[2], 0)
        path = trace_ab_path(state, n["a"], 0, 1)
        assert path == eids

    def test_requires_start_conditions(self):
        n, eids, state = state_with([("a", "b")], {"a": 1, "b": 1}, 2)
        state.assign(eids[0], 0)
        # a is missing 1 and not missing 0 -> valid start for (0, 1).
        assert trace_ab_path(state, n["a"], 0, 1) == [eids[0]]
        # a *is* missing 1 -> invalid start color pair (1, 0).
        assert trace_ab_path(state, n["a"], 1, 0) == []

    def test_never_reuses_edges(self):
        # Triangle colored 0,1,0 with caps 2 at the shared node: the
        # walk may revisit nodes but each edge appears once.
        n, eids, state = state_with(
            [("a", "b"), ("b", "c"), ("c", "a")],
            {"a": 2, "b": 2, "c": 2},
            2,
        )
        state.assign(eids[0], 0)
        state.assign(eids[1], 1)
        state.assign(eids[2], 0)
        path = trace_ab_path(state, n["a"], 0, 1)
        assert len(path) == len(set(path))


class TestGrowth:
    def build_growable(self):
        """Seed a-b (2 bad edges); b saturated in color 0 via two arms.

        Definition 5.2's start conditions need saturation: b misses 1
        but not 0, so the (0,1)-path from b exists and reaches c/d.
        """
        n, eids, state = state_with(
            [("a", "b"), ("a", "b"), ("b", "c"), ("b", "d")],
            {"a": 2, "b": 2, "c": 1, "d": 1},
            2,
        )
        state.assign(eids[2], 0)  # b-c colored 0
        state.assign(eids[3], 0)  # b-d colored 0 -> b saturated in 0
        return n, eids, state

    def test_grows_over_colored_arm(self):
        n, _eids, state = self.build_growable()
        (orbit,) = seed_orbits(state)
        result = grow_orbit(state, orbit)
        assert result.kind == "grown"
        assert result.added_vertices <= {n["c"], n["d"]}
        assert result.added_vertices
        assert orbit.growth_steps == 1

    def test_delta_witness_detected(self):
        # b saturated in both colors of a q=2 palette: it misses no
        # free color of the orbit.
        n, eids, state = state_with(
            [("a", "b"), ("a", "b"), ("b", "x"), ("b", "y")],
            {"a": 2, "b": 1, "x": 1, "y": 1},
            2,
        )
        state.assign(eids[2], 0)
        state.assign(eids[3], 1)
        (orbit,) = seed_orbits(state)
        result = grow_orbit(state, orbit)
        assert result.kind == "delta_witness"
        assert result.witness_node == n["b"]

    def test_gamma_witness_on_starved_pair(self):
        # Definition 5.7's second kind: every free color full in the
        # orbit (at most one slot left per color), but each node still
        # misses *some* free color so the Δ-kind does not apply.
        # a saturated in 1 / missing 0; b saturated in 0 / missing 1:
        # both colors have capsum-1 = 1 use inside {a, b}.
        _n, eids, state = state_with(
            [("a", "b"), ("a", "b"), ("a", "x"), ("b", "y")],
            {"a": 1, "b": 1, "x": 1, "y": 1},
            2,
        )
        state.assign(eids[2], 1)  # a-x colored 1
        state.assign(eids[3], 0)  # b-y colored 0
        (orbit,) = seed_orbits(state)
        result = grow_orbit(state, orbit)
        assert result.kind == "gamma_witness"


class TestResolution:
    def test_weak_orbit_resolves_a_bad_edge(self):
        _n, eids, state = state_with(
            [("a", "b"), ("a", "b")], {"a": 2, "b": 2}, 2
        )
        (orbit,) = seed_orbits(state)
        assert resolve_weak_orbit(state, orbit)
        assert len(state.uncolored) == 1
        state.validate()

    def test_explore_orbits_end_to_end(self):
        _n, eids, state = state_with(
            [("a", "b"), ("a", "b"), ("b", "c"), ("c", "d"), ("c", "d")],
            {"a": 2, "b": 3, "c": 3, "d": 2},
            2,
        )
        traces = explore_orbits(state)
        assert len(traces) == 2  # two bad-edge groups
        state.validate()
        for trace in traces:
            assert trace.final_size >= 2
            assert trace.outcome in (
                "grown", "delta_witness", "gamma_witness", "exhausted", "seeded"
            )
