"""Tests for the Section V orbit detection machinery."""

from repro.core.orbits import (
    compact_bad_edge_groups,
    compact_find_shared_lightly_missing,
    compact_find_strongly_missing,
    compact_free_colors_of_orbit,
    compact_is_delta_witness,
    compact_is_gamma_witness,
    compact_uncolored_components,
)
from repro.core.recolor import ArrayColoringState
from repro.graphs.array_backend import CompactGraph
from repro.graphs.multigraph import Multigraph


def state_with(moves, caps, q):
    """An uncolored state over ``moves``; edge ``i`` is ``moves[i]``."""
    g = Multigraph()
    for u, v in moves:
        g.add_edge(u, v)
    graph = CompactGraph.from_multigraph(g)
    state = ArrayColoringState(graph, [caps[v] for v in graph.nodes], q)
    return graph, state


def labels(graph, nodes):
    return sorted(graph.nodes[v] for v in nodes)


def component_with(graph, state, label):
    (report,) = [
        r for r in compact_uncolored_components(state)
        if graph.index_of[label] in r.nodes
    ]
    return report


class TestComponents:
    def test_all_colored_means_no_components(self):
        _graph, state = state_with([("a", "b")], {"a": 1, "b": 1}, 1)
        state.assign(0, 0)
        assert compact_uncolored_components(state) == []

    def test_components_follow_uncolored_edges_only(self):
        graph, state = state_with(
            [("a", "b"), ("b", "c"), ("x", "y")],
            {"a": 1, "b": 2, "c": 1, "x": 1, "y": 1},
            2,
        )
        state.assign(1, 0)  # color b-c; uncolored: a-b and x-y
        reports = compact_uncolored_components(state)
        assert sorted(labels(graph, r.nodes) for r in reports) == [
            ["a", "b"], ["x", "y"]
        ]

    def test_classification_balancing(self):
        # q=3, c=2: untouched nodes strongly miss everything.
        _graph, state = state_with([("a", "b")], {"a": 2, "b": 2}, 3)
        (report,) = compact_uncolored_components(state)
        assert report.kind == "balancing"

    def test_classification_color_orbit(self):
        # c=1 everywhere: never strongly missing.  Two endpoints of an
        # uncolored edge both lightly missing the same color 0.
        _graph, state = state_with([("a", "b")], {"a": 1, "b": 1}, 1)
        (report,) = compact_uncolored_components(state)
        assert report.kind == "color"

    def test_classification_hard(self):
        # a-b uncolored; a saturated in 0 via a-x, b saturated in 1 via
        # b-y => a lightly misses only 1, b lightly misses only 0:
        # no shared missing color, nothing strongly missing -> hard.
        _graph, state = state_with(
            [("a", "b"), ("a", "x"), ("b", "y")],
            {"a": 1, "b": 1, "x": 1, "y": 1},
            2,
        )
        state.assign(1, 0)
        state.assign(2, 1)
        (report,) = compact_uncolored_components(state)
        assert report.kind == "hard"


class TestFinders:
    def test_find_strongly_missing(self):
        graph, state = state_with([("a", "b")], {"a": 3, "b": 1}, 1)
        a, b = graph.index_of["a"], graph.index_of["b"]
        assert compact_find_strongly_missing(state, {a, b})
        assert not compact_find_strongly_missing(state, {b})

    def test_find_shared_lightly_missing(self):
        graph, state = state_with([("a", "b")], {"a": 1, "b": 1}, 1)
        a, b = graph.index_of["a"], graph.index_of["b"]
        assert compact_find_shared_lightly_missing(state, {a, b})
        assert not compact_find_shared_lightly_missing(state, {a})

    def test_lightly_missing_different_colors_are_not_shared(self):
        # a lightly misses only 1 and b only 0 (the hard orbit above).
        graph, state = state_with(
            [("a", "b"), ("a", "x"), ("b", "y")],
            {"a": 1, "b": 1, "x": 1, "y": 1},
            2,
        )
        state.assign(1, 0)
        state.assign(2, 1)
        a, b = graph.index_of["a"], graph.index_of["b"]
        assert not compact_find_shared_lightly_missing(state, {a, b})


class TestBadEdges:
    def test_parallel_uncolored_grouped(self):
        _graph, state = state_with(
            [("a", "b"), ("a", "b"), ("a", "c")], {"a": 2, "b": 2, "c": 1}, 1
        )
        assert compact_bad_edge_groups(state)

    def test_either_direction_joins_the_same_pair(self):
        _graph, state = state_with([("a", "b"), ("b", "a")], {"a": 2, "b": 2}, 1)
        assert compact_bad_edge_groups(state)

    def test_parallel_self_loops_are_bad(self):
        _graph, state = state_with([("a", "a"), ("a", "a")], {"a": 4}, 1)
        assert compact_bad_edge_groups(state)

    def test_distinct_pairs_are_not_bad(self):
        _graph, state = state_with(
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")],
            {"a": 2, "b": 2, "c": 1},
            1,
        )
        assert not compact_bad_edge_groups(state)

    def test_coloring_one_parallel_edge_clears_badness(self):
        _graph, state = state_with([("a", "b"), ("a", "b")], {"a": 2, "b": 2}, 1)
        state.assign(0, 0)
        assert not compact_bad_edge_groups(state)


class TestWitnesses:
    def test_free_colors_shrink_with_internal_coloring(self):
        _graph, state = state_with([("a", "b"), ("a", "b")], {"a": 2, "b": 2}, 2)
        (report,) = compact_uncolored_components(state)
        assert compact_free_colors_of_orbit(state, report) == {0, 1}
        state.assign(0, 0)
        (report,) = compact_uncolored_components(state)
        assert compact_free_colors_of_orbit(state, report) == {1}

    def test_gamma_witness_when_free_colors_full(self):
        # Pair {a, b} with caps 1/1: one colored parallel edge makes
        # color 0 non-free; color 1 has sum of counts 0 < cap_sum-1=1,
        # so not full => not a witness.  Saturating via externals makes
        # it one.
        graph, state = state_with(
            [("a", "b"), ("a", "b"), ("a", "x"), ("b", "y")],
            {"a": 1, "b": 1, "x": 1, "y": 1},
            2,
        )
        state.assign(0, 0)  # internal => color 0 not free
        report = component_with(graph, state, "a")
        assert labels(graph, report.nodes) == ["a", "b", "x", "y"]
        assert not compact_is_gamma_witness(state, report)
        state.assign(2, 1)
        state.assign(3, 1)
        report = component_with(graph, state, "a")
        assert labels(graph, report.nodes) == ["a", "b"]
        assert compact_is_gamma_witness(state, report)

    def test_delta_witness_when_node_misses_no_free_color(self):
        graph, state = state_with(
            [("a", "b"), ("a", "b"), ("a", "x")],
            {"a": 1, "b": 2, "x": 1},
            2,
        )
        state.assign(0, 0)  # internal: color 0 not free for orbit
        state.assign(2, 1)  # a saturated in 1, the only free color
        report = component_with(graph, state, "a")
        assert compact_is_delta_witness(state, report)
