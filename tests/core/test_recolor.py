"""Tests for the capacitated coloring state and ab-path flips."""

import pytest

from repro.core.errors import ScheduleValidationError
from repro.core.recolor import ArrayColoringState
from repro.graphs.array_backend import CompactGraph, lower_instance
from repro.graphs.multigraph import Multigraph
from tests.conftest import random_instance


def make_state(moves, caps, q):
    """The state over ``moves``, a map from node label to node index,
    and the edge indices in move order."""
    g = Multigraph()
    for u, v in moves:
        g.add_edge(u, v)
    graph = CompactGraph.from_multigraph(g)
    state = ArrayColoringState(graph, [caps[v] for v in graph.nodes], q)
    return graph.index_of, list(range(len(moves))), state


class TestPredicates:
    def test_missing_levels(self):
        n, eids, state = make_state([("a", "b"), ("a", "b")], {"a": 2, "b": 2}, 2)
        assert state.is_strongly_missing(n["a"], 0)
        state.assign(eids[0], 0)
        assert state.is_lightly_missing(n["a"], 0)
        assert state.is_missing(n["a"], 0)
        state.assign(eids[1], 0)
        assert state.is_saturated(n["a"], 0)
        assert not state.is_missing(n["a"], 0)

    def test_missing_colors_listing(self):
        n, eids, state = make_state([("a", "b")], {"a": 1, "b": 1}, 3)
        state.assign(eids[0], 1)
        assert state.missing_colors(n["a"]) == [0, 2]

    def test_common_missing_color(self):
        n, eids, state = make_state(
            [("a", "b"), ("a", "c"), ("b", "c")], {"a": 1, "b": 1, "c": 1}, 2
        )
        state.assign(eids[0], 0)  # a-b color 0
        assert state.common_missing_color(n["a"], n["c"]) == 1
        assert state.common_missing_color(n["b"], n["c"]) == 1


class TestAssignment:
    def test_assign_respects_capacity(self):
        _n, eids, state = make_state([("a", "b"), ("a", "c")], {"a": 1, "b": 1, "c": 1}, 1)
        state.assign(eids[0], 0)
        with pytest.raises(ScheduleValidationError):
            state.assign(eids[1], 0)

    def test_double_assign_rejected(self):
        _n, eids, state = make_state([("a", "b")], {"a": 1, "b": 1}, 1)
        state.assign(eids[0], 0)
        with pytest.raises(ScheduleValidationError):
            state.assign(eids[0], 0)

    def test_unassign_roundtrip(self):
        _n, eids, state = make_state([("a", "b")], {"a": 1, "b": 1}, 1)
        state.assign(eids[0], 0)
        assert state.unassign(eids[0]) == 0
        assert eids[0] in state.uncolored
        state.assign(eids[0], 0)
        state.validate()

    def test_self_loop_counts_double(self):
        n, (loop,), state = make_state([("a", "a")], {"a": 2}, 1)
        state.assign(loop, 0)
        assert state.count(n["a"], 0) == 2
        state.validate()

    def test_self_loop_needs_two_slots(self):
        _n, (loop,), state = make_state([("a", "a")], {"a": 1}, 1)
        with pytest.raises(ScheduleValidationError):
            state.assign(loop, 0)


class TestFlips:
    def test_basic_flip_frees_color(self):
        # a saturated in color 0 via edge to b; flipping frees it.
        n, eids, state = make_state(
            [("a", "b"), ("a", "c")], {"a": 1, "b": 1, "c": 1}, 2
        )
        state.assign(eids[0], 0)
        assert state.is_saturated(n["a"], 0)
        assert state.attempt_flip(n["a"], 0, 1)
        state.validate()
        assert state.is_missing(n["a"], 0)
        assert state.color[eids[0]] == 1

    def test_flip_requires_target_missing(self):
        n, eids, state = make_state(
            [("a", "b"), ("a", "c")], {"a": 1, "b": 1, "c": 1}, 2
        )
        state.assign(eids[0], 0)
        state.assign(eids[1], 1)
        # a saturated in both colors: no flip can start.
        assert not state.attempt_flip(n["a"], 0, 1)
        state.validate()

    def test_flip_cascades_through_saturated_node(self):
        # Path a-b-c: a-b colored 0, b-c colored 1, all caps 1.
        # Flipping a's 0 to 1 must cascade: b would exceed color 1,
        # so b-c flips back to 0.
        n, eids, state = make_state(
            [("a", "b"), ("b", "c")], {"a": 1, "b": 1, "c": 1}, 2
        )
        state.assign(eids[0], 0)
        state.assign(eids[1], 1)
        assert state.attempt_flip(n["a"], 0, 1)
        state.validate()
        assert state.color[eids[0]] == 1
        assert state.color[eids[1]] == 0

    def test_failed_flip_leaves_state_untouched(self):
        # b carries one edge of each color at cap 1, so it is not
        # missing color 1 and no flip can even start from it.
        n, eids, state = make_state(
            [("a", "b"), ("b", "d"), ("a", "c")],
            {"a": 1, "b": 1, "c": 1, "d": 1},
            2,
        )
        state.assign(eids[0], 0)
        state.assign(eids[1], 1)
        state.assign(eids[2], 1)
        before = dict(state.color)
        assert not state.attempt_flip(n["b"], 0, 1)
        assert state.color == before
        state.validate()

    def test_flip_same_color_rejected(self):
        n, _eids, state = make_state([("a", "b")], {"a": 1, "b": 1}, 2)
        assert not state.attempt_flip(n["a"], 0, 0)


class TestTryColorEdge:
    def test_direct_common_color(self):
        _n, eids, state = make_state([("a", "b")], {"a": 1, "b": 1}, 1)
        assert state.try_color_edge(eids[0])
        assert state.color[eids[0]] == 0

    def test_flip_then_color(self):
        # Classic Kempe situation at capacity 1 with 2 colors:
        # edges (a-b):0, (c-d):1 exist; new edge (b-c) sees b missing 1,
        # c missing 0 — needs a flip or direct color... construct a
        # genuinely blocked case: b saturated 0, c saturated 1.
        _n, eids, state = make_state(
            [("a", "b"), ("c", "d"), ("b", "c")], {"a": 1, "b": 1, "c": 1, "d": 1}, 2
        )
        state.assign(eids[0], 0)
        state.assign(eids[1], 1)
        assert state.try_color_edge(eids[2])
        state.validate()
        assert len(state.uncolored) == 0

    def test_impossible_within_palette(self):
        # Triangle with one color: only one edge can ever be colored.
        _n, eids, state = make_state(
            [("a", "b"), ("b", "c"), ("c", "a")], {"a": 1, "b": 1, "c": 1}, 1
        )
        assert state.try_color_edge(eids[0])
        assert not state.try_color_edge(eids[1])
        assert not state.try_color_edge(eids[2])

    @pytest.mark.parametrize("seed", range(6))
    def test_bulk_coloring_stays_valid(self, seed):
        ci = lower_instance(
            random_instance(8, 30, capacity_choices=(1, 2, 3), seed=seed)
        )
        state = ArrayColoringState(
            ci.graph, ci.capacities, 2 * ci.delta_prime(), seed=seed
        )
        for e in range(ci.graph.num_edges):
            state.try_color_edge(e)
        state.validate()


class TestPaletteGrowth:
    def test_add_color(self):
        _n, eids, state = make_state(
            [("a", "b"), ("a", "b")], {"a": 1, "b": 1}, 1
        )
        state.assign(eids[0], 0)
        assert not state.try_color_edge(eids[1])
        new = state.add_color()
        assert new == 1
        assert state.try_color_edge(eids[1])
        state.validate(require_complete=True)


class TestPreload:
    def test_preload_assigns_valid_colors(self):
        _n, eids, state = make_state(
            [("a", "b"), ("b", "c"), ("a", "c")], {"a": 1, "b": 1, "c": 1}, 3
        )
        rejected = state.preload({eids[0]: 0, eids[1]: 1, eids[2]: 2})
        assert rejected == []
        assert state.uncolored == set()

    def test_preload_rejects_capacity_conflicts(self):
        # Both edges share endpoint a (c=1); the same color cannot hold both.
        _n, eids, state = make_state(
            [("a", "b"), ("a", "c")], {"a": 1, "b": 1, "c": 1}, 2
        )
        rejected = state.preload({eids[0]: 0, eids[1]: 0})
        assert rejected == [eids[1]]
        assert eids[1] in state.uncolored

    def test_preload_rejects_out_of_range_colors(self):
        _n, eids, state = make_state([("a", "b")], {"a": 1, "b": 1}, 2)
        assert state.preload({eids[0]: 5}) == [eids[0]]

    def test_preload_accounts_self_loops_twice(self):
        _n, (loop,), state = make_state([("a", "a")], {"a": 1}, 1)
        # A self-loop needs two capacity slots; c=1 cannot host it.
        assert state.preload({loop: 0}) == [loop]

    def test_preload_admits_in_edge_id_order(self):
        # Edge indices follow enumeration order, ids do not: ids 5 and 2
        # contend for color 0 at a, and the lower id wins.
        parent = Multigraph()
        for _ in range(6):
            parent.add_edge("a", "b")
        graph = CompactGraph.from_multigraph(parent.edge_subgraph([5, 2]))
        assert graph.edge_ids == [5, 2]
        state = ArrayColoringState(graph, [1, 1], 1)
        assert state.preload({5: 0, 2: 0}) == [5]
        assert state.color == {1: 0}
        assert state.uncolored == {0}

    def test_preload_is_order_independent(self):
        # Mapping iteration never matters: edges load in ascending id.
        _n, eids, state_a = make_state(
            [("a", "b"), ("a", "b")], {"a": 1, "b": 1}, 1
        )
        _n2, eids2, state_b = make_state(
            [("a", "b"), ("a", "b")], {"a": 1, "b": 1}, 1
        )
        first = state_a.preload({eids[0]: 0, eids[1]: 0})
        second = state_b.preload({eids2[1]: 0, eids2[0]: 0})
        assert first == second == [eids[1]]


class TestArrayMasks:
    def test_validate_reports_mask_drift(self):
        g = Multigraph(nodes=["a", "b"])
        g.add_edge("a", "b")
        g.add_edge("a", "b")
        state = ArrayColoringState(CompactGraph.from_multigraph(g), [2, 1], 3)
        state.assign(0, 1)
        assert (state.full, state.near) == ([0, 0b10], [0b10, -1])
        state.validate()
        for masks, v, drift in (
            (state.full, 0, 0b100),  # color 2 claimed saturated at a
            (state.near, 0, 0b1),  # color 0 claimed not strongly missing
            (state.near, 1, -2),  # unit capacity: every bit must stay set
        ):
            saved = masks[v]
            masks[v] ^= drift
            with pytest.raises(ScheduleValidationError, match="mask drift"):
                state.validate()
            masks[v] = saved
            state.validate()


class TestValidateCaches:
    """``validate`` checks every cached count and slot, not only the
    colors some colored edge has at the node."""

    def test_stale_count_of_an_unused_color(self):
        n, edges, state = make_state([("a", "b")], {"a": 3, "b": 3}, 3)
        state.assign(edges[0], 0)
        state.validate()
        state.counts[n["a"]][2] = 1
        with pytest.raises(ScheduleValidationError, match="count drift"):
            state.validate()

    def test_slot_holding_an_edge_of_another_color(self):
        n, edges, state = make_state([("a", "b"), ("a", "b")], {"a": 3, "b": 3}, 3)
        state.assign(edges[0], 0)
        state.assign(edges[1], 1)
        state.validate()
        state.edges_at[n["a"]][1][edges[0]] = None
        with pytest.raises(ScheduleValidationError, match="edges_at drift"):
            state.validate()

    def test_slot_missing_an_edge(self):
        n, edges, state = make_state([("a", "b")], {"a": 3, "b": 3}, 3)
        state.assign(edges[0], 0)
        del state.edges_at[n["a"]][0][edges[0]]
        with pytest.raises(ScheduleValidationError, match="edges_at drift"):
            state.validate()

    def test_zero_counts_and_empty_slots_are_absent_ones(self):
        n, edges, state = make_state([("a", "b"), ("a", "a")], {"a": 3, "b": 3}, 3)
        state.assign(edges[0], 0)
        state.assign(edges[1], 1)
        state.unassign(edges[0])
        state.unassign(edges[1])
        assert state.counts[n["a"]] == {0: 0, 1: 0}
        assert state.edges_at[n["a"]] == {0: {}, 1: {}}
        state.validate()
