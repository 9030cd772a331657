"""Tests for repro.core.delta: InstanceDelta and apply_delta."""

import pytest

from repro.core.delta import DeltaError, InstanceDelta, apply_delta
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from repro.pipeline.canonical import fingerprint


def small_instance():
    graph = Multigraph(nodes=["a", "b", "c", "d"])
    graph.add_edge("a", "b")
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    return MigrationInstance(graph, {"a": 2, "b": 2, "c": 1, "d": 1})


class TestValidation:
    def test_rejects_self_moves(self):
        with pytest.raises(DeltaError, match="self-move"):
            InstanceDelta(add_moves=(("a", "a"),))

    def test_rejects_unchanged_retarget(self):
        with pytest.raises(DeltaError, match="does not change"):
            InstanceDelta(retarget_moves=(("a", "b", "b"),))

    def test_rejects_retarget_creating_self_move(self):
        with pytest.raises(DeltaError, match="self-move"):
            InstanceDelta(retarget_moves=(("a", "b", "a"),))

    def test_rejects_bad_capacities(self):
        with pytest.raises(DeltaError, match="positive int"):
            InstanceDelta(capacity_changes=(("a", 0),))
        with pytest.raises(DeltaError, match="positive int"):
            InstanceDelta(capacity_changes=(("a", True),))

    def test_rejects_duplicate_capacity_changes(self):
        with pytest.raises(DeltaError, match="duplicate"):
            InstanceDelta(capacity_changes=(("a", 1), ("a", 2)))

    def test_empty_and_counts(self):
        assert InstanceDelta().is_empty
        delta = InstanceDelta(
            add_moves=(("a", "b"),),
            remove_moves=(("b", "c"),),
            retarget_moves=(("a", "b", "c"),),
            capacity_changes=(("d", 2),),
        )
        assert not delta.is_empty
        assert delta.num_changes == 4


    def test_touched_nodes(self):
        delta = InstanceDelta(
            add_moves=(("a", "b"),), capacity_changes=(("d", 2),)
        )
        assert set(delta.touched_nodes()) == {"a", "b", "d"}


class TestApplyDelta:
    def test_add_remove_retarget(self):
        instance = small_instance()
        delta = InstanceDelta(
            add_moves=(("c", "d"),),
            remove_moves=(("a", "b"),),
            retarget_moves=(("b", "c", "d"),),
        )
        patched = apply_delta(instance, delta)
        pairs = sorted(
            tuple(sorted((u, v))) for _e, u, v in patched.graph.edges()
        )
        assert pairs == [("a", "b"), ("b", "d"), ("c", "d")]
        # The untouched parallel edge keeps its id (stable tokens).
        assert 0 in {e for e, _u, _v in patched.graph.edges()}

    def test_capacity_change_can_introduce_a_disk(self):
        instance = small_instance()
        patched = apply_delta(
            instance, InstanceDelta(capacity_changes=(("e", 3),))
        )
        assert patched.capacity("e") == 3
        assert "e" in patched.graph.nodes

    def test_original_instance_untouched(self):
        instance = small_instance()
        before = fingerprint(instance)
        apply_delta(
            instance,
            InstanceDelta(
                add_moves=(("a", "d"),), capacity_changes=(("a", 1),)
            ),
        )
        # Fingerprint a new instance over the same graph and
        # capacities: ``instance`` memoizes its fingerprint, so asking
        # it again would not look at its graph.
        after = MigrationInstance(instance.graph, instance.capacities)
        assert fingerprint(after) == before

    def test_remove_unknown_move_raises(self):
        with pytest.raises(DeltaError):
            apply_delta(
                small_instance(), InstanceDelta(remove_moves=(("a", "d"),))
            )

    def test_retarget_unknown_move_raises(self):
        with pytest.raises(DeltaError):
            apply_delta(
                small_instance(),
                InstanceDelta(retarget_moves=(("a", "d", "b"),)),
            )


def antiparallel_instance(*moves):
    """Edges in the given (src, dst) order: edge id i is ``moves[i]``."""
    graph = Multigraph(nodes=["a", "b", "c"])
    for u, v in moves:
        graph.add_edge(u, v)
    return MigrationInstance(graph, {"a": 2, "b": 2, "c": 2})


def directed_moves(instance):
    return sorted(
        (eid, instance.graph.endpoints(eid)) for eid, _u, _v in instance.graph.edges()
    )


class TestDirectedMoves:
    """A move is ``src -> dst``; the reverse move never matches it."""

    def test_remove_takes_the_move_not_its_reverse(self):
        instance = antiparallel_instance(("a", "b"), ("b", "a"))
        patched = apply_delta(instance, InstanceDelta(remove_moves=(("a", "b"),)))
        assert directed_moves(patched) == [(1, ("b", "a"))]

    def test_remove_of_a_reverse_only_move_raises(self):
        instance = antiparallel_instance(("b", "a"))
        with pytest.raises(DeltaError, match="matches no pending move"):
            apply_delta(instance, InstanceDelta(remove_moves=(("a", "b"),)))

    def test_retarget_takes_the_move_not_its_reverse(self):
        instance = antiparallel_instance(("a", "b"), ("b", "a"))
        patched = apply_delta(
            instance, InstanceDelta(retarget_moves=(("a", "b", "c"),))
        )
        assert directed_moves(patched) == [(1, ("b", "a")), (2, ("a", "c"))]

    def test_retarget_of_a_reverse_only_move_raises(self):
        instance = antiparallel_instance(("b", "a"))
        with pytest.raises(DeltaError, match="matches no pending move"):
            apply_delta(instance, InstanceDelta(retarget_moves=(("a", "b", "c"),)))

    def test_remove_takes_the_highest_id_of_its_direction(self):
        instance = antiparallel_instance(("a", "b"), ("a", "b"), ("b", "a"))
        patched = apply_delta(instance, InstanceDelta(remove_moves=(("a", "b"),)))
        assert directed_moves(patched) == [(0, ("a", "b")), (2, ("b", "a"))]


class TestCompose:
    def test_later_removal_cancels_pending_add(self):
        d1 = InstanceDelta(add_moves=(("a", "b"), ("c", "d")))
        d2 = InstanceDelta(remove_moves=(("a", "b"),))
        composed = d1.compose(d2)
        assert composed.add_moves == (("c", "d"),)
        assert composed.remove_moves == ()

    def test_later_retarget_redirects_pending_add(self):
        d1 = InstanceDelta(add_moves=(("a", "b"),))
        d2 = InstanceDelta(retarget_moves=(("a", "b", "c"),))
        composed = d1.compose(d2)
        assert composed.add_moves == (("a", "c"),)
        assert composed.retarget_moves == ()

    def test_capacity_last_wins(self):
        d1 = InstanceDelta(capacity_changes=(("a", 1),))
        d2 = InstanceDelta(capacity_changes=(("a", 3),))
        assert d1.compose(d2).capacity_changes == (("a", 3),)

    def test_compose_matches_sequential_apply(self):
        instance = small_instance()
        d1 = InstanceDelta(
            add_moves=(("c", "d"),), remove_moves=(("a", "b"),)
        )
        d2 = InstanceDelta(
            retarget_moves=(("c", "d", "a"),), capacity_changes=(("b", 1),)
        )
        sequential = apply_delta(apply_delta(instance, d1), d2)
        composed = apply_delta(instance, d1.compose(d2))
        assert fingerprint(sequential) == fingerprint(composed)
