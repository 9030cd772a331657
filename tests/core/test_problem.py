"""Tests for the migration problem model."""

import pytest

from repro.core.errors import InvalidInstanceError
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph


class TestValidation:
    def test_self_loop_rejected(self):
        g = Multigraph()
        g.add_edge("a", "a")
        with pytest.raises(InvalidInstanceError):
            MigrationInstance(g, {"a": 1})

    def test_missing_capacity_rejected(self):
        g = Multigraph(edges=[("a", "b")])
        with pytest.raises(InvalidInstanceError):
            MigrationInstance(g, {"a": 1})

    def test_zero_capacity_rejected(self):
        g = Multigraph(edges=[("a", "b")])
        with pytest.raises(InvalidInstanceError):
            MigrationInstance(g, {"a": 1, "b": 0})

    def test_non_integer_capacity_rejected(self):
        g = Multigraph(edges=[("a", "b")])
        with pytest.raises(InvalidInstanceError):
            MigrationInstance(g, {"a": 1, "b": 1.5})


class TestConstructors:
    def test_from_moves_creates_parallel_edges(self):
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("a", "b")], {"a": 1, "b": 1}
        )
        assert inst.num_items == 2
        assert inst.graph.multiplicity("a", "b") == 2

    def test_from_moves_extra_nodes(self):
        inst = MigrationInstance.from_moves(
            [("a", "b")], {"a": 1, "b": 1, "idle": 3}, extra_nodes=["idle"]
        )
        assert inst.num_disks == 3
        assert inst.capacity("idle") == 3

    def test_uniform(self):
        inst = MigrationInstance.uniform([("a", "b"), ("b", "c")], capacity=2)
        assert all(inst.capacity(v) == 2 for v in inst.graph.nodes)


class TestProperties:
    def test_all_even_and_all_unit(self):
        even = MigrationInstance.uniform([("a", "b")], capacity=2)
        assert even.all_even() and not even.all_unit()
        unit = MigrationInstance.uniform([("a", "b")], capacity=1)
        assert unit.all_unit() and not unit.all_even()

    def test_delta_prime(self, triangle_instance):
        # a: degree 4, c=2 -> 2; b: degree 3, c=1 -> 3; c: degree 3, c=2 -> 2
        assert triangle_instance.constrained_degree("a") == 2
        assert triangle_instance.constrained_degree("b") == 3
        assert triangle_instance.constrained_degree("c") == 2
        assert triangle_instance.delta_prime() == 3

    def test_delta_prime_empty(self):
        inst = MigrationInstance(Multigraph(nodes=["a"]), {"a": 1})
        assert inst.delta_prime() == 0

    def test_restricted_to_unit_capacity(self, triangle_instance):
        unit = triangle_instance.restricted_to_unit_capacity()
        assert unit.all_unit()
        assert unit.num_items == triangle_instance.num_items
        # Original instance is untouched.
        assert triangle_instance.capacity("a") == 2

    def test_capacities_copy_is_defensive(self, triangle_instance):
        caps = triangle_instance.capacities
        caps["a"] = 99
        assert triangle_instance.capacity("a") == 2


class TestMemo:
    def test_starts_empty_and_is_per_instance(self, triangle_instance):
        from repro.core.lower_bounds import lower_bound

        assert triangle_instance.memo == {}
        lower_bound(triangle_instance)
        assert triangle_instance.memo
        assert triangle_instance.with_objective(None).memo == {}

    def test_pickle_carries_the_memo(self, triangle_instance):
        """A process-pool job reads the canonical form its parent built."""
        import pickle

        from repro.pipeline.canonical import _pair_slots, fingerprint

        expected = fingerprint(triangle_instance)
        back = pickle.loads(pickle.dumps(triangle_instance))
        assert back.memo == triangle_instance.memo
        assert fingerprint(back) == expected
        assert _pair_slots(back) == _pair_slots(triangle_instance)
