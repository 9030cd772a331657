"""Known answers for the brute-force oracle the other tests trust."""

import pytest

from repro.core.lower_bounds import lower_bound
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from tests.brute_force import MAX_ITEMS, brute_force_rounds, brute_force_schedule
from tests.conftest import random_instance


class TestBruteForce:
    def test_empty(self):
        inst = MigrationInstance(Multigraph(nodes=["a"]), {"a": 1})
        assert brute_force_schedule(inst).num_rounds == 0

    def test_size_limit(self):
        inst = random_instance(10, MAX_ITEMS + 1, seed=0)
        with pytest.raises(ValueError):
            brute_force_schedule(inst)

    def test_known_odd_cycle(self):
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        assert brute_force_rounds(inst) == 3

    def test_known_parallel_bundle(self):
        inst = MigrationInstance.from_moves([("a", "b")] * 6, {"a": 2, "b": 3})
        assert brute_force_rounds(inst) == 3  # ceil(6/2)

    def test_matching_in_one_round(self):
        inst = MigrationInstance.uniform([("a", "b"), ("c", "d")], capacity=1)
        assert brute_force_rounds(inst) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_at_least_lower_bound(self, seed):
        inst = random_instance(5, 9, capacity_choices=(1, 2), seed=seed)
        opt = brute_force_rounds(inst)
        assert opt >= lower_bound(inst)

    @pytest.mark.parametrize("seed", range(5))
    def test_schedule_is_valid(self, seed):
        inst = random_instance(5, 8, capacity_choices=(1, 2, 3), seed=seed)
        sched = brute_force_schedule(inst)
        sched.validate(inst)

    def test_even_case_matches_lb1(self):
        # Sanity anchor for Theorem 4.1 on a tiny instance.
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("a", "b"), ("a", "c"), ("b", "c")],
            {"a": 2, "b": 2, "c": 2},
        )
        assert brute_force_rounds(inst) == inst.delta_prime()
