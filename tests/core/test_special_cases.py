"""Tests for the optimal special-case schedulers."""

import pytest

from repro import plan
from repro.core.lower_bounds import lb1
from repro.core.problem import MigrationInstance
from repro.core.special_cases import (
    bipartite_optimal_schedule,
    is_bipartite_instance,
    is_forest_instance,
    try_special_case_schedule,
)
from repro.graphs.coloring.bipartite import NotBipartiteError
from repro.workloads.generators import bipartite_instance


class TestDetection:
    def test_bipartite_detected(self):
        inst = bipartite_instance(3, 2, 10, seed=0)
        assert is_bipartite_instance(inst)

    def test_odd_cycle_not_bipartite(self):
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        assert not is_bipartite_instance(inst)

    def test_forest_detected(self):
        inst = MigrationInstance.uniform(
            [("r", "a"), ("r", "b"), ("a", "c"), ("a", "d")], capacity=1
        )
        assert is_forest_instance(inst)
        assert is_bipartite_instance(inst)  # forests are bipartite

    def test_parallel_edges_not_forest_but_bipartite(self):
        inst = MigrationInstance.uniform([("a", "b"), ("a", "b")], capacity=1)
        assert not is_forest_instance(inst)
        assert is_bipartite_instance(inst)

    def test_cycle_not_forest(self):
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], capacity=1
        )
        assert not is_forest_instance(inst)


class TestBipartiteOptimal:
    """Optimality for arbitrary (odd!) capacities on bipartite graphs."""

    @pytest.mark.parametrize("seed", range(10))
    def test_exactly_delta_prime_with_odd_capacities(self, seed):
        inst = bipartite_instance(
            5, 3, 20 + 7 * seed, old_capacity=1, new_capacity=3, seed=seed
        )
        sched = bipartite_optimal_schedule(inst)
        sched.validate(inst)
        assert sched.num_rounds == lb1(inst)

    def test_rejects_non_bipartite(self):
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        with pytest.raises(NotBipartiteError):
            bipartite_optimal_schedule(inst)

    def test_empty(self):
        from repro.graphs.multigraph import Multigraph

        inst = MigrationInstance(Multigraph(nodes=["a"]), {"a": 3})
        assert bipartite_optimal_schedule(inst).num_rounds == 0

    def test_parallel_bundle_odd_capacity(self):
        inst = MigrationInstance.from_moves([("a", "b")] * 9, {"a": 3, "b": 5})
        sched = bipartite_optimal_schedule(inst)
        sched.validate(inst)
        assert sched.num_rounds == 3  # ceil(9/3)

    def test_beats_general_guarantee(self):
        # On bipartite inputs the special case is exactly optimal while
        # the general algorithm only promises LB + O(sqrt(LB)).
        inst = bipartite_instance(8, 4, 200, old_capacity=1, new_capacity=5, seed=3)
        special = bipartite_optimal_schedule(inst)
        general = plan(inst, method="general").schedule
        assert special.num_rounds <= general.num_rounds
        assert special.num_rounds == lb1(inst)


class TestDispatch:
    def test_try_special_case(self):
        bip = bipartite_instance(3, 3, 15, seed=1)
        assert try_special_case_schedule(bip) is not None
        tri = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        assert try_special_case_schedule(tri) is None

    def test_auto_uses_bipartite_optimal_for_odd_bipartite(self):
        inst = bipartite_instance(4, 4, 30, old_capacity=1, new_capacity=3, seed=2)
        sched = plan(inst, method="auto").schedule
        assert sched.method == "bipartite_optimal"
        assert sched.num_rounds == lb1(inst)

    def test_auto_still_prefers_even_optimal(self):
        inst = bipartite_instance(4, 4, 30, old_capacity=2, new_capacity=4, seed=2)
        sched = plan(inst, method="auto").schedule
        assert sched.method == "even_optimal"
