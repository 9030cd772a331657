"""Tests for the optimal special-case schedulers."""

import pytest

from repro import plan
from repro.checks.certify import verify_schedule
from repro.checks.engine import DEFAULT_CORPUS
from repro.core import special_cases
from repro.core.lower_bounds import lb1
from repro.core.problem import MigrationInstance
from repro.core.special_cases import (
    bipartite_optimal_schedule_compact,
    is_bipartite_instance,
)
from repro.graphs.array_backend import lower_instance
from repro.graphs.coloring.bipartite import NotBipartiteError
from repro.graphs.multigraph import Multigraph
from repro.workloads.generators import bipartite_instance


def solve_bipartite(instance):
    return bipartite_optimal_schedule_compact(lower_instance(instance))


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
        assert is_bipartite_instance(inst)  # forests are bipartite

    def test_parallel_edges_not_forest_but_bipartite(self):
        inst = MigrationInstance.uniform([("a", "b"), ("a", "b")], capacity=1)
        assert is_bipartite_instance(inst)

    def test_even_cycle_bipartite_though_not_forest(self):
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], capacity=1
        )
        assert is_bipartite_instance(inst)


class TestBipartiteOptimal:
    """Optimality for arbitrary (odd!) capacities on bipartite graphs."""

    @pytest.mark.parametrize("seed", range(10))
    def test_exactly_delta_prime_with_odd_capacities(self, seed):
        inst = bipartite_instance(
            5, 3, 20 + 7 * seed, old_capacity=1, new_capacity=3, seed=seed
        )
        sched = solve_bipartite(inst)
        sched.validate(inst)
        assert sched.num_rounds == lb1(inst)

    def test_rejects_non_bipartite(self):
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        with pytest.raises(NotBipartiteError):
            solve_bipartite(inst)

    def test_empty(self):
        inst = MigrationInstance(Multigraph(nodes=["a"]), {"a": 3})
        assert solve_bipartite(inst).num_rounds == 0

    def test_parallel_bundle_odd_capacity(self):
        inst = MigrationInstance.from_moves([("a", "b")] * 9, {"a": 3, "b": 5})
        sched = solve_bipartite(inst)
        sched.validate(inst)
        assert sched.num_rounds == 3  # ceil(9/3)

    def test_beats_general_guarantee(self):
        # On bipartite inputs the special case is exactly optimal while
        # the general algorithm only promises LB + O(sqrt(LB)).
        inst = bipartite_instance(8, 4, 200, old_capacity=1, new_capacity=5, seed=3)
        special = solve_bipartite(inst)
        general = plan(inst, method="general").schedule
        assert verify_schedule(inst, special.rounds) <= general.num_rounds
        assert special.num_rounds == lb1(inst)


class TestDispatch:
    def test_auto_uses_bipartite_optimal_for_odd_bipartite(self):
        inst = bipartite_instance(4, 4, 30, old_capacity=1, new_capacity=3, seed=2)
        sched = plan(inst, method="auto").schedule
        assert sched.method == "bipartite_optimal"
        assert sched.num_rounds == lb1(inst)

    def test_auto_uses_bipartite_optimal_for_forest(self):
        """Forests reach the König schedule through bipartite detection."""
        tree = [("r", "a"), ("r", "b"), ("r", "c"), ("a", "d"), ("a", "e")]
        star = [("x", "y"), ("x", "z")]
        inst = MigrationInstance.from_moves(
            tree + star,
            {"r": 1, "a": 3, "b": 1, "c": 1, "d": 1, "e": 1, "x": 1, "y": 3, "z": 1},
        )
        result = plan(inst, method="auto")
        result.schedule.validate(inst)
        assert result.methods_used() == {"bipartite_optimal": 2}
        assert result.schedule.num_rounds == lb1(inst)

    def test_auto_skips_bipartite_optimal_for_odd_cycle(self):
        tri = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        result = plan(tri, method="auto")
        result.schedule.validate(tri)
        assert "bipartite_optimal" not in result.methods_used()
        assert result.schedule.num_rounds == 3  # a triangle needs 3 colors

    def test_auto_still_prefers_even_optimal(self):
        inst = bipartite_instance(4, 4, 30, old_capacity=2, new_capacity=4, seed=2)
        sched = plan(inst, method="auto").schedule
        assert sched.method == "even_optimal"


class TestVerdictMemo:
    """The select stage's bipartite verdict lives in ``instance.memo``,
    so the König scheduler does not 2-colour the component again."""

    @staticmethod
    def counted_sides(monkeypatch):
        calls = []
        real = special_cases.bipartite_sides

        def counted(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(special_cases, "bipartite_sides", counted)
        return calls

    def test_plan_two_colours_the_component_once(self, monkeypatch):
        factory = {name: f for name, _method, f in DEFAULT_CORPUS}[
            "bipartite/disk-addition"
        ]
        calls = self.counted_sides(monkeypatch)
        result = plan(factory(), certify=True)
        assert result.methods_used() == {"bipartite_optimal": 1}
        assert len(calls) == 1

    def test_kernel_alone_still_checks(self, monkeypatch):
        calls = self.counted_sides(monkeypatch)
        inst = bipartite_instance(3, 2, 10, seed=0)
        solve_bipartite(inst)
        assert len(calls) == 1
        assert inst.memo["bipartite"] is True

    def test_forced_solve_after_a_false_verdict_raises(self):
        tri = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        assert not is_bipartite_instance(tri)
        with pytest.raises(NotBipartiteError, match="odd cycle"):
            solve_bipartite(tri)
        with pytest.raises(NotBipartiteError, match="odd cycle"):
            plan(tri, method="bipartite_optimal")
