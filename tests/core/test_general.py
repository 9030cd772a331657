"""Tests for the Section V general-case approximation algorithm."""

import pytest

from repro.checks.certify import verify_schedule
from repro.core.general import GeneralSolverStats, general_schedule_compact
from repro.core.lower_bounds import lower_bound
from repro.core.problem import MigrationInstance
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import Multigraph
from tests.brute_force import brute_force_rounds
from tests.conftest import random_instance


def solve_general(instance, seed=0, stats=None):
    return general_schedule_compact(lower_instance(instance), seed=seed, stats=stats)


class TestBasics:
    def test_empty(self):
        inst = MigrationInstance(Multigraph(nodes=["a"]), {"a": 1})
        assert solve_general(inst).num_rounds == 0

    def test_single_edge(self):
        inst = MigrationInstance.from_moves([("a", "b")], {"a": 1, "b": 3})
        sched = solve_general(inst)
        sched.validate(inst)
        assert sched.num_rounds == 1

    def test_stats_populated(self):
        inst = random_instance(6, 20, seed=0)
        stats = GeneralSolverStats()
        sched = solve_general(inst, stats=stats)
        verify_schedule(inst, sched.rounds)
        assert stats.lower_bound >= 1
        assert stats.initial_colors == stats.lower_bound
        assert stats.sweeps >= 1


class TestApproximationQuality:
    """Theorem 5.1: at most OPT + O(sqrt(OPT)) rounds."""

    @pytest.mark.parametrize("seed", range(15))
    def test_within_theorem_budget_random(self, seed):
        inst = random_instance(10, 10 + 6 * seed, capacity_choices=(1, 2, 3, 5), seed=seed)
        stats = GeneralSolverStats()
        sched = solve_general(inst, stats=stats)
        sched.validate(inst)
        assert sched.num_rounds <= stats.theorem_budget()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exact_on_tiny_instances(self, seed):
        inst = random_instance(5, 8, capacity_choices=(1, 2, 3), seed=seed + 100)
        opt = brute_force_rounds(inst)
        sched = solve_general(inst)
        assert opt <= verify_schedule(inst, sched.rounds) <= opt + 2

    def test_unit_capacity_odd_cycle(self):
        # Odd cycle at c_v = 1 needs 3 rounds (LB2 binds, LB1 = 2).
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        sched = solve_general(inst)
        sched.validate(inst)
        assert sched.num_rounds == 3

    def test_high_multiplicity_pair(self):
        inst = MigrationInstance.from_moves([("a", "b")] * 9, {"a": 3, "b": 2})
        sched = solve_general(inst)
        sched.validate(inst)
        assert sched.num_rounds == 5  # ceil(9/2) binds at b

    def test_mixed_odd_capacities(self):
        moves = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        inst = MigrationInstance.from_moves(
            moves, {"a": 3, "b": 1, "c": 5, "d": 1}
        )
        sched = solve_general(inst)
        sched.validate(inst)
        assert sched.num_rounds >= lower_bound(inst)
        assert sched.num_rounds <= lower_bound(inst) + 2


class TestDeterminismAndSeeds:
    def test_same_seed_same_schedule(self):
        inst = random_instance(8, 40, seed=5)
        a = solve_general(inst, seed=1)
        b = solve_general(inst, seed=1)
        verify_schedule(inst, a.rounds)
        assert a.rounds == b.rounds

    def test_different_seeds_still_valid(self):
        inst = random_instance(8, 40, seed=5)
        for seed in range(4):
            sched = solve_general(inst, seed=seed)
            sched.validate(inst)


class TestFigure2:
    def test_homogeneous_unit_capacity_triangle_family(self):
        # K3 with M parallel edges per pair at c = 1 needs 3M rounds
        # (LB2 over the whole triangle: 3M edges, 1 per round).
        M = 5
        moves = []
        for pair in (("a", "b"), ("b", "c"), ("a", "c")):
            moves.extend([pair] * M)
        inst = MigrationInstance.from_moves(moves, {v: 1 for v in "abc"})
        sched = solve_general(inst)
        sched.validate(inst)
        assert sched.num_rounds == 3 * M
