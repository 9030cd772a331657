"""Tests for the Section IV optimal even-capacity scheduler."""

import pytest

from repro.checks.certify import verify_schedule
from repro.core.errors import InvalidInstanceError
from repro.core.even_optimal import even_optimal_schedule_compact
from repro.core.lower_bounds import lb1
from repro.core.problem import MigrationInstance
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import Multigraph
from tests.conftest import even_instance


def solve_even(instance):
    return even_optimal_schedule_compact(lower_instance(instance))


class TestPreconditions:
    def test_odd_capacity_rejected(self):
        inst = MigrationInstance.from_moves([("a", "b")], {"a": 1, "b": 2})
        with pytest.raises(InvalidInstanceError):
            solve_even(inst)

    def test_empty_instance(self):
        inst = MigrationInstance(Multigraph(nodes=["a"]), {"a": 2})
        assert solve_even(inst).num_rounds == 0


class TestOptimality:
    """Theorem 4.1: the schedule length equals Δ' = LB1 exactly."""

    @pytest.mark.parametrize("seed", range(15))
    def test_random_instances_hit_lb1(self, seed):
        inst = even_instance(7, 5 + 3 * seed, capacity_choices=(2, 4), seed=seed)
        sched = solve_even(inst)
        sched.validate(inst)
        assert sched.num_rounds == lb1(inst)

    @pytest.mark.parametrize("seed", range(8))
    def test_heterogeneous_even_mix(self, seed):
        inst = even_instance(9, 40, capacity_choices=(2, 4, 6, 8), seed=seed)
        sched = solve_even(inst)
        sched.validate(inst)
        assert sched.num_rounds == lb1(inst)

    def test_figure2_with_capacity_two(self):
        # K3 with M parallel items per pair and c = 2 everywhere:
        # Δ' = 2M/2 = M rounds (the paper's Figure 2 claim).
        M = 7
        moves = []
        for pair in (("a", "b"), ("b", "c"), ("a", "c")):
            moves.extend([pair] * M)
        inst = MigrationInstance.from_moves(moves, {"a": 2, "b": 2, "c": 2})
        sched = solve_even(inst)
        sched.validate(inst)
        assert sched.num_rounds == M

    def test_parallel_bundle(self):
        inst = MigrationInstance.from_moves([("a", "b")] * 12, {"a": 4, "b": 6})
        sched = solve_even(inst)
        sched.validate(inst)
        assert sched.num_rounds == 3  # ceil(12/4)

    def test_single_edge_high_capacity(self):
        inst = MigrationInstance.from_moves([("a", "b")], {"a": 8, "b": 2})
        sched = solve_even(inst)
        assert verify_schedule(inst, sched.rounds) == 1

    def test_star_with_even_hub(self):
        moves = [("hub", f"leaf{i}") for i in range(10)]
        caps = {"hub": 4}
        caps.update({f"leaf{i}": 2 for i in range(10)})
        inst = MigrationInstance.from_moves(moves, caps)
        sched = solve_even(inst)
        sched.validate(inst)
        assert sched.num_rounds == 3  # ceil(10/4)


class TestRoundStructure:
    def test_every_round_respects_capacity_exactly(self):
        inst = even_instance(6, 30, capacity_choices=(2, 4), seed=42)
        sched = solve_even(inst)
        for i in range(sched.num_rounds):
            for v, load in sched.round_loads(inst, i).items():
                assert load <= inst.capacity(v)

    def test_disconnected_components(self):
        moves = [("a", "b"), ("a", "b"), ("x", "y"), ("y", "z"), ("z", "x")]
        caps = {v: 2 for v in "abxyz"}
        inst = MigrationInstance.from_moves(moves, caps)
        sched = solve_even(inst)
        sched.validate(inst)
        assert sched.num_rounds == lb1(inst)
