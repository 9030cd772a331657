"""Solver-level byte-identity: compact kernels vs their object reference.

The pipeline-level differential harness (:mod:`repro.checks.engine`)
compares whole plans; these tests compare each compact kernel against
its object reference directly — schedules *and* diagnostics — so a
divergence points at the kernel that caused it.
"""

import dataclasses

import pytest

from repro.core.even_optimal import (
    even_optimal_schedule,
    even_optimal_schedule_compact,
)
from repro.core.general import (
    GeneralSolverStats,
    general_schedule,
    general_schedule_compact,
)
from repro.core.problem import MigrationInstance
from repro.core.special_cases import (
    bipartite_optimal_schedule,
    bipartite_optimal_schedule_compact,
)
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import Multigraph
from repro.workloads.generators import (
    bipartite_instance,
    clique_instance,
    random_instance,
    regular_instance,
)


def assert_same_schedule(obj, arr):
    assert obj.rounds == arr.rounds
    assert obj.method == arr.method


class TestEvenOptimalCompact:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_even(self, seed):
        instance = random_instance(
            10, 60, capacities={2: 0.6, 4: 0.4}, seed=seed
        )
        obj = even_optimal_schedule(instance)
        arr = even_optimal_schedule_compact(lower_instance(instance))
        assert_same_schedule(obj, arr)

    def test_regular(self):
        instance = regular_instance(12, 6, capacity=2, seed=1)
        obj = even_optimal_schedule(instance)
        arr = even_optimal_schedule_compact(lower_instance(instance))
        assert_same_schedule(obj, arr)

    def test_empty(self):
        instance = MigrationInstance(
            Multigraph(nodes=["a", "b"]), {"a": 2, "b": 2}
        )
        obj = even_optimal_schedule(instance)
        arr = even_optimal_schedule_compact(lower_instance(instance))
        assert_same_schedule(obj, arr)


class TestBipartiteOptimalCompact:
    @pytest.mark.parametrize(
        "old_cap,new_cap,seed",
        [(1, 4, 0), (1, 3, 1), (3, 5, 2), (2, 2, 3)],
    )
    def test_disk_addition(self, old_cap, new_cap, seed):
        instance = bipartite_instance(
            5, 4, 45, old_capacity=old_cap, new_capacity=new_cap, seed=seed
        )
        obj = bipartite_optimal_schedule(instance)
        arr = bipartite_optimal_schedule_compact(lower_instance(instance))
        assert_same_schedule(obj, arr)

    def test_edge_id_holes(self):
        g = Multigraph(nodes=["l0", "l1", "r0", "r1"])
        doomed = g.add_edge("l0", "r0")
        for _ in range(3):
            g.add_edge("l0", "r1")
            g.add_edge("l1", "r0")
        g.remove_edge(doomed)
        g.add_edge("l1", "r1")
        instance = MigrationInstance(
            g, {"l0": 1, "l1": 3, "r0": 2, "r1": 1}
        )
        obj = bipartite_optimal_schedule(instance)
        arr = bipartite_optimal_schedule_compact(lower_instance(instance))
        assert_same_schedule(obj, arr)


class TestGeneralCompact:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("solver_seed", [0, 1])
    def test_random_mixed(self, seed, solver_seed):
        instance = random_instance(
            9, 50, capacities={1: 0.4, 2: 0.3, 3: 0.3}, seed=seed
        )
        obj_stats = GeneralSolverStats()
        arr_stats = GeneralSolverStats()
        obj = general_schedule(instance, seed=solver_seed, stats=obj_stats)
        arr = general_schedule_compact(
            lower_instance(instance), seed=solver_seed, stats=arr_stats
        )
        assert_same_schedule(obj, arr)
        # Diagnostics equality is the strongest mirror check: the two
        # engines took the same sweeps, flips, and palette growths.
        assert dataclasses.asdict(obj_stats) == dataclasses.asdict(arr_stats)

    def test_clique(self):
        instance = clique_instance(4, 3, capacity=1)
        obj = general_schedule(instance, seed=0)
        arr = general_schedule_compact(lower_instance(instance), seed=0)
        assert_same_schedule(obj, arr)
