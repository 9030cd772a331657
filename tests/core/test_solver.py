"""Tests for method dispatch through the public planning call, ``repro.plan``."""

import pytest

from repro import plan
from repro.core.general import GeneralSolverStats, general_schedule_compact
from repro.core.problem import MigrationInstance
from repro.graphs.array_backend import lower_instance
from repro.pipeline.registry import solver_names
from tests.brute_force import brute_force_rounds
from tests.conftest import even_instance, random_instance


def instance_for(method):
    """A small instance on which ``method`` is applicable."""
    if method == "even_optimal":
        return even_instance(5, 10, seed=1)
    if method == "exact_bb":
        return random_instance(4, 8, seed=1)
    if method == "bipartite_optimal":
        from repro.workloads.generators import bipartite_instance

        return bipartite_instance(4, 3, 25, seed=1)
    if method == "even_rounding":
        return random_instance(6, 25, capacity_choices=(3, 5), seed=1)
    return random_instance(6, 25, seed=1)


class TestDispatch:
    def test_auto_picks_even_optimal_for_even_caps(self):
        inst = even_instance(6, 20, seed=0)
        sched = plan(inst, method="auto").schedule
        assert sched.method == "even_optimal"
        assert sched.num_rounds == inst.delta_prime()

    def test_auto_picks_general_for_odd_caps(self):
        inst = random_instance(6, 20, capacity_choices=(1, 3), seed=0)
        sched = plan(inst, method="auto").schedule
        assert sched.method == "general"

    def test_unknown_method_rejected(self):
        inst = random_instance(4, 5, seed=0)
        with pytest.raises(ValueError, match="unknown method"):
            plan(inst, method="magic")

    @pytest.mark.parametrize("method", solver_names())
    def test_every_method_returns_valid_schedule(self, method):
        inst = instance_for(method)
        sched = plan(inst, method=method).schedule
        sched.validate(inst)
        assert sched.method == method

    @pytest.mark.parametrize("method", ("auto",) + solver_names())
    def test_every_method_is_deterministic(self, method):
        inst = instance_for(method)
        first = plan(inst, method=method, seed=7).schedule
        again = plan(inst, method=method, seed=7).schedule
        assert first.rounds == again.rounds
        assert first.method == again.method

    def test_auto_certifies_past_the_exact_search_disk_cap(self):
        """A 15-disk instance is beyond ``exact_bb``; ``auto`` still
        proves its plan optimal, at the brute-force optimum."""
        ring = [(f"d{i}", f"d{(i + 1) % 15}") for i in range(15)]
        inst = MigrationInstance.from_moves(
            ring + [("d0", "d7")], {f"d{i}": 1 for i in range(15)}
        )
        with pytest.raises(ValueError, match="caps at 14 disks"):
            plan(inst, method="exact_bb")
        result = plan(inst, certify=True)
        assert result.schedule.method == "general"
        assert result.certified_optimal
        assert result.schedule.num_rounds == brute_force_rounds(inst) == 3

    def test_general_fills_its_stats(self):
        inst = random_instance(6, 25, capacity_choices=(1, 2), seed=2)
        stats = GeneralSolverStats()
        general_schedule_compact(lower_instance(inst), stats=stats)
        assert stats.sweeps >= 1


class TestOrdering:
    """The intended quality ordering holds on representative inputs."""

    @pytest.mark.parametrize("seed", range(5))
    def test_general_never_worse_than_greedy_or_saia(self, seed):
        inst = random_instance(10, 60, capacity_choices=(1, 2, 3, 4), seed=seed)
        general = plan(inst, method="general").schedule.num_rounds
        greedy = plan(inst, method="greedy").schedule.num_rounds
        saia = plan(inst, method="saia").schedule.num_rounds
        assert general <= greedy
        assert general <= saia

    @pytest.mark.parametrize("seed", range(5))
    def test_heterogeneity_aware_beats_homogeneous_with_capacity(self, seed):
        inst = random_instance(8, 60, capacity_choices=(4,), seed=seed)
        hetero = plan(inst, method="auto").schedule.num_rounds
        homo = plan(inst, method="homogeneous").schedule.num_rounds
        assert hetero <= homo
