"""Tests for the round-balancing post-pass."""

import pytest

from repro import plan
from repro.analysis.balance import equalize_rounds, round_size_stats
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from tests.conftest import random_instance


class TestStats:
    def test_empty(self):
        assert round_size_stats(MigrationSchedule([])) == {
            "min": 0.0, "max": 0.0, "stdev": 0.0,
        }

    def test_values(self):
        stats = round_size_stats(MigrationSchedule([[0, 1, 2], [3]]))
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["stdev"] == 1.0


class TestEqualizeRounds:
    def test_moves_edge_into_empty_slack(self):
        # Round 0 holds both independent edges, round 1 holds one edge
        # that conflicts with nothing — balancing should split 2/2.
        inst = MigrationInstance.uniform(
            [("a", "b"), ("c", "d"), ("e", "f"), ("a", "c")], capacity=1
        )
        e_ab, e_cd, e_ef, e_ac = inst.graph.edge_ids()
        lopsided = MigrationSchedule([[e_ab, e_cd, e_ef], [e_ac]])
        lopsided.validate(inst)
        balanced = equalize_rounds(lopsided, inst)
        sizes = sorted(len(r) for r in balanced.rounds)
        assert sizes == [2, 2]

    @pytest.mark.parametrize("seed", range(6))
    def test_feasibility_and_makespan_preserved(self, seed):
        inst = random_instance(9, 60, capacity_choices=(1, 2, 4), seed=seed)
        sched = plan(inst).schedule
        balanced = equalize_rounds(sched, inst)
        balanced.validate(inst)
        assert balanced.num_rounds == sched.num_rounds

    @pytest.mark.parametrize("seed", range(6))
    def test_variance_never_increases(self, seed):
        inst = random_instance(9, 80, capacity_choices=(1, 2, 4), seed=seed + 10)
        sched = plan(inst, method="greedy").schedule  # greedy front-loads
        before = round_size_stats(sched)["stdev"]
        after = round_size_stats(equalize_rounds(sched, inst))["stdev"]
        assert after <= before + 1e-9

    def test_single_round_noop(self):
        inst = MigrationInstance.uniform([("a", "b")], capacity=1)
        sched = plan(inst).schedule
        balanced = equalize_rounds(sched, inst)
        assert balanced.rounds == sched.rounds
