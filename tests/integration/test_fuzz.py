"""Fuzz/cross-validation run plus unit tests for the verifier."""

import pytest

from repro import plan
from repro.analysis.crossval import (
    fuzz_schedulers,
    independent_validate,
    main,
)
from repro.core.errors import ScheduleValidationError
from repro.core.schedule import MigrationSchedule
from tests.conftest import random_instance


class TestIndependentValidator:
    def test_accepts_real_schedules(self):
        inst = random_instance(8, 40, seed=1)
        sched = plan(inst).schedule
        independent_validate(inst, sched)

    def test_rejects_duplicate(self):
        inst = random_instance(5, 6, seed=2)
        eids = inst.graph.edge_ids()
        sched = MigrationSchedule([[eids[0]], eids])
        with pytest.raises(ScheduleValidationError, match="twice"):
            independent_validate(inst, sched)

    def test_rejects_incomplete(self):
        inst = random_instance(5, 6, seed=2)
        sched = MigrationSchedule([inst.graph.edge_ids()[:3]])
        with pytest.raises(ScheduleValidationError, match="covered"):
            independent_validate(inst, sched)

    def test_rejects_capacity_violation(self):
        from repro.core.problem import MigrationInstance

        inst = MigrationInstance.from_moves(
            [("a", "b"), ("a", "c")], {"a": 1, "b": 1, "c": 1}
        )
        sched = MigrationSchedule([inst.graph.edge_ids()])
        with pytest.raises(ScheduleValidationError, match="exceeds"):
            independent_validate(inst, sched)

    def test_agrees_with_primary_validator(self):
        inst = random_instance(9, 60, seed=3)
        for method in ("general", "saia", "greedy"):
            sched = plan(inst, method=method).schedule
            sched.validate(inst)          # primary
            independent_validate(inst, sched)  # independent


class TestFuzzHarness:
    def test_short_fuzz_run_clean(self):
        report = fuzz_schedulers(trials=25, seed=11)
        assert report.ok, report.failures
        assert report.trials == 25
        assert set(report.per_method_rounds) >= {"auto", "general", "greedy"}

    def test_worst_ratio_tracked(self):
        report = fuzz_schedulers(trials=10, seed=5)
        assert report.worst_ratio >= 1.0

    def test_cli_entry(self, capsys):
        assert main(["--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "all cross-checks passed" in out
