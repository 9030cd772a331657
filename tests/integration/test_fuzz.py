"""Fuzz/cross-validation run plus unit tests for its two validators."""

from types import SimpleNamespace

import pytest

from repro import plan
from repro.analysis.crossval import fuzz_schedulers, main
from repro.checks.certify import CertificationError, verify_schedule
from repro.core.errors import ScheduleValidationError
from repro.core.schedule import MigrationSchedule
from tests.conftest import random_instance


class TestIndependentValidator:
    """The harness checks every schedule twice: with the primary
    :meth:`MigrationSchedule.validate` and with the independent
    :func:`verify_schedule`, which reuses no schedule code. A cross-check
    is only as good as their agreement, so each case runs both on the
    same schedule. ``tests/checks/test_certify.py::TestVerifySchedule``
    tests :func:`verify_schedule` alone.
    """

    def test_accepts_real_schedules(self):
        inst = random_instance(8, 40, seed=1)
        sched = plan(inst).schedule
        sched.validate(inst)
        assert verify_schedule(inst, sched.rounds) == sched.num_rounds

    def test_rejects_duplicate(self):
        inst = random_instance(5, 6, seed=2)
        eids = inst.graph.edge_ids()
        sched = MigrationSchedule([[eids[0]], eids])
        with pytest.raises(ScheduleValidationError, match="twice"):
            sched.validate(inst)
        with pytest.raises(CertificationError, match="more than once"):
            verify_schedule(inst, sched.rounds)

    def test_rejects_incomplete(self):
        inst = random_instance(5, 6, seed=2)
        sched = MigrationSchedule([inst.graph.edge_ids()[:3]])
        with pytest.raises(ScheduleValidationError, match="never migrated"):
            sched.validate(inst)
        with pytest.raises(CertificationError, match="never scheduled"):
            verify_schedule(inst, sched.rounds)

    def test_rejects_capacity_violation(self):
        from repro.core.problem import MigrationInstance

        inst = MigrationInstance.from_moves(
            [("a", "b"), ("a", "c")], {"a": 1, "b": 1, "c": 1}
        )
        sched = MigrationSchedule([inst.graph.edge_ids()])
        with pytest.raises(ScheduleValidationError, match="c_v = 1"):
            sched.validate(inst)
        with pytest.raises(CertificationError, match="c_v = 1"):
            verify_schedule(inst, sched.rounds)

    def test_agrees_with_primary_validator(self):
        inst = random_instance(9, 60, seed=3)
        for method in ("general", "saia", "greedy"):
            sched = plan(inst, method=method).schedule
            sched.validate(inst)          # primary
            assert verify_schedule(inst, sched.rounds) == sched.num_rounds


class TestFuzzHarness:
    def test_short_fuzz_run_clean(self):
        report = fuzz_schedulers(trials=25, seed=11)
        assert report.ok, report.failures
        assert report.trials == 25
        assert set(report.per_method_rounds) >= {"auto", "general", "greedy"}

    def test_worst_ratio_tracked(self):
        report = fuzz_schedulers(trials=10, seed=5)
        assert report.worst_ratio >= 1.0

    def test_reports_what_only_the_independent_validator_rejects(
        self, monkeypatch
    ):
        """With the primary validator silenced, a dropped transfer is still
        collected as a failure: the harness runs :func:`verify_schedule`."""
        import repro.analysis.crossval as crossval

        real_plan = crossval.plan

        def dropping_plan(inst, **kwargs):
            rounds = [list(rnd) for rnd in real_plan(inst, **kwargs).schedule.rounds]
            rounds[0] = rounds[0][1:]
            return SimpleNamespace(schedule=MigrationSchedule(rounds))

        monkeypatch.setattr(crossval, "plan", dropping_plan)
        monkeypatch.setattr(MigrationSchedule, "validate", lambda self, inst: None)
        report = fuzz_schedulers(trials=3, methods=("general",), seed=2)
        assert not report.ok
        assert len(report.failures) == 3
        for trial, failure in enumerate(report.failures):
            assert failure.startswith(f"trial {trial} method general: ")
            assert "CertificationError" in failure
            assert "never scheduled" in failure

    def test_cli_entry(self, capsys):
        assert main(["--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "all cross-checks passed" in out
