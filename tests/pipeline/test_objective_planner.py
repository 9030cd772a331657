"""Objective-aware planning through repro.plan (the pipeline front door)."""

import dataclasses

import pytest

from repro.checks.certify import CertificationError
from repro.core.objectives import (
    BoundedColorObjective,
    GroupCompletionObjective,
    MakespanObjective,
)
from repro.exact.search import EXACT_BB_METHOD
from repro.pipeline import plan
from tests.conftest import random_instance


def tiny_instance():
    return random_instance(5, 8, seed=2)


def bounded_objective(inst, width=8):
    return BoundedColorObjective(
        {eid: tuple(range(width)) for eid in inst.graph.edge_ids()}
    )


def group_objective(inst):
    eids = sorted(inst.graph.edge_ids())
    groups = {eid: ("a" if i % 2 == 0 else "b") for i, eid in enumerate(eids)}
    return GroupCompletionObjective(groups, {"a": 2, "b": 1})


class TestMakespanAutoSelection:
    def test_tiny_instance_takes_exact_path_with_certificate(self):
        result = plan(tiny_instance(), certify=True)
        assert [c.method for c in result.components] == [EXACT_BB_METHOD]
        assert result.certified_optimal
        assert len(result.component_optimality) == 1
        index, cert = result.component_optimality[0]
        assert cert.objective_kind == "makespan"
        assert cert.value == result.schedule.num_rounds

    def test_large_instance_keeps_heuristic_path(self):
        result = plan(random_instance(9, 40, seed=3), certify=True)
        assert EXACT_BB_METHOD not in {c.method for c in result.components}
        assert result.component_optimality == []

    def test_default_objective_recorded(self):
        result = plan(tiny_instance())
        assert result.objective == MakespanObjective()
        assert result.objective_value == result.schedule.num_rounds


class TestObjectivePlanning:
    def test_bounded_color_via_plan(self):
        inst = tiny_instance()
        objective = bounded_objective(inst)
        result = plan(inst, certify=True, objective=objective)
        assert result.objective == objective
        assert result.objective_value == objective.value(
            inst, result.schedule.rounds
        )
        objective.check(inst, result.schedule.rounds)
        assert result.optimality is not None
        assert result.certified_optimal

    def test_group_completion_via_plan(self):
        inst = tiny_instance()
        objective = group_objective(inst)
        result = plan(inst, certify=True, objective=objective)
        assert result.objective == objective
        assert result.optimality is not None
        assert result.optimality.objective_kind == "group_completion"
        assert result.objective_value == objective.value(
            inst, result.schedule.rounds
        )

    def test_unsupported_method_rejected(self):
        inst = tiny_instance()
        with pytest.raises(ValueError, match="cannot optimize objective"):
            plan(inst, method="greedy", objective=group_objective(inst))

    def test_tampered_optimality_certificate_rejected(self):
        inst = tiny_instance()
        objective = group_objective(inst)
        result = plan(inst, objective=objective)
        assert result.optimality is not None
        forged = dataclasses.replace(
            result.optimality, value=result.optimality.value - 1
        )
        from repro.checks.certify import verify_optimality_certificate

        with pytest.raises(CertificationError):
            verify_optimality_certificate(
                inst, objective, result.schedule, forged
            )
