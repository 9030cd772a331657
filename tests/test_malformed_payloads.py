"""Malformed payloads raise each entry point's documented error.

Every deserializer here reads data that may come from a file, a cache
or a peer.  Whatever the payload holds, the only exception that may
escape is the typed one the entry point documents: never a
``KeyError``, ``TypeError`` or ``AttributeError`` from inside the
parser.  Each case below changes one thing in a valid payload: a top
level that is not an object, a required key taken away, or a field of
the wrong type.
"""

import json

import pytest

from repro import plan
from repro.checks.certify import (
    CertificationError,
    certificate_from_json,
    certificate_to_json,
    make_certificate,
)
from repro.cluster.traces import MigrationTrace
from repro.exact.search import OptimalityCertificate, solve_exact
from repro.runtime.faults import FaultPlan, FaultPlanError
from repro.workloads.io import plan_from_json, plan_to_json

from tests.conftest import random_instance

NOT_A_MAPPING = object()


def edited(base, change):
    """``base`` with ``change`` applied: ``NOT_A_MAPPING`` swaps the top
    level for a list, a ``None`` value drops the key, any other value
    replaces it."""
    if change is NOT_A_MAPPING:
        return [base]
    payload = dict(base)
    for key, value in change.items():
        if value is None:
            payload.pop(key, None)
        else:
            payload[key] = value
    return payload


class TestLowerBoundCertificate:
    INSTANCE = random_instance(8, 25, seed=2)

    @pytest.mark.parametrize(
        "change",
        [
            NOT_A_MAPPING,
            {"bound": None},
            {"bound": "high"},
            {"lb1": 3},
            {"lb1": {"node": "'x'"}},
            {"lb2": {"nodes": 5, "internal_edges": 1, "capacity_sum": 2, "bound": 1}},
            {"lb2": {"nodes": [[1]], "internal_edges": 1, "capacity_sum": 2, "bound": 1}},
        ],
        ids=["not-a-mapping", "no-bound", "bound-str", "lb1-int", "lb1-no-fields",
             "lb2-nodes-int", "lb2-node-list"],
    )
    def test_only_certification_error_escapes(self, change):
        base = certificate_to_json(make_certificate(self.INSTANCE))
        with pytest.raises(CertificationError):
            certificate_from_json(edited(base, change), self.INSTANCE)


class TestOptimalityCertificate:
    @pytest.mark.parametrize(
        "change",
        [NOT_A_MAPPING, {"value": None}, {"value": "three"}, {"budget": [1]}],
        ids=["not-a-mapping", "no-value", "value-str", "budget-list"],
    )
    def test_only_value_error_escapes(self, change):
        certificate = solve_exact(random_instance(5, 8, seed=2)).certificate
        base = json.loads(certificate.to_json())
        with pytest.raises(ValueError):
            OptimalityCertificate.from_json(json.dumps(edited(base, change)))


class TestPlanPayload:
    @pytest.mark.parametrize(
        "change",
        [
            NOT_A_MAPPING,
            {"rounds": None},
            {"moves": None},
            {"capacities": []},
            {"moves": [[1]]},
            {"rounds": [["x"]]},
            {"rounds": [[10_000]]},
            {"rounds": [[-1]]},
            {"method": 5},
        ],
        ids=["not-a-mapping", "no-rounds", "no-moves", "capacities-list",
             "move-int", "round-str", "round-out-of-range", "round-negative",
             "method-int"],
    )
    def test_only_value_error_escapes(self, change):
        inst = random_instance(6, 12, seed=3)
        base = json.loads(plan_to_json(inst, plan(inst).schedule))
        with pytest.raises(ValueError):
            plan_from_json(json.dumps(edited(base, change)))


class TestFaultPlan:
    @pytest.mark.parametrize(
        "change",
        [
            NOT_A_MAPPING,
            {"crashes": [["d1"]]},
            {"crashes": 3},
            {"partitions": 3},
            {"partitions": [[1.0, 2.0, [["d1"]]]]},
            {"transfer_failure_rate": "high"},
        ],
        ids=["not-a-mapping", "crash-no-time", "crashes-int", "partitions-int",
             "group-member-list", "rate-str"],
    )
    def test_only_fault_plan_error_escapes(self, change):
        base = FaultPlan(transfer_failure_rate=0.1).to_json()
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json(edited(base, change))


class TestMigrationTrace:
    BASE = {
        "total_time": 2.0,
        "round_durations": [1.0, 1.0],
        "transfers": [
            {"time": 0.0, "duration": 1.0, "item_id": "i0", "source": "d0",
             "target": "d1"},
        ],
    }

    @pytest.mark.parametrize(
        "change",
        [
            NOT_A_MAPPING,
            {"transfers": None},
            {"total_time": None},
            {"transfers": 3},
            {"transfers": [{"bogus": 1}]},
            {"round_durations": 5},
            {"total_time": "late"},
        ],
        ids=["not-a-mapping", "no-transfers", "no-total-time", "transfers-int",
             "transfer-fields", "durations-int", "total-time-str"],
    )
    def test_only_value_error_escapes(self, change):
        with pytest.raises(ValueError):
            MigrationTrace.from_json(json.dumps(edited(self.BASE, change)))

    def test_valid_payload_still_loads(self):
        trace = MigrationTrace.from_json(json.dumps(self.BASE))
        assert trace.total_time == 2.0
        assert len(trace.transfers) == 1
