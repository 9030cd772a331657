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
import re
import sqlite3

import pytest

from repro import MigrationInstance, plan
from repro.checks.certify import (
    CertificationError,
    certificate_from_json,
    certificate_to_json,
    make_certificate,
)
from repro.cluster.traces import MigrationTrace
from repro.core.errors import ScheduleValidationError
from repro.exact.search import OptimalityCertificate, solve_exact
from repro.pipeline.cache import CachedPlan, PlanCache
from repro.runtime.faults import FaultPlan, FaultPlanError
from repro.serve.protocol import ProtocolError, rehydrate_schedule, schedule_payload
from repro.serve.store import (
    JSONL_LOG_NAME,
    JsonlPlanStore,
    PlanStoreError,
    SqlitePlanStore,
)
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


#: Token plans whose first token is malformed: each names the pair
#: ``'a'``-``'b'`` of :data:`PAIR`, so a parser that coerced or
#: ignored the bad part would find a slot for it.
BAD_TOKENS = [{"a": 1}, ["'a'", "'b'", 0, 0], ["'a'", "'b'", True], ["'a'", "'b'", -1]]
BAD_TOKEN_IDS = ["object-token", "four-elements", "true-slot", "negative-slot"]

#: Two items between one pair of unit-capacity disks: slots 0 and 1.
PAIR = MigrationInstance.from_moves([("a", "b"), ("a", "b")], {"a": 1, "b": 1})


def token_plan_with(token):
    payload = schedule_payload(PAIR, plan(PAIR).schedule)
    payload["rounds"][0][0] = token
    return payload


class TestStoredTokenPlan:
    @pytest.mark.parametrize("token", BAD_TOKENS, ids=BAD_TOKEN_IDS)
    def test_sqlite_load_raises_plan_store_error(self, tmp_path, token):
        path = str(tmp_path / "plans.db")
        SqlitePlanStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO plans (key, payload) VALUES ('k', ?)",
            (json.dumps(token_plan_with(token)),),
        )
        conn.commit()
        conn.close()
        store = SqlitePlanStore(path)
        with pytest.raises(PlanStoreError, match="malformed token"):
            store.load("k")
        store.close()

    @pytest.mark.parametrize("token", BAD_TOKENS, ids=BAD_TOKEN_IDS)
    def test_jsonl_open_raises_plan_store_error(self, tmp_path, token):
        record = {"key": "k", "plan": token_plan_with(token)}
        log = tmp_path / JSONL_LOG_NAME
        log.write_text("\n" + json.dumps(record) + "\n")
        with pytest.raises(PlanStoreError, match="malformed token") as exc:
            JsonlPlanStore(str(tmp_path))
        assert str(exc.value).startswith(f"{log}:2: ")


class TestServedTokenPlan:
    @pytest.mark.parametrize("token", BAD_TOKENS, ids=BAD_TOKEN_IDS)
    def test_rehydrate_raises_bad_request(self, token):
        with pytest.raises(ProtocolError, match="malformed token") as exc:
            rehydrate_schedule(PAIR, token_plan_with(token))
        assert exc.value.code == "bad-request"

    @pytest.mark.parametrize(
        "rounds, message",
        [
            ([[["'a'", "'b'", 0]]], "never migrated"),
            ([[["'a'", "'b'", 0]], [["'a'", "'b'", 1]], [["'a'", "'b'", 0]]],
             "scheduled twice"),
        ],
        ids=["dropped-token", "repeated-token"],
    )
    def test_rounds_that_are_no_schedule_raise_bad_request(self, rounds, message):
        payload = {"method": "general", "rounds": rounds}
        with pytest.raises(ProtocolError, match=message) as exc:
            rehydrate_schedule(PAIR, payload)
        assert exc.value.code == "bad-request"


class TestStoredPlanThatDoesNotFit:
    def test_plan_raises_schedule_validation_error(self, tmp_path):
        """A stored token naming a slot the component lacks fails typed
        in the merge, not as a bare ``KeyError``."""
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("b", "c"), ("c", "a")], {"a": 1, "b": 1, "c": 1}
        )
        store = SqlitePlanStore(str(tmp_path / "plans.db"))
        plan(inst, cache=PlanCache(store=store))
        [(key, stored)] = store.items()
        missing = ("'a'", "'b'", 7)
        bad_round = (missing,) + stored.rounds[0][1:]
        store.save(key, CachedPlan(stored.method, (bad_round,) + stored.rounds[1:]))
        with pytest.raises(ScheduleValidationError, match=re.escape(repr(missing))):
            plan(inst, cache=PlanCache(store=store))
        store.close()

