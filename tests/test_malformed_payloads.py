"""Malformed payloads raise each entry point's documented error.

Every reader here takes data that may come from a file, a cache or a
peer: lower-bound certificates (``certificate_from_json``, the bound
cache), objectives (``objective_from_json``, ``plan --objective``),
JSONL traces (``repro.obs.load_trace``, ``stats``), token plans in the
plan store and in served replies (``rehydrate_schedule``), and stored
plans that do not fit their instance.  Instances, serve requests and checkpoints have their own
suites.  Whatever the payload holds, the only exception that may
escape is the typed one the entry point documents: never a
``KeyError``, ``TypeError`` or ``AttributeError`` from inside the
parser, and never a value coerced into one the writer could not have
produced.  Each case below changes one thing in a valid payload: a
top level that is not an object, a required key taken away, or a
field of the wrong type.
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
from repro.core.objectives import (
    BoundedColorObjective,
    GroupCompletionObjective,
    ObjectiveError,
    objective_from_json,
)
from repro.obs import load_trace
from repro.pipeline import StoredPlanMismatchError
from repro.pipeline.cache import CachedPlan, PlanCache
from repro.serve.protocol import ProtocolError, rehydrate_schedule, schedule_payload
from repro.serve.store import PlanStore, PlanStoreError

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


class TestObjective:
    BOUNDED = json.loads(BoundedColorObjective({0: (0, 1), 1: (1,)}).to_json())
    GROUPS = json.loads(
        GroupCompletionObjective({0: "g", 1: "h"}, {"g": 1, "h": 2}).to_json()
    )

    @pytest.mark.parametrize(
        "change",
        [
            {"allowed": {"0": 5, "1": [1]}},
            {"allowed": {"0": "01", "1": [1]}},
            {"allowed": {"0": {"1": 0}, "1": [1]}},
            {"allowed": {"x": [0], "1": [1]}},
            {"allowed": {"-0": [0], "1": [1]}},
            {"allowed": {"0": ["1"], "1": [1]}},
            {"allowed": {"0": [1.0], "1": [1]}},
            {"allowed": {"0": [True], "1": [1]}},
            {"allowed": {"0": [[1]], "1": [1]}},
            {"allowed": {"0": [0, "a"], "1": [1]}},
        ],
        ids=["window-int", "window-str", "window-object", "key-str",
             "key-signed", "round-str", "round-float", "round-true",
             "round-list", "round-mixed"],
    )
    def test_bounded_color_raises_objective_error(self, change):
        with pytest.raises(ObjectiveError):
            objective_from_json(json.dumps(edited(self.BOUNDED, change)))

    @pytest.mark.parametrize(
        "change",
        [
            {"groups": {"x": "g", "1": "h"}},
            {"groups": {"0": 5, "1": "h"}, "weights": {"5": 1, "h": 2}},
            {"weights": {"g": "1", "h": 2}},
            {"weights": {"g": 1.0, "h": 2}},
            {"weights": {"g": True, "h": 2}},
            {"weights": {"g": [1], "h": 2}},
        ],
        ids=["key-str", "name-int", "weight-str", "weight-float",
             "weight-true", "weight-list"],
    )
    def test_group_completion_raises_objective_error(self, change):
        with pytest.raises(ObjectiveError):
            objective_from_json(json.dumps(edited(self.GROUPS, change)))


class TestTrace:
    LINES = ['{"kind": "meta", "schema": 1}', '{"kind": "counter"}']

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"kind": "span"', "not JSON"),
            ("[1]", "got list"),
            ('"span"', "got str"),
            ("null", "got NoneType"),
        ],
        ids=["truncated", "array", "string", "null"],
    )
    def test_bad_line_raises_value_error_naming_it(self, tmp_path, line, reason):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join([self.LINES[0], line, self.LINES[1]]) + "\n")
        with pytest.raises(ValueError, match=f"^line 2: .*{reason}"):
            load_trace(str(path))


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
        PlanStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO plans (key, payload) VALUES ('k', ?)",
            (json.dumps(token_plan_with(token)),),
        )
        conn.commit()
        conn.close()
        store = PlanStore(path)
        with pytest.raises(PlanStoreError, match="malformed token"):
            store.load("k")
        store.close()


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


def _missing_slot(rounds):
    """Round 0's first token names slot 7, which the pair lacks."""
    return ((("'a'", "'b'", 7),) + rounds[0][1:],) + rounds[1:]


def _slot_twice(rounds):
    """The last round's first token repeats round 0's first."""
    return rounds[:-1] + ((rounds[0][0],) + rounds[-1][1:],)


class TestStoredPlanThatDoesNotFit:
    @pytest.mark.parametrize("tamper, message", [
        (_missing_slot, re.escape(repr(("'a'", "'b'", 7)))),
        (_slot_twice, r"does not fit it: edge \d+ scheduled twice"),
    ], ids=["missing-slot", "slot-twice"])
    def test_plan_raises_schedule_validation_error(self, tmp_path, tamper, message):
        """A stored plan naming a slot the component lacks, or a real
        slot twice, fails typed as :class:`StoredPlanMismatchError`, not
        as a bare ``KeyError`` or an unattributed invalid schedule."""
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("b", "c"), ("c", "a")], {"a": 1, "b": 1, "c": 1}
        )
        store = PlanStore(str(tmp_path / "plans.db"))
        plan(inst, cache=PlanCache(store=store))
        [(key, stored)] = store.items()
        store.save(key, CachedPlan(stored.method, tamper(stored.rounds)))
        with pytest.raises(StoredPlanMismatchError, match=message):
            plan(inst, cache=PlanCache(store=store))
        store.close()

