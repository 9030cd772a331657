"""Tests for the serving wire protocol (repro.serve.protocol)."""

import hashlib
import json

import pytest

from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from repro.pipeline.planner import plan
from repro.pipeline.registry import solver_names
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    canonical_json,
    health_response,
    parse_plan_request,
    parse_response,
    plan_request_payload,
    plan_response,
    rehydrate_schedule,
    request_fingerprint,
    schedule_payload,
    validate_plan_response,
)
from repro.workloads.io import instance_to_json

from tests.conftest import random_instance
from tests.serve.conftest import make_request, wire_instance

KNOWN = ("auto", *solver_names())


def encode(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


class TestCanonicalJson:
    def test_sorted_compact_bytes(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'

    def test_insertion_order_irrelevant(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json({"y": 2, "x": 1})


class TestProtocolError:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            ProtocolError("no-such-code", "boom")

    def test_payload_shape(self):
        payload = ProtocolError("overloaded", "full", http_status=503).to_payload()
        assert payload == {
            "version": PROTOCOL_VERSION,
            "kind": "error",
            "code": "overloaded",
            "message": "full",
        }


class TestParsePlanRequest:
    def test_round_trip(self):
        inst = wire_instance(seed=3)
        body = canonical_json(plan_request_payload(inst, method="general", seed=7))
        request = parse_plan_request(body, known_methods=KNOWN)
        assert request.method == "general"
        assert request.seed == 7
        assert request.certify is False
        assert request.timeout is None
        assert request.instance.num_items == inst.num_items
        assert request.fingerprint == request_fingerprint(
            request.instance, "general", 7, False
        )

    def test_not_json(self):
        with pytest.raises(ProtocolError) as err:
            parse_plan_request(b"\xff\xfe", known_methods=KNOWN)
        assert err.value.code == "bad-request"

    def test_not_an_object(self):
        with pytest.raises(ProtocolError):
            parse_plan_request(b"[1,2]", known_methods=KNOWN)

    def test_unknown_fields_rejected(self):
        inst = wire_instance()
        payload = plan_request_payload(inst)
        payload["surprise"] = True
        with pytest.raises(ProtocolError) as err:
            parse_plan_request(canonical_json(payload), known_methods=KNOWN)
        assert "surprise" in err.value.message

    def test_unsupported_version(self):
        inst = wire_instance()
        payload = plan_request_payload(inst)
        payload["version"] = 99
        with pytest.raises(ProtocolError) as err:
            parse_plan_request(canonical_json(payload), known_methods=KNOWN)
        assert err.value.code == "unsupported-version"

    def test_unknown_method(self):
        inst = wire_instance()
        payload = plan_request_payload(inst, method="warp")
        with pytest.raises(ProtocolError) as err:
            parse_plan_request(canonical_json(payload), known_methods=KNOWN)
        assert err.value.code == "unknown-method"

    def test_missing_instance(self):
        with pytest.raises(ProtocolError):
            parse_plan_request(encode({"method": "auto"}), known_methods=KNOWN)

    def test_broken_instance_payload(self):
        body = encode({"instance": {"format": "nope"}})
        with pytest.raises(ProtocolError) as err:
            parse_plan_request(body, known_methods=KNOWN)
        assert err.value.code == "bad-request"

    @pytest.mark.parametrize("seed", ["3", 1.5, True, None])
    def test_bad_seed_type(self, seed):
        inst = wire_instance()
        payload = plan_request_payload(inst)
        payload["seed"] = seed
        with pytest.raises(ProtocolError):
            parse_plan_request(canonical_json(payload), known_methods=KNOWN)

    @pytest.mark.parametrize(
        "timeout", ["fast", True, 0, -1.0, float("nan"), float("inf")]
    )
    def test_bad_timeout(self, timeout):
        inst = wire_instance()
        payload = plan_request_payload(inst)
        payload["timeout"] = timeout  # json writes NaN / Infinity literals
        with pytest.raises(ProtocolError) as err:
            parse_plan_request(canonical_json(payload), known_methods=KNOWN)
        assert err.value.code == "bad-request"

    def test_certify_endpoint_flag(self):
        inst = wire_instance()
        payload = plan_request_payload(inst)
        del payload["certify"]
        del payload["kind"]
        request = parse_plan_request(
            canonical_json(payload), known_methods=KNOWN, certify=True
        )
        assert request.certify is True


class TestRequestFingerprint:
    def test_insertion_order_invariant(self):
        # Same structure entered in a different move order gets
        # different edge ids; the fingerprint must not see that.
        a = MigrationInstance.from_moves(
            [("a", "b"), ("a", "b"), ("b", "c")], {"a": 2, "b": 1, "c": 2}
        )
        b = MigrationInstance.from_moves(
            [("b", "c"), ("b", "a"), ("a", "b")], {"c": 2, "b": 1, "a": 2}
        )
        assert request_fingerprint(a, "auto", 0, False) == request_fingerprint(
            b, "auto", 0, False
        )

    def test_structure_distinguishes(self):
        a = MigrationInstance.from_moves(
            [("a", "b"), ("a", "b")], {"a": 2, "b": 1}
        )
        b = MigrationInstance.from_moves(
            [("a", "b"), ("a", "b")], {"a": 2, "b": 2}
        )
        assert request_fingerprint(a, "auto", 0, False) != request_fingerprint(
            b, "auto", 0, False
        )

    def test_parameters_distinguish(self):
        inst = wire_instance()
        base = request_fingerprint(inst, "auto", 0, False)
        assert request_fingerprint(inst, "auto", 1, False) != base
        assert request_fingerprint(inst, "general", 0, False) != base
        assert request_fingerprint(inst, "auto", 0, True) != base

    def test_ambiguous_reprs_are_refused(self):
        """Two instances over look-alike nodes plan differently, but a
        key from their reprs alone would coalesce them."""

        class Opaque:
            def __repr__(self):
                return "opaque"

        def look_alike(items):
            u, v, w = Opaque(), Opaque(), "w"
            graph = Multigraph(nodes=[u, v, w])
            for _ in range(items):
                graph.add_edge(u, v)
            return MigrationInstance(graph, {u: 1, v: 1, w: 1})

        one, four = look_alike(1), look_alike(4)
        assert [plan(inst).num_rounds for inst in (one, four)] == [1, 4]
        for inst in (one, four):
            with pytest.raises(ProtocolError, match="ambiguous") as info:
                request_fingerprint(inst, "auto", 0, False)
            assert info.value.code == "bad-request"


#: ``(instance, plan_request_payload kwargs)`` whose wire bytes are
#: pinned below: serve-mixed's small request size, a mid-size certify
#: request with a timeout, and parallel moves beside an idle disk.
WIRE_CASES = {
    "random-14": (random_instance(6, 14, seed=1), {}),
    "random-80-certify": (
        random_instance(12, 80, seed=2),
        {"method": "general", "seed": 5, "certify": True, "timeout": 2.5},
    ),
    "parallel-idle": (
        MigrationInstance.from_moves(
            [("b", "a"), ("a", "b"), ("a", "b"), ("c", "a")],
            {"a": 1, "b": 2, "c": 3, "z": 4},
            extra_nodes=["z"],
        ),
        {"seed": 1},
    ),
}


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


class TestWireFormPins:
    """The instance and request wire bytes, and the fingerprint a
    parsed request carries, are fixed: clients, stores and coalescing
    keys depend on them."""

    @pytest.mark.parametrize(
        "case, instance_json, request_bytes, fingerprint",
        [
            ("random-14", "f92bff8aefe7d89b", "1f8f225d9b26db82", "c7439e09bf138ebc"),
            ("random-80-certify", "e3269f98c71d404a", "ea118c38672f10e1", "cdcad8fc57d47022"),
            ("parallel-idle", "3c4a117babb4a6ac", "e305753689e62b28", "6b8ecc050fcb2724"),
        ],
    )
    def test_pinned(self, case, instance_json, request_bytes, fingerprint):
        instance, kwargs = WIRE_CASES[case]
        body = canonical_json(plan_request_payload(instance, **kwargs))
        assert sha(instance_to_json(instance)) == instance_json
        assert sha(body) == request_bytes
        request = parse_plan_request(body, known_methods=KNOWN)
        assert request.fingerprint[:16] == fingerprint

    def test_malformed_instance_message(self):
        payload = plan_request_payload(WIRE_CASES["parallel-idle"][0])
        payload["instance"]["moves"][1] = ["a"]
        with pytest.raises(ProtocolError) as err:
            parse_plan_request(canonical_json(payload), known_methods=KNOWN)
        assert err.value.message == (
            "invalid instance payload: a move is a [src, dst] pair of disk "
            "names, got ['a']"
        )


class TestSchedulePayload:
    def test_round_trip_rehydrates_valid_schedule(self):
        inst = wire_instance(seed=5)
        schedule = plan(inst).schedule
        payload = schedule_payload(inst, schedule)
        restored = rehydrate_schedule(inst, payload)
        assert restored.num_rounds == schedule.num_rounds
        assert restored.method == schedule.method

    def test_rehydrate_rejects_wrong_instance(self):
        inst = wire_instance(seed=5)
        other = wire_instance(num_nodes=4, num_edges=4, seed=9)
        payload = schedule_payload(inst, plan(inst).schedule)
        with pytest.raises(ProtocolError):
            rehydrate_schedule(other, payload)

    def test_rehydrate_rejects_malformed_payload(self):
        inst = wire_instance()
        with pytest.raises(ProtocolError):
            rehydrate_schedule(inst, {"method": "auto"})


class TestResponses:
    def _response(self, certify=False):
        inst = wire_instance(seed=2)
        request = make_request(inst, certify=certify)
        payload = schedule_payload(inst, plan(inst, certify=certify).schedule)
        return plan_response(
            request,
            payload,
            coalesced=False,
            lower_bound=3 if certify else None,
            certified_optimal=True if certify else None,
        )

    def test_plan_response_validates(self):
        response = self._response()
        assert validate_plan_response(response) == []
        assert response["kind"] == "plan"
        assert response["num_rounds"] == len(response["plan"]["rounds"])
        assert "lower_bound" not in response

    def test_certify_response_carries_bound(self):
        response = self._response(certify=True)
        assert validate_plan_response(response) == []
        assert response["kind"] == "certify"
        assert response["lower_bound"] == 3
        assert response["certified_optimal"] is True

    def test_validator_catches_malformed_tokens(self):
        response = self._response()
        response["plan"]["rounds"] = [[["a", "b"]]]
        assert validate_plan_response(response)

    def test_parse_response_round_trip(self):
        response = self._response()
        assert parse_response(canonical_json(response)) == response

    def test_parse_response_returns_error_payloads(self):
        payload = ProtocolError("draining", "bye").to_payload()
        assert parse_response(canonical_json(payload))["kind"] == "error"

    def test_parse_response_rejects_bad_version(self):
        with pytest.raises(ProtocolError):
            parse_response(encode({"version": 2, "kind": "plan"}))

    def test_parse_response_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError):
            parse_response(encode({"version": PROTOCOL_VERSION, "kind": "x"}))


class TestHealth:
    def test_payloads(self):
        assert health_response("ok")["status"] == "ok"
        assert health_response("draining")["status"] == "draining"

    def test_invalid_status(self):
        with pytest.raises(ValueError):
            health_response("sleepy")
