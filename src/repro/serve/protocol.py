"""Wire protocol: versioned JSON request/response schemas.

Everything the planning service says on the wire is defined here —
the server (:mod:`repro.serve.server`), the broker
(:mod:`repro.serve.broker`) and the client
(:mod:`repro.serve.client`) share these encoders, so a schema change
is one edit.

Three request kinds travel as JSON over HTTP:

* ``plan`` — ``POST /v1/plan``: an instance payload (the
  :mod:`repro.workloads.io` wire format), a method, a seed and an
  optional per-request ``timeout``; answered with the schedule in
  **pair-token form** (:mod:`repro.pipeline.canonical`), which is
  edge-id free and canonically sorted;
* ``certify`` — ``POST /v1/certify``: a plan request that also
  verifies the schedule against a composed lower-bound certificate;
* ``health`` — ``GET /healthz``: liveness plus drain status.

**Canonical encoding.**  :func:`canonical_json` renders sorted keys
with compact separators, so two processes encoding the same payload
produce identical bytes regardless of insertion order or
``PYTHONHASHSEED``.  The served-equals-direct determinism contract is
stated in these bytes: ``canonical_json(schedule_payload(...))`` of a
served plan must equal that of a direct :func:`repro.plan` call.

**Strict validation.**  :func:`parse_plan_request` rejects unknown
fields, wrong types and unsupported versions with a typed
:class:`ProtocolError` rather than guessing — a service cannot afford
the CLI's forgiving parsing.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.errors import ScheduleValidationError
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.pipeline.canonical import (
    canonicalize_rounds,
    decode_token_plan,
    encode_token_plan,
    fingerprint,
    rehydrate_rounds,
)

#: Version tag every request and response carries.
PROTOCOL_VERSION = 1

#: Request kinds the service understands.
REQUEST_KINDS = ("plan", "certify", "health")

#: Typed error codes (stable wire values; see :class:`ProtocolError`).
ERROR_CODES = (
    "bad-request",
    "unsupported-version",
    "unknown-method",
    "overloaded",
    "rate-limited",
    "draining",
    "deadline",
    "not-found",
    "stored-plan-mismatch",
    "internal",
)


class ProtocolError(Exception):
    """A typed wire-level failure with a stable ``code``.

    Args:
        code: one of :data:`ERROR_CODES`.
        message: human-readable detail.
        http_status: status the HTTP layer should answer with.
    """

    def __init__(self, code: str, message: str, http_status: int = 400) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.http_status = http_status

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": PROTOCOL_VERSION,
            "kind": "error",
            "code": self.code,
            "message": self.message,
        }


def canonical_json(payload: Mapping[str, Any]) -> bytes:
    """Sorted-key, compact-separator JSON bytes — the wire encoding."""
    return json.dumps(
        dict(payload), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


# ----------------------------------------------------------------------
# plan / certify requests
# ----------------------------------------------------------------------

#: Fields a plan/certify request may carry (anything else is rejected).
_PLAN_FIELDS = frozenset(
    {"version", "kind", "instance", "method", "seed", "certify", "timeout"}
)


@dataclass(frozen=True)
class PlanRequest:
    """One validated planning request.

    ``fingerprint`` identifies the *work*, not the client: requests
    with the same instance structure, method, seed and certify flag
    share it, which is what the broker's single-flight coalescing
    keys on.
    """

    instance: MigrationInstance
    method: str
    seed: int
    certify: bool
    timeout: Optional[float]
    fingerprint: str


def _bad(message: str) -> ProtocolError:
    return ProtocolError("bad-request", message, http_status=400)


def _require_int(payload: Mapping[str, Any], field: str, default: int) -> int:
    value = payload.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{field!r} must be an integer")
    return value


def request_fingerprint(
    instance: MigrationInstance, method: str, seed: int, certify: bool
) -> str:
    """SHA-256 of the request's canonical form.

    Hashes the pipeline's relabeling-invariant instance fingerprint
    (memoized on the instance), so two clients submitting the same
    structure under different node insertion orders coalesce onto one
    solve.

    Raises:
        ProtocolError: ``bad-request`` when two nodes share a ``repr``.
            Such an instance has no fingerprint, and no key built from
            its reprs alone tells it apart from another instance over
            the same reprs.  Wire instances (string node names) never
            get here; in-process callers do.
    """
    identity = fingerprint(instance)
    if identity is None:
        raise _bad("node reprs are ambiguous; the instance has no fingerprint")
    blob = canonical_json(
        {
            "certify": certify,
            "instance": identity,
            "method": method,
            "seed": seed,
        }
    )
    return hashlib.sha256(blob).hexdigest()


def parse_plan_request(
    body: bytes, *, known_methods: Tuple[str, ...], certify: bool = False
) -> PlanRequest:
    """Validate a plan/certify request body strictly.

    Args:
        body: raw JSON bytes.
        known_methods: acceptable ``method`` values (``"auto"`` plus
            the registered solver names).
        certify: the endpoint's certify flag; a body may also set
            ``"certify": true`` explicitly.

    Raises:
        ProtocolError: on malformed JSON, unknown fields, missing or
            mistyped values, an unsupported version, or an unknown
            method.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _bad(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _bad("request body must be a JSON object")
    unknown = sorted(set(payload) - _PLAN_FIELDS)
    if unknown:
        raise _bad(f"unknown request fields: {', '.join(unknown)}")
    version = payload.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported-version",
            f"protocol version {version!r} is not supported "
            f"(this server speaks {PROTOCOL_VERSION})",
            http_status=400,
        )
    kind = payload.get("kind", "certify" if certify else "plan")
    if kind not in ("plan", "certify"):
        raise _bad(f"kind must be 'plan' or 'certify', got {kind!r}")

    raw_instance = payload.get("instance")
    if not isinstance(raw_instance, dict):
        raise _bad("'instance' must be an object (see repro.workloads.io)")
    from repro.workloads.io import instance_from_payload

    try:
        instance = instance_from_payload(raw_instance)
    except (ValueError, KeyError, TypeError) as exc:
        raise _bad(f"invalid instance payload: {exc}") from exc

    method = payload.get("method", "auto")
    if not isinstance(method, str):
        raise _bad("'method' must be a string")
    if method not in known_methods:
        raise ProtocolError(
            "unknown-method",
            f"unknown method {method!r} (known: {', '.join(known_methods)})",
            http_status=400,
        )
    seed = _require_int(payload, "seed", 0)
    wants_certify = payload.get("certify", certify or kind == "certify")
    if not isinstance(wants_certify, bool):
        raise _bad("'certify' must be a boolean")
    timeout = payload.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise _bad("'timeout' must be a number of seconds")
        if not (math.isfinite(timeout) and timeout > 0):
            raise _bad("'timeout' must be a finite positive number of seconds")
        timeout = float(timeout)
    return PlanRequest(
        instance=instance,
        method=method,
        seed=seed,
        certify=wants_certify,
        timeout=timeout,
        fingerprint=request_fingerprint(instance, method, seed, wants_certify),
    )


def plan_request_payload(
    instance: MigrationInstance,
    method: str = "auto",
    seed: int = 0,
    certify: bool = False,
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """The client-side wire form of a plan request."""
    from repro.workloads.io import instance_payload

    payload: Dict[str, Any] = {
        "version": PROTOCOL_VERSION,
        "kind": "certify" if certify else "plan",
        "instance": instance_payload(instance),
        "method": method,
        "seed": seed,
        "certify": certify,
    }
    if timeout is not None:
        payload["timeout"] = timeout
    return payload


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------

def schedule_payload(
    instance: MigrationInstance, schedule: MigrationSchedule
) -> Dict[str, Any]:
    """A schedule's canonical wire form: sorted pair-token rounds.

    Token form is independent of edge ids and solver-internal
    ordering, so this payload — encoded with :func:`canonical_json` —
    is the byte string the determinism contract compares.
    """
    return encode_token_plan(
        schedule.method, canonicalize_rounds(instance, schedule.rounds)
    )


def rehydrate_schedule(
    instance: MigrationInstance, plan_payload: Mapping[str, Any]
) -> MigrationSchedule:
    """Client-side inverse of :func:`schedule_payload`.

    Raises:
        ProtocolError: when the payload's shape is wrong, a token names
            a pair the instance does not have, or the rounds are not a
            valid schedule of the instance (a token dropped, repeated,
            or a disk over its capacity).
    """
    try:
        method, tokens = decode_token_plan(plan_payload)
    except ValueError as exc:
        raise _bad(str(exc)) from exc
    try:
        schedule = MigrationSchedule(rehydrate_rounds(instance, tokens), method=method)
        schedule.validate(instance)
    except ScheduleValidationError as exc:
        raise _bad(f"plan payload does not fit this instance: {exc}") from exc
    return schedule


def plan_response(
    request: PlanRequest,
    plan_payload: Mapping[str, Any],
    *,
    coalesced: bool,
    lower_bound: Optional[int] = None,
    certified_optimal: Optional[bool] = None,
) -> Dict[str, Any]:
    """The response payload for a completed plan/certify request."""
    rounds = plan_payload.get("rounds")
    response: Dict[str, Any] = {
        "version": PROTOCOL_VERSION,
        "kind": "certify" if request.certify else "plan",
        "fingerprint": request.fingerprint,
        "method": request.method,
        "seed": request.seed,
        "plan": dict(plan_payload),
        "num_rounds": len(rounds) if isinstance(rounds, list) else 0,
        "coalesced": coalesced,
    }
    if request.certify:
        response["lower_bound"] = lower_bound
        response["certified_optimal"] = certified_optimal
    return response


def health_response(status: str) -> Dict[str, Any]:
    """The ``/healthz`` payload; ``status`` is ``"ok"`` or ``"draining"``."""
    if status not in ("ok", "draining"):
        raise ValueError(f"invalid health status {status!r}")
    return {"version": PROTOCOL_VERSION, "kind": "health", "status": status}


def parse_response(body: bytes) -> Dict[str, Any]:
    """Decode and shape-check any service response.

    Raises:
        ProtocolError: malformed JSON / missing envelope fields.  A
            well-formed ``error`` payload is *returned*, not raised —
            the client decides how to surface it.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _bad(f"response body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _bad("response body must be a JSON object")
    if payload.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported-version",
            f"response version {payload.get('version')!r} is not supported",
        )
    kind = payload.get("kind")
    if kind not in ("plan", "certify", "health", "error"):
        raise _bad(f"unknown response kind {kind!r}")
    return payload


def validate_plan_response(payload: Mapping[str, Any]) -> List[str]:
    """Shape-check a plan/certify response; returns problems (empty = ok)."""
    problems: List[str] = []
    if not isinstance(payload.get("fingerprint"), str):
        problems.append("missing string 'fingerprint'")
    if not isinstance(payload.get("coalesced"), bool):
        problems.append("missing boolean 'coalesced'")
    try:
        decode_token_plan(payload.get("plan"))
    except ValueError as exc:
        problems.append(str(exc))
    num_rounds = payload.get("num_rounds")
    if isinstance(num_rounds, bool) or not isinstance(num_rounds, int):
        problems.append("missing integer 'num_rounds'")
    return problems
