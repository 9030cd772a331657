"""repro.serve — the asyncio planning service.

The serving layer stands the staged pipeline up as a long-lived
process: a JSON-over-HTTP protocol (:mod:`repro.serve.protocol`), a
request broker with bounded admission, per-client rate limiting,
single-flight coalescing and deadlines
(:mod:`repro.serve.broker`), a persistent content-addressed plan
store that survives restarts (:mod:`repro.serve.store`), and a server
lifecycle with health/metrics endpoints and graceful SIGTERM drain
(:mod:`repro.serve.server`).  ``repro-migrate serve`` is the CLI
front door; :mod:`repro.serve.client` and
:mod:`repro.serve.inprocess` are the helpers tests and benchmarks
drive it with.

The whole layer is observation-plus-transport: a served plan is
byte-identical to a direct :func:`repro.plan` call, whatever the
admission order, coalescing history, store contents or
``PYTHONHASHSEED``.
"""

from repro.serve.broker import (
    BrokerConfig,
    DeadlineError,
    DrainingError,
    OverloadedError,
    RateLimitedError,
    RequestBroker,
)
from repro.serve.client import PlanClient, PlanOutcome, PlanServiceError
from repro.serve.inprocess import InProcessServer, start_in_process
from repro.serve.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    PlanRequest,
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
from repro.serve.server import PlanningServer, ServerConfig, serve
from repro.serve.store import (
    JsonlPlanStore,
    PlanStore,
    PlanStoreError,
    SqlitePlanStore,
    open_store,
)

__all__ = [
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "BrokerConfig",
    "DeadlineError",
    "DrainingError",
    "InProcessServer",
    "JsonlPlanStore",
    "OverloadedError",
    "PlanClient",
    "PlanOutcome",
    "PlanRequest",
    "PlanServiceError",
    "PlanStore",
    "PlanStoreError",
    "PlanningServer",
    "ProtocolError",
    "RateLimitedError",
    "RequestBroker",
    "ServerConfig",
    "SqlitePlanStore",
    "canonical_json",
    "health_response",
    "open_store",
    "parse_plan_request",
    "parse_response",
    "plan_request_payload",
    "plan_response",
    "rehydrate_schedule",
    "request_fingerprint",
    "schedule_payload",
    "serve",
    "start_in_process",
    "validate_plan_response",
]
