"""Canonical metric and span names.

Counter names used to be free-form strings scattered through the
executor and its docstrings — a typo silently created (and zeroed) a
brand-new counter instead of incrementing the intended one.  Every
name the stack emits now lives here as a module-level constant, and
the consumers (:mod:`repro.runtime.executor`,
:mod:`repro.analysis.metrics`, the ``repro-migrate`` CLI) import the
same constants, so a misspelling is an ``AttributeError`` at import
time rather than a quietly-wrong dashboard.

The string *values* are frozen: runtime counter names are part of the
checkpoint format (:meth:`RuntimeTelemetry.get_state`) and of archived
JSONL traces, so renaming a constant must never change its value.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# runtime executor counters (checkpointed — values are frozen)
# ----------------------------------------------------------------------

TRANSFERS_ATTEMPTED = "transfers_attempted"
TRANSFERS_SUCCEEDED = "transfers_succeeded"
TRANSFERS_FAILED = "transfers_failed"
RETRIES = "retries"
DEFERS = "defers"
ESCALATIONS = "escalations"
REPLANS = "replans"
DISK_CRASHES = "disk_crashes"
ITEMS_STRANDED = "items_stranded"
ITEMS_RETARGETED_IN_PLACE = "items_retargeted_in_place"
REPLAN_COMPONENTS_SOLVED = "replan_components_solved"
REPLAN_COMPONENTS_CACHED = "replan_components_cached"

#: Per-failure-reason counters are ``failures_<reason>`` where
#: ``reason`` is one of the executor's outcome reasons
#: (``fault`` / ``partition`` / ``timeout``).
FAILURE_PREFIX = "failures_"
FAILURES_FAULT = FAILURE_PREFIX + "fault"
FAILURES_PARTITION = FAILURE_PREFIX + "partition"
FAILURES_TIMEOUT = FAILURE_PREFIX + "timeout"


def failure_counter(reason: str) -> str:
    """The counter name for a failure ``reason`` (e.g. ``"timeout"``)."""
    return FAILURE_PREFIX + reason


#: Gauge set to 1 when a supervised run drains its work queue.
RUNTIME_FINISHED = "runtime_finished"

# ----------------------------------------------------------------------
# planning pipeline counters (tracer metrics only, never checkpointed)
# ----------------------------------------------------------------------

PLAN_CACHE_HITS = "plan_cache_hits"
PLAN_CACHE_MISSES = "plan_cache_misses"
PLAN_COMPONENTS_SOLVED = "plan_components_solved"
PLAN_COMPONENTS_CACHED = "plan_components_cached"

# incremental replanning (repro.pipeline.delta) — per-component
# disposition attribution of one plan_delta call.
DELTA_COMPONENTS_REUSED = "delta_components_reused"
DELTA_COMPONENTS_PATCHED = "delta_components_patched"
DELTA_COMPONENTS_RESOLVED = "delta_components_resolved"
#: Patched components that exceeded the degree bound and fell back to
#: a full per-component re-solve.
DELTA_PATCH_FALLBACKS = "delta_patch_fallbacks"

# ----------------------------------------------------------------------
# planning service counters/gauges/histograms (repro.serve)
# ----------------------------------------------------------------------

#: Requests that entered the admission queue.
SERVE_REQUESTS_ADMITTED = "serve_requests_admitted"
#: Requests refused at admission (overloaded / rate-limited / draining).
SERVE_REQUESTS_REJECTED = "serve_requests_rejected"
#: Requests answered by attaching to an in-flight duplicate solve.
SERVE_REQUESTS_COALESCED = "serve_requests_coalesced"
#: Admitted requests whose solve completed successfully.
SERVE_REQUESTS_COMPLETED = "serve_requests_completed"
#: Admitted requests whose solve failed or missed its deadline.
SERVE_REQUESTS_FAILED = "serve_requests_failed"
#: Plan-cache misses served by the persistent plan store.
STORE_HITS = "plan_store_hits"
#: Plan-cache misses the store could not serve either.
STORE_MISSES = "plan_store_misses"
#: Gauge: admission queue depth after the latest enqueue/drain.
SERVE_QUEUE_DEPTH = "serve_queue_depth"
#: Histogram: admission-to-completion seconds per request.
SERVE_LATENCY = "serve_request_seconds"

# ----------------------------------------------------------------------
# failure simulator counters/gauges/histograms (repro.sim)
# ----------------------------------------------------------------------

#: Events popped from the simulation queue.
SIM_EVENTS = "sim_events"
#: Whole-disk failures processed (random + scripted).
SIM_DISK_FAILURES = "sim_disk_failures"
#: Latent sector errors surfaced by scrubbing (single-fragment losses).
SIM_LATENT_ERRORS = "sim_latent_errors"
#: Replacement disks that arrived and joined the fleet.
SIM_REPLACEMENTS = "sim_replacements"
#: Items that dropped below ``required_fragments`` — durability failures.
SIM_DATA_LOSS_EVENTS = "sim_data_loss_events"
#: Repair incidents planned (one batched transfer graph each).
SIM_INCIDENTS = "sim_incidents"
#: Individual repair transfers (transfer-graph edges) scheduled.
SIM_REPAIR_TRANSFERS = "sim_repair_transfers"
#: Fragments successfully rebuilt and committed to the layout.
SIM_FRAGMENTS_REPAIRED = "sim_fragments_repaired"
#: In-flight rebuilds discarded (target died / item already lost).
SIM_FRAGMENTS_ABANDONED = "sim_fragments_abandoned"
#: Repair demands no alive disk could accept (retried later).
SIM_UNPLACEABLE_DEMANDS = "sim_unplaceable_demands"
#: Planner components solved / served from the plan cache while
#: planning repairs (sums of the per-:func:`repro.plan` attribution).
SIM_PLAN_COMPONENTS_SOLVED = "sim_plan_components_solved"
SIM_PLAN_COMPONENTS_CACHED = "sim_plan_components_cached"
#: Gauge: accumulated under-replicated fragment-time (sim seconds).
SIM_UNDER_REPLICATED_TIME = "sim_under_replicated_item_time"
#: Gauge: total bytes moved over the network by repairs.
SIM_REPAIR_BYTES = "sim_repair_bytes"
#: Histogram: realized repair makespan per incident (sim seconds,
#: including the modeled planning latency).
SIM_REPAIR_MAKESPAN = "sim_repair_makespan_seconds"

# ----------------------------------------------------------------------
# span names
# ----------------------------------------------------------------------

#: Root span of one :func:`repro.pipeline.plan` call.
SPAN_PLAN = "pipeline.plan"

#: Root span of one :func:`repro.pipeline.plan_delta` call (attrs:
#: changes, seed; closes with reused/patched/resolved counts).
SPAN_PLAN_DELTA = "pipeline.plan_delta"

#: Per-stage spans are ``pipeline.stage.<stage>`` for the six stages.
SPAN_STAGE_PREFIX = "pipeline.stage."

#: One span per in-process component solve (attrs: method, component).
SPAN_SOLVE = "pipeline.solve"

#: One span covering a parallel pool solve of several components.
SPAN_SOLVE_POOL = "pipeline.solve.pool"

#: One span per executed runtime round (attrs: round, attempted,
#: succeeded, failed, sim_start, sim_duration).
SPAN_ROUND = "runtime.round"

#: One span per runtime replan (attrs: reason, remaining, rounds).
SPAN_REPLAN = "runtime.replan"

#: One span per served request solve (attrs: fingerprint, method).
SPAN_SERVE_SOLVE = "serve.solve"

#: Root span of one simulated campaign (attrs: seed, scheme, placement).
SPAN_SIM_RUN = "sim.run"

#: One span per repair incident (attrs: incident, demands, transfers).
SPAN_SIM_INCIDENT = "sim.incident"


def stage_span(stage: str) -> str:
    """The span name for a pipeline stage (e.g. ``"solve"``)."""
    return SPAN_STAGE_PREFIX + stage
