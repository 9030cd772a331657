"""repro.obs — unified tracing and metrics.

One observability substrate for the whole stack: the planning pipeline,
the runtime executor, the plan service and the campaign simulator all
report through the same :class:`Tracer`, so a single JSONL trace
answers "where did this schedule spend its time?" end to end — per
pipeline stage, per solver, per executed round.

* :mod:`repro.obs.trace` — spans (context-manager + decorator API),
  the :class:`Tracer`, and the zero-cost :data:`NULL_TRACER` default;
* :mod:`repro.obs.metrics` — typed counters/gauges/histograms in a
  :class:`MetricsRegistry` (:class:`~repro.runtime.telemetry.RuntimeTelemetry`
  is a thin adapter over it) and the Prometheus text renderer;
* :mod:`repro.obs.export` — sorted-key JSONL, in-memory, and
  Prometheus exporters;
* :mod:`repro.obs.names` — every counter/span name as a constant, so
  a typo cannot silently zero a metric;
* :mod:`repro.obs.schema` — the trace wire format and its validator
  (``repro-migrate stats --validate``).

Everything here is observation-only: with the default no-op tracer,
instrumented code paths are bit-for-bit identical to uninstrumented
ones (enforced by the cross-``PYTHONHASHSEED`` harness in
:mod:`repro.checks.hashseed`).
"""

from repro.obs import names
from repro.obs.export import (
    InMemoryExporter,
    JsonlExporter,
    load_trace,
    meta_record,
    write_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.schema import validate_record, validate_trace
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    Exporter,
    NullTracer,
    Span,
    Tracer,
    ensure_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Exporter",
    "Gauge",
    "Histogram",
    "InMemoryExporter",
    "JsonlExporter",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "ensure_tracer",
    "load_trace",
    "meta_record",
    "names",
    "render_prometheus",
    "validate_record",
    "validate_trace",
    "write_prometheus",
]
