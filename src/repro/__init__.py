"""repro — Data Migration in Heterogeneous Storage Systems (ICDCS 2011).

A faithful reproduction of Kari, Kim & Russell's heterogeneous data
migration scheduler: given a transfer multigraph (disks = nodes, data
items to move = edges) and per-disk transfer constraints ``c_v``, build
a minimum-round migration schedule.

Quickstart::

    from repro import MigrationInstance, plan

    moves = [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a")]
    inst = MigrationInstance.from_moves(moves, {"a": 2, "b": 2, "c": 2})
    result = plan(inst)                      # optimal: all c_v even
    print(result.schedule.num_rounds, result.schedule.rounds)

:func:`repro.plan` is the planning API: it runs the staged pipeline
and returns a :class:`PlanResult` carrying the validated schedule plus
per-stage timings and per-component attribution; it accepts
``method``, ``seed``, ``cache``, ``certify`` and ``tracer``.  When the
instance *changes* instead of arriving fresh,
:func:`repro.plan_delta` absorbs an
:class:`InstanceDelta <repro.core.delta.InstanceDelta>` by patching
the prior schedule — byte-identical to a full replan, at a fraction
of the cost.

Package map:

* :mod:`repro.core` — the scheduling algorithms (Sections III–V).
* :mod:`repro.pipeline` — the staged planning pipeline (normalize →
  decompose → select → solve → merge → certify) behind
  :func:`repro.plan`, with per-component attribution, caching and
  lower-bound certification.
* :mod:`repro.graphs` — multigraph, Euler, flow, matching, coloring
  substrates.
* :mod:`repro.cluster` — a storage-cluster simulator: disks, layouts
  and the rate models (unit rounds, Figure 2 bandwidth splitting, rack
  fabrics) that turn a round into time.
* :mod:`repro.runtime` — the schedule executor: fault-free replay, or
  supervised, checkpointed execution with fault injection and
  retry/replan policies.
* :mod:`repro.extensions` — neighbouring problem variants
  (forwarding, cloning, online, completion-time objectives) behind
  one uniform result/validate surface.
* :mod:`repro.obs` — tracing and metrics: one span/counter
  substrate shared by the pipeline, the executor, the service and the
  simulator (``repro-migrate stats``).
* :mod:`repro.exact` — exact branch-and-bound optimization for small
  instances: proven-optimal schedules under makespan, bounded-color
  and group-completion objectives, tamper-evident optimality
  certificates, and the true approximation-gap harness
  (``repro-migrate gap``).
* :mod:`repro.workloads` — transfer-graph generators (load-balancing
  deltas, disk add/remove, synthetic sweeps) plus the
  temperature-driven tiered workload: seeded
  :class:`InstanceDelta <repro.core.delta.InstanceDelta>` streams and
  a closed-loop replay over :func:`repro.plan_delta`.
* :mod:`repro.analysis` — metrics and table rendering for the
  benchmark harness, including trace aggregation.
* :mod:`repro.checks` — determinism linter, typing gate,
  cross-``PYTHONHASHSEED`` harness, schedule certification.
"""

from repro.core.delta import InstanceDelta, apply_delta
from repro.core.objectives import (
    BoundedColorObjective,
    GroupCompletionObjective,
    MakespanObjective,
    Objective,
)
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.core.lower_bounds import lb1, lb2, lower_bound
from repro.exact import OptimalityCertificate, solve_exact
from repro.graphs.multigraph import Multigraph
from repro.pipeline import DeltaPlanResult, PlanCache, PlanResult, plan, plan_delta

__version__ = "1.0.0"

__all__ = [
    "BoundedColorObjective",
    "GroupCompletionObjective",
    "InstanceDelta",
    "MakespanObjective",
    "MigrationInstance",
    "MigrationSchedule",
    "Multigraph",
    "Objective",
    "OptimalityCertificate",
    "PlanCache",
    "DeltaPlanResult",
    "PlanResult",
    "apply_delta",
    "plan",
    "plan_delta",
    "solve_exact",
    "lower_bound",
    "lb1",
    "lb2",
    "__version__",
]
