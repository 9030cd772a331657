"""repro.runtime — checkpointed, failure-tolerant migration execution.

The planner (:mod:`repro.core`) answers *what to move when*; this
package executes that answer.  Fault-free, it replays the schedule
round by round; but the paper's setting has migrations run while the
storage system is degraded, so it *supervises* the plan over time:

* :class:`MigrationExecutor` drives rounds transfer-by-transfer with
  explicit per-transfer states, pricing each round with a
  :mod:`repro.cluster.network` rate model;
* :class:`FaultPlan` injects transfer faults, disk crashes and
  transient network partitions, deterministically under a seed;
* :class:`RetryPolicy` climbs the retry → defer → replan ladder,
  replanning via the canonical :func:`repro.plan` pipeline on the
  residual transfer graph;
* :mod:`~repro.runtime.checkpoint` snapshots the whole run to JSON so
  a killed run resumes exactly;
* :class:`RuntimeTelemetry` and the executor's :mod:`repro.obs` spans
  feed :mod:`repro.analysis.metrics` (and the shared
  :class:`~repro.cluster.events.EventLog` keeps Gantt/metrics tooling
  working unchanged).

Quickstart::

    from repro import plan
    from repro.runtime import FaultPlan, MigrationExecutor
    from repro.workloads.scenarios import decommission_scenario

    scenario = decommission_scenario(seed=1)
    schedule = plan(scenario.instance).schedule
    executor = MigrationExecutor(
        scenario.cluster, scenario.context, schedule,
        faults=FaultPlan(transfer_failure_rate=0.1), seed=1,
    )
    report = executor.run()
    assert report.finished

The CLI front-end is ``repro-migrate run`` (resumable via
``--checkpoint``).
"""

from repro.runtime.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    load_checkpoint,
    restore_executor,
    save_checkpoint,
)
from repro.runtime.executor import (
    DONE,
    FAILED,
    IN_FLIGHT,
    PENDING,
    TRANSFER_STATES,
    MigrationExecutor,
    RunReport,
)
from repro.runtime.faults import (
    DiskCrash,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    NetworkPartition,
)
from repro.runtime.policy import EscalationAction, RetryPolicy
from repro.runtime.telemetry import RuntimeTelemetry

__all__ = [
    "MigrationExecutor",
    "RunReport",
    "FaultPlan",
    "FaultPlanError",
    "FaultInjector",
    "DiskCrash",
    "NetworkPartition",
    "RetryPolicy",
    "EscalationAction",
    "RuntimeTelemetry",
    "save_checkpoint",
    "load_checkpoint",
    "restore_executor",
    "CheckpointError",
    "SCHEMA_VERSION",
    "PENDING",
    "IN_FLIGHT",
    "DONE",
    "FAILED",
    "TRANSFER_STATES",
]
