"""Pluggable fault injection for runtime executions.

Three fault families, all deterministic under a seeded RNG:

* **transfer faults** — each attempted transfer independently fails
  with probability ``transfer_failure_rate`` (one RNG draw per
  attempt, in round order, so a seed fully determines the outcome
  sequence);
* **disk crashes** — a disk leaves the fleet once simulated time
  reaches ``at_time``; its stored items become unrecoverable sources
  and pending moves targeting it must be re-aimed (the executor
  replans);
* **network partitions** — during ``[start, end)`` transfers crossing
  between ``group`` and the rest of the fleet fail transiently; the
  transfer itself is healthy and succeeds once retried after the
  partition heals.

The :class:`FaultPlan` is plain data; the CLI builds it from flags and
stores its :meth:`FaultPlan.to_json` form in a checkpoint's config, so
a resume under a different fault configuration is refused.
:class:`FaultInjector` is the tiny amount of behaviour on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from repro.cluster.disk import DiskId


class FaultPlanError(ValueError):
    """A fault plan has impossible values.

    Raised by the dataclass validators (negative or non-finite times,
    duplicate crash targets, empty partition windows or groups); a
    ``ValueError``, so the CLI reports it as a usage error.
    """


@dataclass(frozen=True)
class DiskCrash:
    """Disk ``disk_id`` fails permanently at simulated time ``at_time``."""

    disk_id: DiskId
    at_time: float

    def __post_init__(self) -> None:
        # NaN compares false both ways, so it would pass a bare ``< 0``
        # test and then never fire; a checkpoint config holding it would
        # also never equal itself on resume.
        if not (math.isfinite(self.at_time) and self.at_time >= 0.0):
            raise FaultPlanError(
                f"crash time must be a finite number >= 0, got "
                f"{self.at_time} for disk {self.disk_id!r}"
            )


@dataclass(frozen=True)
class NetworkPartition:
    """A transient split: ``group`` vs. everyone else during ``[start, end)``."""

    start: float
    end: float
    group: Tuple[DiskId, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise FaultPlanError(
                f"partition bounds must be finite, got [{self.start}, {self.end})"
            )
        if self.start < 0.0:
            raise FaultPlanError(
                f"partition start must be >= 0, got {self.start}"
            )
        if self.end <= self.start:
            raise FaultPlanError(
                f"partition window is empty: [{self.start}, {self.end})"
            )
        if len(self.group) == 0:
            raise FaultPlanError("partition group must name at least one disk")
        if len(set(self.group)) != len(self.group):
            raise FaultPlanError(
                f"partition group has duplicate disks: {self.group}"
            )

    def severs(self, u: DiskId, v: DiskId, now: float) -> bool:
        """Does this partition block a ``u -> v`` transfer at ``now``?"""
        if not self.start <= now < self.end:
            return False
        members = set(self.group)
        return (u in members) != (v in members)


@dataclass
class FaultPlan:
    """Everything that can go wrong during a run, as plain data."""

    transfer_failure_rate: float = 0.0
    crashes: Tuple[DiskCrash, ...] = ()
    partitions: Tuple[NetworkPartition, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.transfer_failure_rate < 1.0:
            raise FaultPlanError(
                f"transfer_failure_rate must be in [0, 1), "
                f"got {self.transfer_failure_rate}"
            )
        self.crashes = tuple(self.crashes)
        self.partitions = tuple(self.partitions)
        seen: Set[DiskId] = set()
        for crash in self.crashes:
            if crash.disk_id in seen:
                raise FaultPlanError(
                    f"duplicate crash target {crash.disk_id!r}: a disk "
                    f"fails permanently, it cannot crash twice"
                )
            seen.add(crash.disk_id)

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """The plan as plain data: what a checkpoint's config stores
        and a resume compares."""
        return {
            "transfer_failure_rate": self.transfer_failure_rate,
            "crashes": [[c.disk_id, c.at_time] for c in self.crashes],
            "partitions": [
                [p.start, p.end, list(p.group)] for p in self.partitions
            ],
        }


class FaultInjector:
    """Evaluates a :class:`FaultPlan` during execution.

    The injector is stateless; the executor owns the RNG (so its state
    can be checkpointed) and the already-triggered crash set.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def transfer_fails(self, rng, now: float) -> bool:
        """One seeded draw per attempted transfer; order defines the run."""
        if self.plan.transfer_failure_rate <= 0.0:
            return False
        return rng.random() < self.plan.transfer_failure_rate

    def severed(self, u: DiskId, v: DiskId, now: float) -> bool:
        return any(p.severs(u, v, now) for p in self.plan.partitions)

    def due_crashes(self, now: float, triggered: Set[DiskId]) -> List[DiskCrash]:
        """Crashes whose time has come, in plan order, not yet fired."""
        return [
            c
            for c in self.plan.crashes
            if c.at_time <= now and c.disk_id not in triggered
        ]
