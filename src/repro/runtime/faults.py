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

The :class:`FaultPlan` is plain data (JSON round-trippable so the CLI
can embed it in checkpoints and refuse to resume under a different
fault configuration); :class:`FaultInjector` is the tiny amount of
behaviour on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.cluster.disk import DiskId


class FaultPlanError(ValueError):
    """A fault plan is malformed (bad shape or impossible values).

    Raised by the dataclass validators and by :meth:`FaultPlan.from_json`,
    so callers deserializing untrusted checkpoints can catch one typed
    error instead of a grab-bag of ``TypeError``/``ValueError``/
    ``KeyError`` from deep inside construction.
    """


@dataclass(frozen=True)
class DiskCrash:
    """Disk ``disk_id`` fails permanently at simulated time ``at_time``."""

    disk_id: DiskId
    at_time: float

    def __post_init__(self) -> None:
        if self.at_time < 0.0:
            raise FaultPlanError(
                f"crash time must be >= 0, got {self.at_time} "
                f"for disk {self.disk_id!r}"
            )


@dataclass(frozen=True)
class NetworkPartition:
    """A transient split: ``group`` vs. everyone else during ``[start, end)``."""

    start: float
    end: float
    group: Tuple[DiskId, ...]

    def __post_init__(self) -> None:
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
        return {
            "transfer_failure_rate": self.transfer_failure_rate,
            "crashes": [[c.disk_id, c.at_time] for c in self.crashes],
            "partitions": [
                [p.start, p.end, list(p.group)] for p in self.partitions
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Reconstruct a plan, raising :class:`FaultPlanError` on bad input.

        Every shape problem (wrong arity, wrong type) and every value
        problem (negative time, duplicate crash target, empty partition
        window or group) surfaces as ``FaultPlanError`` with a message
        naming the offending entry.
        """
        if not isinstance(data, Mapping):
            raise FaultPlanError(
                f"a fault plan is a JSON object, got {type(data).__name__}"
            )
        rate = data.get("transfer_failure_rate", 0.0)
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise FaultPlanError(
                f"transfer_failure_rate must be a number, got {rate!r}"
            )

        crashes = []
        for i, entry in enumerate(_entries(data, "crashes")):
            try:
                disk_id, at_time = entry
            except (TypeError, ValueError) as exc:
                raise FaultPlanError(
                    f"crashes[{i}] must be a [disk_id, at_time] pair, "
                    f"got {entry!r}"
                ) from exc
            if not isinstance(disk_id, str):
                raise FaultPlanError(
                    f"crashes[{i}] disk id must be a string, got {disk_id!r}"
                )
            if not isinstance(at_time, (int, float)) or isinstance(at_time, bool):
                raise FaultPlanError(
                    f"crashes[{i}] time must be a number, got {at_time!r}"
                )
            crashes.append(DiskCrash(disk_id=disk_id, at_time=float(at_time)))

        partitions = []
        for i, entry in enumerate(_entries(data, "partitions")):
            try:
                start, end, group = entry
            except (TypeError, ValueError) as exc:
                raise FaultPlanError(
                    f"partitions[{i}] must be a [start, end, group] "
                    f"triple, got {entry!r}"
                ) from exc
            if isinstance(group, str) or not (
                isinstance(group, (list, tuple))
                and all(isinstance(disk, str) for disk in group)
            ):
                raise FaultPlanError(
                    f"partitions[{i}] group must be a list of disk ids, "
                    f"got {group!r}"
                )
            for num in (start, end):
                if not isinstance(num, (int, float)) or isinstance(num, bool):
                    raise FaultPlanError(
                        f"partitions[{i}] bounds must be numbers, "
                        f"got {entry!r}"
                    )
            partitions.append(
                NetworkPartition(
                    start=float(start), end=float(end), group=tuple(group)
                )
            )

        return cls(
            transfer_failure_rate=rate,
            crashes=tuple(crashes),
            partitions=tuple(partitions),
        )


def _entries(data: Mapping[str, Any], field: str) -> Sequence[Any]:
    """``data[field]`` (default empty), which must be a list."""
    entries = data.get(field, [])
    if not isinstance(entries, (list, tuple)):
        raise FaultPlanError(f"{field} must be a list, got {entries!r}")
    return entries


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
