"""Serializable execution traces.

A trace is the flat, replayable record of a migration execution: one
row per item transfer with timing and endpoints, plus round metadata.
Traces serialize to plain JSON so experiments can be archived and
diffed; :func:`replay_trace` re-applies a trace to a fresh layout and
is used by tests to confirm executor/trace agreement.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Hashable, List

from repro.cluster.events import ItemMigrated, RoundCompleted
from repro.cluster.layout import Layout

if TYPE_CHECKING:
    from repro.runtime.executor import RunReport


@dataclass(frozen=True)
class TransferRecord:
    """One executed transfer."""

    time: float
    duration: float
    item_id: Hashable
    source: Hashable
    target: Hashable


@dataclass
class MigrationTrace:
    """A completed migration's transfer history."""

    transfers: List[TransferRecord]
    round_durations: List[float]
    total_time: float

    @classmethod
    def from_report(cls, report: "RunReport") -> "MigrationTrace":
        """The transfers and round durations recorded in ``report.log``."""
        transfers = [
            TransferRecord(
                time=e.time,
                duration=e.duration,
                item_id=e.item_id,
                source=e.source,
                target=e.target,
            )
            for e in report.log.of_type(ItemMigrated)
        ]
        return cls(
            transfers=transfers,
            round_durations=[e.duration for e in report.log.of_type(RoundCompleted)],
            total_time=report.total_time,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "total_time": self.total_time,
                "round_durations": self.round_durations,
                "transfers": [asdict(t) for t in self.transfers],
            },
            default=str,
            indent=2,
        )

    @classmethod
    def from_json(cls, payload: str) -> "MigrationTrace":
        """Inverse of :meth:`to_json`.

        Raises:
            ValueError: on text that is not JSON, a payload that is not
                an object, or a missing or mistyped field
                (``transfers`` a list of transfer records,
                ``round_durations`` a list, ``total_time`` a number).
        """
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError(
                f"a migration trace is a JSON object, got {type(data).__name__}"
            )
        try:
            return cls(
                transfers=[TransferRecord(**t) for t in data["transfers"]],
                round_durations=list(data["round_durations"]),
                total_time=float(data["total_time"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed migration trace: {exc!r}") from exc


def replay_trace(trace: MigrationTrace, initial: Layout) -> Layout:
    """Apply a trace's transfers (in time order) to a layout copy."""
    layout = initial.copy()
    for record in sorted(trace.transfers, key=lambda t: t.time):
        if record.item_id in layout and layout.disk_of(record.item_id) != record.source:
            raise ValueError(
                f"trace inconsistent: item {record.item_id!r} expected on "
                f"{record.source!r}, found {layout.disk_of(record.item_id)!r}"
            )
        layout.place(record.item_id, record.target)
    return layout
