"""Event log for cluster simulations.

Everything the simulator does — round boundaries, individual item
transfers, disk departures, replans after failures — is recorded as a
typed event with a timestamp, so tests can assert on behaviour and
replay the transfers onto a layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List


@dataclass(frozen=True)
class Event:
    """Base event: ``time`` is simulated time."""

    time: float


@dataclass(frozen=True)
class RoundStarted(Event):
    round_index: int
    num_transfers: int


@dataclass(frozen=True)
class RoundCompleted(Event):
    round_index: int
    duration: float


@dataclass(frozen=True)
class ItemMigrated(Event):
    item_id: Hashable
    source: Hashable
    target: Hashable
    duration: float


@dataclass(frozen=True)
class DiskRemoved(Event):
    disk_id: Hashable


@dataclass(frozen=True)
class MigrationReplanned(Event):
    reason: str
    remaining_items: int


class EventLog:
    """Append-only, time-ordered event record."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def record(self, event: Event) -> None:
        if self._events and event.time < self._events[-1].time - 1e-9:
            raise ValueError(
                f"event at t={event.time} recorded after t={self._events[-1].time}"
            )
        self._events.append(event)

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def of_type(self, event_type: type) -> List[Event]:
        return [e for e in self._events if isinstance(e, event_type)]

    def last_time(self) -> float:
        return self._events[-1].time if self._events else 0.0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)
