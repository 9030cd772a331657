"""Data items stored and migrated by the cluster.

The paper assumes unit-size items ("each data item has the same
length"), so the default size is 1.0; the engine nevertheless carries
sizes through its time model so non-uniform experiments are possible
(they simply leave the paper's regime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

ItemId = Hashable


@dataclass(frozen=True)
class DataItem:
    """One migratable unit of data.

    Attributes:
        item_id: unique identifier.
        size: size in arbitrary units; the paper's model uses 1.0.
        demand: access popularity weight, used by demand-aware layout
            computation (e.g. Zipf-distributed in the VoD scenario).
    """

    item_id: ItemId
    size: float = 1.0
    demand: float = 1.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"item {self.item_id!r} has non-positive size {self.size}")
        if self.demand < 0:
            raise ValueError(f"item {self.item_id!r} has negative demand {self.demand}")
