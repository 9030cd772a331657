"""Storage devices.

A disk's *transfer constraint* ``c_v`` — how many simultaneous
transfers it can take part in — is the paper's central heterogeneity
parameter.  The simulator additionally models total migration bandwidth
(split evenly across a round's concurrent transfers, matching the
Figure 2 arithmetic) and storage space, which the scheduling model
ignores but end-to-end experiments should not silently violate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

DiskId = Hashable


@dataclass
class Disk:
    """One storage device.

    Attributes:
        disk_id: unique identifier.
        transfer_limit: ``c_v`` — max simultaneous transfers.
        bandwidth: total migration bandwidth in size-units per time
            unit; shared evenly among the disk's concurrent transfers.
        space: storage capacity in size units (``inf`` = unlimited).
        generation: free-form tag for hardware cohorts ("2018-hdd",
            "2024-nvme", …); workload generators use it to assign
            heterogeneous ``c_v`` mixes.
    """

    disk_id: DiskId
    transfer_limit: int = 1
    bandwidth: float = 1.0
    space: float = float("inf")
    generation: str = "default"

    def __post_init__(self) -> None:
        if not isinstance(self.transfer_limit, int) or self.transfer_limit < 1:
            raise ValueError(
                f"disk {self.disk_id!r}: transfer_limit must be a positive int, "
                f"got {self.transfer_limit!r}"
            )
        if self.bandwidth <= 0:
            raise ValueError(f"disk {self.disk_id!r}: bandwidth must be positive")
        if self.space <= 0:
            raise ValueError(f"disk {self.disk_id!r}: space must be positive")

    def per_transfer_rate(self, concurrent: int) -> float:
        """Bandwidth each of ``concurrent`` simultaneous transfers gets."""
        if concurrent < 1:
            raise ValueError("concurrent must be >= 1")
        if concurrent > self.transfer_limit:
            raise ValueError(
                f"disk {self.disk_id!r} asked for {concurrent} concurrent transfers "
                f"but c_v = {self.transfer_limit}"
            )
        return self.bandwidth / concurrent
