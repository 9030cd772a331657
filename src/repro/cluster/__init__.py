"""A storage-cluster simulator: the systems substrate.

The paper's model abstracts a storage cluster as a transfer multigraph;
this subpackage supplies the concrete system around that abstraction so
the library is usable end-to-end:

* :mod:`repro.cluster.disk` / :mod:`repro.cluster.item` — devices with
  bandwidth, space and transfer constraints; unit-size data items.
* :mod:`repro.cluster.layout` — item→disk placements, load metrics and
  demand-aware target-layout computation.
* :mod:`repro.cluster.system` — the cluster: disk add/remove, layout
  diffing into :class:`~repro.core.problem.MigrationInstance`.
* :mod:`repro.cluster.network` — rate models that turn a round of
  transfers into simulated time: unit rounds, the paper's Figure 2
  bandwidth splitting, reserved lanes, rack fabrics.
  :class:`repro.runtime.MigrationExecutor` executes schedules through
  them, fault-free or with crashes and replans.
* :mod:`repro.cluster.eager` — the round-free ablation executor.
* :mod:`repro.cluster.events` — the typed event log an execution
  records.
"""

from repro.cluster.disk import Disk
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.system import StorageCluster

__all__ = [
    "Disk",
    "DataItem",
    "Layout",
    "StorageCluster",
]
