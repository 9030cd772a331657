"""End-to-end cluster scenarios.

Each scenario builds a concrete :class:`~repro.cluster.StorageCluster`
in an initial state, produces the target layout a real operator would
ask for, and returns both plus the ready-to-schedule plan context.
They are the workloads the paper's introduction motivates:

* :func:`vod_rebalance_scenario` — a video-on-demand cluster whose
  Zipf popularity ranking shifts overnight; the demand-balanced layout
  changes and items must migrate.
* :func:`scale_out_scenario` — new (higher ``c_v``) disks join; data
  spreads onto them.
* :func:`decommission_scenario` — old disks are drained for removal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.cluster.disk import Disk
from repro.core.problem import MigrationInstance
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout, balanced_target, spread_onto
from repro.cluster.system import MigrationPlanContext, StorageCluster
from repro.workloads.zipf import shuffled_zipf_weights, zipf_weights


@dataclass
class Scenario:
    """A cluster plus the migration it needs to run."""

    name: str
    cluster: StorageCluster
    context: MigrationPlanContext

    @property
    def instance(self) -> MigrationInstance:
        return self.context.instance


def _mixed_fleet(
    num_disks: int, rng: random.Random, generations: Tuple[Tuple[str, int, float], ...]
) -> List[Disk]:
    """Disks drawn from (generation, c_v, bandwidth) cohorts."""
    fleet = []
    for i in range(num_disks):
        gen, limit, bw = generations[i % len(generations)]
        fleet.append(
            Disk(disk_id=f"{gen}-{i}", transfer_limit=limit, bandwidth=bw, generation=gen)
        )
    rng.shuffle(fleet)
    return fleet


def vod_rebalance_scenario(
    num_disks: int = 12,
    num_items: int = 400,
    alpha: float = 0.9,
    seed: int = 0,
) -> Scenario:
    """Zipf popularity shift on a heterogeneous VoD cluster.

    Items get yesterday's Zipf demands, are balanced, then demands are
    re-ranked (today's hits) and the new balanced layout becomes the
    migration target.
    """
    rng = random.Random(seed)
    fleet = _mixed_fleet(
        num_disks,
        rng,
        (("hdd", 1, 1.0), ("ssd", 2, 2.0), ("nvme", 4, 4.0)),
    )
    old_weights = zipf_weights(num_items, alpha)
    items = {
        f"video{i}": DataItem(item_id=f"video{i}", demand=old_weights[i])
        for i in range(num_items)
    }
    initial = balanced_target(items, fleet, weight="demand")
    cluster = StorageCluster(disks=fleet, items=items.values(), layout=initial)

    new_weights = shuffled_zipf_weights(num_items, alpha, rng)
    reranked = {
        item_id: DataItem(item_id=item_id, demand=new_weights[i])
        for i, item_id in enumerate(items)
    }
    target = balanced_target(reranked, fleet, weight="demand")
    return Scenario("vod_rebalance", cluster, cluster.migration_to(target))


def scale_out_scenario(
    num_old: int = 8,
    num_new: int = 4,
    items_per_old_disk: int = 40,
    seed: int = 0,
) -> Scenario:
    """New high-capability disks join a loaded cluster."""
    rng = random.Random(seed)
    old = [
        Disk(disk_id=f"old{i}", transfer_limit=rng.choice([1, 2]), generation="old")
        for i in range(num_old)
    ]
    items = {}
    layout = Layout()
    for disk in old:
        for j in range(items_per_old_disk):
            item_id = f"{disk.disk_id}/item{j}"
            items[item_id] = DataItem(item_id=item_id)
            layout.place(item_id, disk.disk_id)
    cluster = StorageCluster(disks=old, items=items.values(), layout=layout)
    new = [
        Disk(disk_id=f"new{i}", transfer_limit=4, bandwidth=2.0, generation="new")
        for i in range(num_new)
    ]
    for disk in new:
        cluster.add_disk(disk)
    target = spread_onto(cluster.layout, items, cluster.disks.values())
    return Scenario("scale_out", cluster, cluster.migration_to(target))


def sensor_harvest_scenario(
    num_sensors: int = 24,
    num_collectors: int = 3,
    readings_per_sensor: int = 8,
    seed: int = 0,
) -> Scenario:
    """Sensor-network harvest: many weak nodes drain to few collectors.

    The paper's introduction lists sensor networks among the
    data-intensive applications.  Readings accumulate on
    single-transfer sensor nodes and must be collected onto a few
    high-capability collectors — an extreme heterogeneity shape where
    the collectors' ``c_v`` decides the harvest time.
    """
    rng = random.Random(seed)
    sensors = [
        Disk(disk_id=f"sensor{i}", transfer_limit=1, bandwidth=0.5, generation="sensor")
        for i in range(num_sensors)
    ]
    collectors = [
        Disk(disk_id=f"collector{j}", transfer_limit=8, bandwidth=8.0,
             generation="collector")
        for j in range(num_collectors)
    ]
    items = {}
    layout = Layout()
    target = Layout()
    for sensor in sensors:
        for r in range(readings_per_sensor):
            item_id = f"{sensor.disk_id}/reading{r}"
            items[item_id] = DataItem(item_id=item_id)
            layout.place(item_id, sensor.disk_id)
            target.place(item_id, rng.choice(collectors).disk_id)
    cluster = StorageCluster(
        disks=sensors + collectors, items=items.values(), layout=layout
    )
    return Scenario("sensor_harvest", cluster, cluster.migration_to(target))


def decommission_scenario(
    num_disks: int = 10,
    num_retiring: int = 3,
    items_per_disk: int = 30,
    seed: int = 0,
) -> Scenario:
    """Drain the oldest disks so they can be pulled.

    The retiring disks stay in the fleet as migration *sources* (the
    drain needs them online) but receive no data in the target layout.
    """
    if not 1 <= num_retiring < num_disks:
        raise ValueError("need 1 <= num_retiring < num_disks")
    rng = random.Random(seed)
    fleet = _mixed_fleet(
        num_disks, rng, (("old", 1, 1.0), ("mid", 2, 1.5), ("new", 4, 3.0))
    )
    items = {}
    layout = Layout()
    for disk in fleet:
        for j in range(items_per_disk):
            item_id = f"{disk.disk_id}/item{j}"
            items[item_id] = DataItem(item_id=item_id)
            layout.place(item_id, disk.disk_id)
    cluster = StorageCluster(disks=fleet, items=items.values(), layout=layout)
    retiring = sorted(
        (d for d in fleet if d.generation == "old"), key=lambda d: repr(d.disk_id)
    )[:num_retiring] or fleet[:num_retiring]
    survivors = [d for d in fleet if d not in retiring]
    target = spread_onto(cluster.layout, items, survivors)
    return Scenario("decommission", cluster, cluster.migration_to(target))
