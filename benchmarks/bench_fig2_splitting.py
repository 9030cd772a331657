"""EXP-F2 — Figure 2: multi-transfer disks cut migration time.

The paper's motivating example: three disks, ``M`` items between every
pair.  With single-transfer disks (``c = 1``) the migration needs
``3M`` time units; letting every disk run two transfers on half
bandwidth (``c = 2``) needs ``M`` rounds of 2 time units = ``2M`` — a
1.5x speedup.  This bench regenerates that series with the real
scheduler and the bandwidth-splitting engine and times the full
pipeline.
"""

import pytest

from benchmarks.conftest import emit
from repro import plan
from repro.analysis.tables import Table
from repro.cluster.disk import Disk
from repro.cluster.engine import MigrationEngine
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.system import StorageCluster

RING = {"a": "b", "b": "c", "c": "a"}


def build_cluster(items_per_pair: int, transfer_limit: int):
    disks = [
        Disk(disk_id=d, transfer_limit=transfer_limit, bandwidth=1.0) for d in RING
    ]
    items, layout, target = [], Layout(), Layout()
    for src, dst in RING.items():
        for k in range(items_per_pair):
            item = DataItem(item_id=f"{src}->{dst}/{k}")
            items.append(item)
            layout.place(item.item_id, src)
            target.place(item.item_id, dst)
    return StorageCluster(disks=disks, items=items, layout=layout), target


def run_pipeline(items_per_pair: int, transfer_limit: int) -> float:
    cluster, target = build_cluster(items_per_pair, transfer_limit)
    ctx = cluster.migration_to(target)
    sched = plan(ctx.instance).schedule
    report = MigrationEngine(cluster).execute(ctx, sched)
    return report.total_time


def test_fig2_series(benchmark):
    table = Table(
        "EXP-F2 (Figure 2): K3 with M items/pair — simulated migration time",
        ["M", "time c=1", "paper 3M", "time c=2", "paper 2M", "speedup"],
    )
    for m in (2, 4, 8, 16, 32):
        t1 = run_pipeline(m, 1)
        t2 = run_pipeline(m, 2)
        table.add_row(m, t1, 3 * m, t2, 2 * m, t1 / t2)
        assert t1 == pytest.approx(3 * m)
        assert t2 == pytest.approx(2 * m)
    emit(table)
    benchmark(run_pipeline, 32, 2)


@pytest.mark.parametrize("limit", [1, 2])
def test_bench_fig2_pipeline(benchmark, limit):
    result = benchmark(run_pipeline, 16, limit)
    assert result == pytest.approx((3 if limit == 1 else 2) * 16)
