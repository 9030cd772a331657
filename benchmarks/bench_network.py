"""EXP-NET — rack fabrics: when the network, not the disk, bottlenecks.

The paper assumes a dedicated fast fabric (Section II).  This bench
quantifies when that assumption matters: the same migration is executed
under rack topologies with decreasing uplink bandwidth (increasing
oversubscription).  With generous uplinks the fabric model matches the
paper's disk-bound model exactly; as uplinks shrink, cross-rack rounds
stretch and rack locality starts paying.
"""

import pytest

from benchmarks.conftest import emit
from repro import plan
from repro.analysis.tables import Table
from repro.cluster.engine import MigrationEngine
from repro.cluster.network import FabricRates, FabricTopology, rack_locality
from repro.workloads.scenarios import scale_out_scenario


def run_with_uplink(uplink: float, racks: int = 3, seed: int = 17):
    scenario = scale_out_scenario(num_old=9, num_new=3, items_per_old_disk=30, seed=seed)
    topo = FabricTopology.striped(scenario.cluster.disks, racks=racks,
                                  uplink_bandwidth=uplink)
    sched = plan(scenario.instance).schedule
    engine = MigrationEngine(scenario.cluster, rate_model=FabricRates(topo))
    report = engine.execute(scenario.context, sched)
    return report.total_time, rack_locality(scenario.context, topo), sched.num_rounds


def test_net_oversubscription_sweep(benchmark):
    table = Table(
        "EXP-NET: migration time vs rack uplink bandwidth (3 racks)",
        ["uplink bw", "rounds", "time", "slowdown vs fastest", "rack locality"],
    )
    times = {}
    for uplink in (64.0, 16.0, 4.0, 1.0, 0.25):
        time_taken, locality, rounds = run_with_uplink(uplink)
        times[uplink] = time_taken
        table.add_row(uplink, rounds, time_taken, time_taken / min(times.values()),
                      locality)
    emit(table)
    # Monotone: tighter uplinks can only slow the migration.
    ordered = [times[u] for u in (64.0, 16.0, 4.0, 1.0, 0.25)]
    assert all(a <= b + 1e-9 for a, b in zip(ordered, ordered[1:]))

    benchmark(run_with_uplink, 4.0)


def test_net_generous_uplink_matches_paper_model(benchmark):
    """A dedicated fast fabric reduces to the disk-bound model."""
    scenario = scale_out_scenario(num_old=9, num_new=3, items_per_old_disk=30, seed=17)
    sched = plan(scenario.instance).schedule
    plain = MigrationEngine(scenario.cluster)
    plain_time = 0.0
    for rnd in sched.rounds:
        plain_time += plain.round_duration(scenario.context, rnd)

    topo = FabricTopology.striped(scenario.cluster.disks, racks=3,
                                  uplink_bandwidth=10_000.0)
    fabric = MigrationEngine(scenario.cluster, rate_model=FabricRates(topo))
    fabric_time = 0.0
    for rnd in sched.rounds:
        fabric_time += fabric.round_duration(scenario.context, rnd)
    assert fabric_time == pytest.approx(plain_time)

    benchmark(fabric.round_duration, scenario.context, sched.rounds[0])
