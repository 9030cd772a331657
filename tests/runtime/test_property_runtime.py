"""Property-based tests for the runtime (hypothesis).

The conservation invariant of supervised execution: under *any* seeded
fault sequence, a finished run accounts for every planned move exactly
once — delivered or stranded, never both, never lost.  The initial
schedule is additionally cross-checked with the independent validator
:func:`repro.checks.certify.verify_schedule`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import plan
from repro.checks.certify import verify_schedule
from repro.cluster.disk import Disk
from repro.cluster.events import DiskRemoved, ItemMigrated
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.system import StorageCluster
from repro.runtime import DiskCrash, FaultPlan, MigrationExecutor, NetworkPartition

NUM_DISKS = 4
DISK_IDS = [f"d{i}" for i in range(NUM_DISKS)]

# Placements: item k sits on disk src[k] and wants to reach dst[k].
placements_strategy = st.lists(
    st.tuples(
        st.sampled_from(DISK_IDS), st.sampled_from(DISK_IDS)
    ).filter(lambda t: t[0] != t[1]),
    min_size=1,
    max_size=16,
)

caps_strategy = st.lists(st.integers(1, 4), min_size=NUM_DISKS, max_size=NUM_DISKS)

faults_strategy = st.builds(
    FaultPlan,
    transfer_failure_rate=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    crashes=st.lists(
        st.builds(
            DiskCrash,
            disk_id=st.sampled_from(DISK_IDS),
            at_time=st.floats(0.0, 10.0, allow_nan=False),
        ),
        max_size=2,
        unique_by=lambda c: c.disk_id,
    ).map(tuple),
    partitions=st.lists(
        st.builds(
            NetworkPartition,
            start=st.floats(0.0, 5.0, allow_nan=False),
            # Strictly after every possible start: the plan validator
            # rejects empty [start, end) windows.
            end=st.floats(6.0, 12.0, allow_nan=False),
            group=st.sets(st.sampled_from(DISK_IDS), min_size=1, max_size=2).map(
                lambda s: tuple(sorted(s))
            ),
        ),
        max_size=1,
    ).map(tuple),
)


def build(placements, caps):
    disks = [
        Disk(disk_id=d, transfer_limit=c) for d, c in zip(DISK_IDS, caps)
    ]
    items = [DataItem(item_id=f"i{k}") for k in range(len(placements))]
    layout = Layout({f"i{k}": src for k, (src, _dst) in enumerate(placements)})
    target = Layout({f"i{k}": dst for k, (_src, dst) in enumerate(placements)})
    cluster = StorageCluster(disks=disks, items=items, layout=layout)
    return cluster, cluster.migration_to(target), target


class TestConservationUnderFaults:
    @given(placements_strategy, caps_strategy, faults_strategy, st.integers(0, 1000))
    @settings(deadline=None, max_examples=60)
    def test_every_move_delivered_xor_stranded(
        self, placements, caps, faults, seed
    ):
        cluster, ctx, target = build(placements, caps)
        schedule = plan(ctx.instance).schedule
        verify_schedule(ctx.instance, schedule.rounds)

        report = MigrationExecutor(
            cluster, ctx, schedule, faults=faults, seed=seed
        ).run(max_rounds=500)
        assert report.finished, "executor did not terminate within the budget"

        planned = set(ctx.edge_items.values())
        delivered, stranded = set(report.delivered), set(report.stranded)
        # No duplicates within either list.
        assert len(delivered) == len(report.delivered)
        assert len(stranded) == len(report.stranded)
        # Disjoint, and together exactly the planned moves.
        assert not (delivered & stranded)
        assert delivered | stranded == planned

        # A delivered item rests on a live disk unless that disk
        # crashed *after* the delivery — the run never moves data onto
        # an already-dead disk.
        crashed_at = {e.disk_id: e.time for e in report.log.of_type(DiskRemoved)}
        migrated_at = {e.item_id: e.time for e in report.log.of_type(ItemMigrated)}
        for item in delivered:
            disk = cluster.layout.disk_of(item)
            if disk not in cluster.disks:
                assert disk in crashed_at
                # delivered-in-place items have no migration event;
                # they were already on the disk when it was chosen.
                if item in migrated_at:
                    assert migrated_at[item] <= crashed_at[disk]

    @given(placements_strategy, caps_strategy, st.integers(0, 1000))
    @settings(deadline=None, max_examples=40)
    def test_fault_free_runs_reach_the_target(self, placements, caps, seed):
        cluster, ctx, target = build(placements, caps)
        schedule = plan(ctx.instance).schedule
        report = MigrationExecutor(cluster, ctx, schedule, seed=seed).run()
        assert report.fully_delivered
        for item in target.items:
            assert cluster.layout.disk_of(item) == target.disk_of(item)

    @given(placements_strategy, caps_strategy, faults_strategy, st.integers(0, 1000))
    @settings(deadline=None, max_examples=30)
    def test_seed_determinism(self, placements, caps, faults, seed):
        results = []
        for _ in range(2):
            cluster, ctx, _target = build(placements, caps)
            ex = MigrationExecutor(
                cluster, ctx, plan(ctx.instance).schedule, faults=faults, seed=seed
            )
            ex.run(max_rounds=500)
            results.append((ex.telemetry.totals(), cluster.layout.as_dict(), ex.now))
        assert results[0] == results[1]
