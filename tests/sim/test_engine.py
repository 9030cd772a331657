"""Tests for the simulation engine: closed loop, durability, determinism."""

import pytest

from repro.obs import names
from repro.obs.trace import Tracer
from repro.runtime.faults import DiskCrash
from repro.sim.engine import SimConfig, SimEngine, derive_seed
from repro.sim.events import FragmentRestored


def quiet(**overrides):
    """A config with no random failures/scrubbing unless overridden."""
    base = dict(
        duration=200.0,
        failure_rate=0.0,
        scrub_interval=0.0,
        items=20,
        seed=0,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(0, "failures") == derive_seed(0, "failures")

    def test_streams_differ(self):
        assert derive_seed(0, "failures") != derive_seed(0, "scrub")

    def test_seeds_differ(self):
        assert derive_seed(0, "failures") != derive_seed(1, "failures")


class TestConfigValidation:
    def test_bad_duration(self):
        with pytest.raises(ValueError):
            SimConfig(duration=0.0)

    def test_bad_latent_rate(self):
        with pytest.raises(ValueError):
            SimConfig(latent_error_rate=1.5)

    def test_crash_outside_the_grid(self):
        with pytest.raises(ValueError, match="no slot"):
            quiet(crashes=(DiskCrash("nosuch", 5.0),))
        with pytest.raises(ValueError, match="no slot"):
            quiet(crashes=(DiskCrash("r9m0d0", 5.0),))

    def test_crash_on_a_replacement_id(self):
        """``r0m1d2#1`` is the first replacement in slot ``r0m1d2``."""
        assert quiet(crashes=(DiskCrash("r0m1d2#1", 5.0),)).crashes

    def test_as_dict_sorted(self):
        keys = list(SimConfig().as_dict())
        assert keys == sorted(keys)


class TestBootstrap:
    def test_all_disks_alive(self):
        engine = SimEngine(quiet())
        assert engine.alive_count == 24
        assert engine.alive_disks() == engine.topology.slots

    def test_items_fully_placed(self):
        engine = SimEngine(quiet(scheme="rs6+3"))
        for i in range(20):
            assert len(engine._placement[f"item{i:04d}"]) == 9

    def test_fragments_on_distinct_disks(self):
        engine = SimEngine(quiet(scheme="rep3", placement="random"))
        for placed in engine._placement.values():
            assert len(set(placed.values())) == len(placed)


class TestQuietRun:
    def test_nothing_happens_without_failures(self):
        engine = SimEngine(quiet()).run()
        assert engine.incidents == []
        assert engine.loss_events == []
        assert engine.under_replicated_time == 0.0
        assert engine.metrics.counters.get(names.SIM_EVENTS, 0) == 0

    def test_run_is_idempotent(self):
        engine = SimEngine(quiet(crashes=(DiskCrash("r0m0d0", 10.0),)))
        first = engine.run().under_replicated_time
        second = engine.run().under_replicated_time
        assert first == second


class TestScriptedCrash:
    def test_crash_triggers_repair(self):
        engine = SimEngine(quiet(crashes=(DiskCrash("r0m0d0", 10.0),))).run()
        counters = engine.metrics.counters
        assert counters[names.SIM_DISK_FAILURES] == 1
        assert counters[names.SIM_INCIDENTS] >= 1
        assert counters[names.SIM_FRAGMENTS_REPAIRED] >= 1
        assert engine.loss_events == []

    def test_exposure_time_accrues(self):
        engine = SimEngine(quiet(crashes=(DiskCrash("r0m0d0", 10.0),))).run()
        assert engine.under_replicated_time > 0.0

    def test_replacement_restores_fleet(self):
        engine = SimEngine(
            quiet(crashes=(DiskCrash("r0m0d0", 10.0),), replacement_delay=5.0)
        ).run()
        assert engine.alive_count == 24
        assert engine.disk_in_slot("r0m0d0") == "r0m0d0#1"
        assert engine.metrics.counters[names.SIM_REPLACEMENTS] == 1

    def test_crash_on_dead_disk_ignored(self):
        engine = SimEngine(
            quiet(
                crashes=(DiskCrash("r0m0d0", 10.0), DiskCrash("r0m0d0", 11.0)),
                replacement_delay=100.0,
            )
        ).run()
        assert engine.metrics.counters[names.SIM_DISK_FAILURES] == 1

    def test_repair_makespan_recorded(self):
        engine = SimEngine(quiet(crashes=(DiskCrash("r0m0d0", 10.0),))).run()
        hist = engine.metrics.histograms[names.SIM_REPAIR_MAKESPAN]
        assert hist.count == len(engine.incidents)
        assert all(i.makespan >= i.plan_latency for i in engine.incidents)

    def test_plan_latency_model(self):
        engine = SimEngine(
            quiet(
                crashes=(DiskCrash("r0m0d0", 10.0),),
                plan_alpha=2.0,
                plan_beta=0.5,
            )
        ).run()
        incident = engine.incidents[0]
        assert incident.plan_latency == 2.0 + 0.5 * incident.transfers


class TestDataLoss:
    def test_unrepairable_fleet_loses_items(self):
        # Two disks, two-way replication: first crash leaves no valid
        # repair target (the only other disk already holds a copy),
        # second crash destroys the last copies.
        cfg = SimConfig(
            racks=1, machines_per_rack=1, disks_per_machine=2,
            items=4, scheme="rep2", placement="spread",
            duration=100.0, failure_rate=0.0, scrub_interval=0.0,
            replacement_delay=1000.0,
            crashes=(DiskCrash("r0m0d0", 10.0), DiskCrash("r0m0d1", 20.0)),
        )
        engine = SimEngine(cfg).run()
        assert engine.items_lost == 4
        assert engine.metrics.counters[names.SIM_DATA_LOSS_EVENTS] == 4
        assert engine.metrics.counters[names.SIM_UNPLACEABLE_DEMANDS] >= 4
        assert all(t == 20.0 for t, _ in engine.loss_events)

    def test_loss_settles_exposure_accounting(self):
        cfg = SimConfig(
            racks=1, machines_per_rack=1, disks_per_machine=2,
            items=2, scheme="rep2", placement="spread",
            duration=100.0, failure_rate=0.0, scrub_interval=0.0,
            replacement_delay=1000.0,
            crashes=(DiskCrash("r0m0d0", 10.0), DiskCrash("r0m0d1", 20.0)),
        )
        engine = SimEngine(cfg).run()
        # Exposure accrues between the crashes (10 per item) and stops
        # at loss; nothing accrues to the horizon.
        assert engine.under_replicated_time == pytest.approx(2 * 10.0)


class TestScrubbing:
    def test_latent_errors_surface_and_repair(self):
        cfg = quiet(
            scrub_interval=20.0, latent_error_rate=1.0, duration=100.0
        )
        engine = SimEngine(cfg).run()
        counters = engine.metrics.counters
        assert counters[names.SIM_LATENT_ERRORS] >= 1
        assert counters[names.SIM_FRAGMENTS_REPAIRED] >= 1

    def test_recurring_shapes_hit_plan_cache(self):
        """Single-fragment replication repairs are structurally
        identical, so later incidents must be cache hits."""
        tracer = Tracer()
        cfg = quiet(
            scrub_interval=10.0, latent_error_rate=1.0, duration=200.0
        )
        engine = SimEngine(cfg, tracer=tracer)
        engine.run()
        counters = engine.metrics.counters
        assert counters[names.SIM_PLAN_COMPONENTS_CACHED] >= 1
        # The same hits are observable through the tracer's registry.
        assert tracer.metrics.counters[names.PLAN_CACHE_HITS] >= 1


class TestAbandonedRestores:
    def test_restore_to_dead_target_is_abandoned(self):
        engine = SimEngine(quiet())
        engine._degraded[("item0000", 0)] = 0.0
        engine._in_repair.add(("item0000", 0))
        engine._active_targets[99] = {("item0000", 0): "r9m9d9#1"}
        engine._on_restored(FragmentRestored(99, "item0000", 0))
        assert engine.metrics.counters[names.SIM_FRAGMENTS_ABANDONED] == 1
        assert ("item0000", 0) in engine._degraded
        assert ("item0000", 0) not in engine._in_repair

    def test_restore_for_lost_item_is_abandoned(self):
        engine = SimEngine(quiet())
        engine._lost.add("item0000")
        engine._active_targets[7] = {("item0000", 0): "r0m0d1"}
        engine._on_restored(FragmentRestored(7, "item0000", 0))
        assert engine.metrics.counters[names.SIM_FRAGMENTS_ABANDONED] == 1


class TestDeterminism:
    def test_same_config_same_state(self):
        cfg = SimConfig(duration=300.0, seed=11)
        a = SimEngine(cfg).run()
        b = SimEngine(cfg).run()
        assert a.metrics.snapshot() == b.metrics.snapshot()
        assert [i.as_dict() for i in a.incidents] == [
            i.as_dict() for i in b.incidents
        ]

    def test_different_seeds_diverge(self):
        a = SimEngine(SimConfig(duration=500.0, seed=1)).run()
        b = SimEngine(SimConfig(duration=500.0, seed=2)).run()
        assert a.metrics.snapshot() != b.metrics.snapshot()

    def test_tracer_does_not_change_outcome(self):
        cfg = SimConfig(duration=300.0, seed=11)
        untraced = SimEngine(cfg).run()
        traced = SimEngine(cfg, tracer=Tracer()).run()
        assert untraced.metrics.snapshot() == traced.metrics.snapshot()
