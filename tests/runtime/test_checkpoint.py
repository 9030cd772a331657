"""Checkpoint/restore tests, including the headline guarantee:

a seeded, fault-injected run killed mid-execution and resumed from its
checkpoint produces the *identical* final layout and telemetry totals
as the same run executed uninterrupted.
"""

import json
import os

import pytest

from repro import plan
from repro.runtime import (
    CheckpointError,
    DiskCrash,
    FaultPlan,
    MigrationExecutor,
    NetworkPartition,
    RetryPolicy,
    load_checkpoint,
    restore_executor,
    save_checkpoint,
)
from repro.runtime.checkpoint import SCHEMA_VERSION
from repro.workloads.scenarios import decommission_scenario

FAULTS = FaultPlan(
    transfer_failure_rate=0.15,
    crashes=(DiskCrash("new-2", 5.0),),
    partitions=(NetworkPartition(2.0, 6.0, ("mid-1",)),),
)
SCENARIO_SEED = 1
EXECUTOR_SEED = 7


def fresh_executor():
    scenario = decommission_scenario(seed=SCENARIO_SEED)
    return scenario, MigrationExecutor(
        scenario.cluster,
        scenario.context,
        plan(scenario.instance).schedule,
        faults=FAULTS,
        seed=EXECUTOR_SEED,
    )


def run_uninterrupted():
    scenario, ex = fresh_executor()
    report = ex.run()
    assert report.finished
    return scenario.cluster.layout.as_dict(), ex.telemetry.totals(), report


class TestKillAndResume:
    """The PR's acceptance criterion, at several kill points."""

    @pytest.mark.parametrize("kill_after", [1, 3, 7, 20])
    def test_resumed_run_is_identical(self, tmp_path, kill_after):
        final_layout, final_totals, full_report = run_uninterrupted()

        # Interrupted run: execute a few rounds, checkpoint, "die".
        path = str(tmp_path / "run.ckpt")
        scenario, ex = fresh_executor()
        ex.run(max_rounds=kill_after)
        save_checkpoint(path, ex, config={"scenario_seed": SCENARIO_SEED})
        del scenario, ex  # the process is gone

        # Resume in a "new process": rebuild the base cluster the same
        # way, restore, and run to completion.
        config, state = load_checkpoint(path)
        assert config == {"scenario_seed": SCENARIO_SEED}
        cluster = decommission_scenario(seed=config["scenario_seed"]).cluster
        resumed = restore_executor(
            cluster, state, faults=FAULTS, seed=EXECUTOR_SEED
        )
        report = resumed.run()
        assert report.finished

        assert cluster.layout.as_dict() == final_layout
        assert resumed.telemetry.totals() == final_totals
        assert report.rounds_executed == full_report.rounds_executed
        assert report.total_time == pytest.approx(full_report.total_time)
        assert sorted(report.delivered) == sorted(full_report.delivered)
        assert sorted(report.stranded) == sorted(full_report.stranded)

    def test_checkpoint_json_round_trip_is_exact(self, tmp_path):
        """get_state survives an actual JSON round trip byte-for-byte."""
        _scenario, ex = fresh_executor()
        ex.run(max_rounds=4)
        state = ex.get_state()
        assert state == json.loads(json.dumps(state))

    def test_resume_at_every_boundary(self, tmp_path):
        """Chain checkpoints: kill/restore after every single round."""
        final_layout, final_totals, _ = run_uninterrupted()
        path = str(tmp_path / "chain.ckpt")
        _scenario, ex = fresh_executor()
        cluster = ex.cluster
        while True:
            report = ex.run(max_rounds=1)
            if report.finished:
                break
            save_checkpoint(path, ex)
            _config, state = load_checkpoint(path)
            cluster = decommission_scenario(seed=SCENARIO_SEED).cluster
            ex = restore_executor(cluster, state, faults=FAULTS, seed=EXECUTOR_SEED)
        assert cluster.layout.as_dict() == final_layout
        assert ex.telemetry.totals() == final_totals


class TestCheckpointFiles:
    def test_save_is_atomic_and_loadable(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        _scenario, ex = fresh_executor()
        ex.run(max_rounds=2)
        save_checkpoint(path, ex, config={"k": "v"})
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".checkpoint-")]
        assert leftovers == []  # temp file renamed away
        config, state = load_checkpoint(path)
        assert config == {"k": "v"}
        assert state["round_index"] == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(str(path))

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"some": "payload"}))
        with pytest.raises(CheckpointError, match="not a runtime checkpoint"):
            load_checkpoint(str(path))

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text(
            json.dumps({"schema_version": SCHEMA_VERSION + 1, "state": {}})
        )
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(str(path))

    def test_missing_state_block(self, tmp_path):
        path = tmp_path / "nostate.ckpt"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(CheckpointError, match="no state block"):
            load_checkpoint(str(path))

    def test_restore_rejects_truncated_state(self, tmp_path):
        cluster = decommission_scenario(seed=SCENARIO_SEED).cluster
        with pytest.raises(CheckpointError, match="cannot restore"):
            restore_executor(cluster, {"now": 1.0})  # missing everything else

    def test_overwrite_keeps_previous_on_success_only(self, tmp_path):
        """A later checkpoint replaces the earlier one in place."""
        path = str(tmp_path / "run.ckpt")
        _scenario, ex = fresh_executor()
        ex.run(max_rounds=1)
        save_checkpoint(path, ex)
        _c, first = load_checkpoint(path)
        ex.run(max_rounds=1)
        save_checkpoint(path, ex)
        _c, second = load_checkpoint(path)
        assert first["round_index"] == 1
        assert second["round_index"] == 2


class TestResumeGuards:
    def test_policy_affects_resume_so_config_should_pin_it(self, tmp_path):
        """Resuming is seeded-deterministic only under the same knobs —
        demonstrating why the CLI stores them in the config block."""
        path = str(tmp_path / "run.ckpt")
        _scenario, ex = fresh_executor()
        ex.run(max_rounds=3)
        save_checkpoint(
            path, ex, config={"faults": FAULTS.to_json(), "seed": EXECUTOR_SEED}
        )
        config, _state = load_checkpoint(path)
        assert FaultPlan.from_json(config["faults"]) == FAULTS
        assert config["seed"] == EXECUTOR_SEED
