"""The uniform extension surface: results, validators, exports.

Every extension scheduler returns an object satisfying the
``ExtensionResult`` protocol (``num_rounds`` + ``rounds``), and every
extension exposes a two-argument ``validate_*(instance, result)``
re-checker.  This module tests the surface itself — the per-extension
algorithms have their own test files.
"""

import pytest

import repro.extensions as ext
from repro.core.delta import InstanceDelta
from repro.core.errors import ScheduleValidationError
from repro.core.problem import MigrationInstance
from repro.extensions import (
    CloningInstance,
    CloningResult,
    ExtensionResult,
    ForwardingResult,
    OnlineInstance,
    OnlineReport,
    best_cloning_schedule,
    forwarding_schedule,
    gossip_schedule,
    naive_schedule,
    reorder_rounds_by_weight,
    run_online,
    validate_cloning,
    validate_completion,
    validate_forwarding,
    validate_online,
)
from repro.pipeline import plan


def star_instance():
    moves = [("hub", "a"), ("hub", "b"), ("hub", "c"), ("a", "b")]
    return MigrationInstance.from_moves(
        moves, {"hub": 1, "a": 1, "b": 1, "c": 1}
    )


def cloning_instance():
    return CloningInstance(
        items={"x": ("s", {"d1", "d2", "d3"}), "y": ("d1", {"s"})},
        capacities={"s": 1, "d1": 1, "d2": 1, "d3": 1},
    )


def online_instance():
    return OnlineInstance(
        arrivals={0: [("a", "b"), ("a", "c")], 2: [("b", "c")]},
        capacities={"a": 1, "b": 1, "c": 1},
    )


class TestExtensionResultProtocol:
    def test_all_result_types_satisfy_protocol(self):
        instance = star_instance()
        results = [
            plan(instance).schedule,  # the core type conforms too
            forwarding_schedule(star_instance()),
            gossip_schedule(cloning_instance()),
            run_online(online_instance()),
        ]
        for result in results:
            assert isinstance(result, ExtensionResult)
            assert result.num_rounds == len(result.rounds)
            for rnd in result.rounds:
                assert isinstance(rnd, (list, tuple))

    def test_protocol_rejects_bare_objects(self):
        assert not isinstance(object(), ExtensionResult)


class TestCloningResult:
    def test_is_a_list_for_back_compat(self):
        result = gossip_schedule(cloning_instance())
        assert isinstance(result, list)
        assert isinstance(result, CloningResult)
        assert result.rounds == list(result)

    def test_all_schedulers_return_cloning_result(self):
        instance = cloning_instance()
        for scheduler in (gossip_schedule, naive_schedule, best_cloning_schedule):
            assert isinstance(scheduler(instance), CloningResult)


class TestUniformValidators:
    def test_forwarding_validator(self):
        instance = star_instance()
        result = forwarding_schedule(instance)
        validate_forwarding(instance, result)

    def test_cloning_validator(self):
        instance = cloning_instance()
        validate_cloning(instance, gossip_schedule(instance))
        with pytest.raises(ScheduleValidationError):
            validate_cloning(instance, CloningResult([[("x", "d1", "d2")]]))

    def test_completion_validator(self):
        instance = star_instance()
        reordered = reorder_rounds_by_weight(plan(instance).schedule)
        validate_completion(instance, reordered)

    def test_online_validator(self):
        instance = online_instance()
        report = run_online(instance)
        validate_online(instance, report)

    def test_online_validator_catches_tampered_rounds(self):
        instance = online_instance()
        report = run_online(instance)
        report.rounds[0] = list(report.rounds[0]) * 2
        with pytest.raises(ScheduleValidationError):
            validate_online(instance, report)


class TestOnlineInstance:
    def test_bundles_arrivals_and_capacities(self):
        report = run_online(online_instance())
        assert isinstance(report, OnlineReport)
        assert report.num_rounds == len(report.rounds)
        assert len(report.timeline) == 3

    def test_matches_legacy_two_mapping_call(self):
        instance = online_instance()
        bundled = run_online(instance)
        unbundled = run_online(instance.deltas(), instance.capacities)
        assert bundled.timeline == unbundled.timeline
        assert bundled.rounds == unbundled.rounds

    def test_rejects_capacities_given_twice(self):
        instance = online_instance()
        with pytest.raises(ValueError, match="inside the OnlineInstance"):
            run_online(instance, instance.capacities)

    def test_requires_capacities_for_bare_mapping(self):
        with pytest.raises(ValueError, match="required"):
            run_online({0: InstanceDelta(add_moves=(("a", "b"),))})


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in ext.__all__:
            assert getattr(ext, name) is not None

    def test_every_extension_has_a_validator(self):
        for validator in (
            "validate_forwarding",
            "validate_cloning",
            "validate_online",
            "validate_completion",
        ):
            assert validator in ext.__all__
