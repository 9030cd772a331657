"""Tests for repro.pipeline.delta: the incremental replanner."""

import pytest

from repro.checks.certify import (
    CertificationError,
    rounds_digest,
    verify_patch_certificate,
)
from repro.core.delta import InstanceDelta, apply_delta
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from repro.pipeline import PlanCache, plan, plan_delta
from repro.pipeline.delta import (
    DISPOSITION_PATCHED,
    DISPOSITION_REUSED,
    DISPOSITION_RESOLVED,
    DeltaPlanResult,
)


def two_component_instance():
    """Two disjoint components: a dense one and a small one."""
    graph = Multigraph()
    capacities = {}
    for k, size, extra in ((0, 6, 12), (1, 4, 3)):
        names = [f"c{k}.d{i}" for i in range(size)]
        for name in names:
            graph.add_node(name)
            capacities[name] = 2
        for i in range(size - 1):
            graph.add_edge(names[i], names[i + 1])
        for j in range(extra):
            graph.add_edge(names[j % size], names[(j + 2) % size])
    return MigrationInstance(graph, capacities)


def planned(instance, seed=0, cache=None):
    cache = cache if cache is not None else PlanCache(max_entries=256)
    return plan(instance, "auto", seed, cache=cache, certify=True), cache


class TestTriage:
    def test_untouched_components_are_reused(self):
        instance = two_component_instance()
        prior, cache = planned(instance)
        delta = InstanceDelta(add_moves=(("c1.d0", "c1.d2"),))
        result = plan_delta(prior, delta, cache=cache, certify=True)
        assert isinstance(result, DeltaPlanResult)
        assert result.components_reused == 1
        assert result.components_patched + result.components_resolved == 1
        assert set(result.dispositions) <= {
            DISPOSITION_REUSED,
            DISPOSITION_PATCHED,
            DISPOSITION_RESOLVED,
        }

    def test_touched_component_with_survivors_is_patched(self):
        instance = two_component_instance()
        prior, cache = planned(instance)
        delta = InstanceDelta(add_moves=(("c0.d0", "c0.d3"),))
        result = plan_delta(prior, delta, cache=cache, certify=True)
        assert result.components_patched == 1
        assert result.patched_edges >= 1

    def test_brand_new_component_is_resolved(self):
        instance = two_component_instance()
        prior, cache = planned(instance)
        delta = InstanceDelta(
            add_moves=(("x0", "x1"),),
            capacity_changes=(("x0", 1), ("x1", 1)),
        )
        result = plan_delta(prior, delta, cache=cache, certify=True)
        assert result.components_resolved == 1
        assert result.components_reused == 2

    def test_empty_delta_reuses_everything(self):
        instance = two_component_instance()
        prior, cache = planned(instance)
        result = plan_delta(prior, InstanceDelta(), cache=cache, certify=True)
        assert result.components_reused == len(result.dispositions)
        assert rounds_digest(result.schedule.rounds) == rounds_digest(
            prior.schedule.rounds
        )

    def test_delta_emptying_the_instance(self):
        graph = Multigraph(nodes=["a", "b"])
        graph.add_edge("a", "b")
        instance = MigrationInstance(graph, {"a": 1, "b": 1})
        prior, cache = planned(instance)
        result = plan_delta(
            prior, InstanceDelta(remove_moves=(("a", "b"),)),
            cache=cache, certify=True,
        )
        assert result.schedule.num_rounds == 0


class TestIdentity:
    def test_matches_full_plan_on_shared_cache(self):
        instance = two_component_instance()
        prior, cache = planned(instance, seed=3)
        delta = InstanceDelta(
            add_moves=(("c0.d0", "c0.d4"),),
            remove_moves=(("c0.d0", "c0.d1"),),
            retarget_moves=(("c1.d0", "c1.d1", "c1.d3"),),
        )
        result = plan_delta(prior, delta, cache=cache, certify=True)
        patched = apply_delta(instance, delta)
        full = plan(patched, "auto", 3, cache=cache, certify=True)
        assert rounds_digest(result.schedule.rounds) == rounds_digest(
            full.schedule.rounds
        )
        assert result.certificate is not None
        assert result.certificate.bound == full.certificate.bound

    def test_result_carries_patched_instance_and_seed(self):
        instance = two_component_instance()
        prior, cache = planned(instance, seed=5)
        delta = InstanceDelta(add_moves=(("c1.d0", "c1.d2"),))
        result = plan_delta(prior, delta, cache=cache, certify=True)
        assert result.seed == 5
        assert result.delta is delta
        assert result.instance is not None
        assert result.instance.num_items == instance.num_items + 1


class TestPatchCertificate:
    def test_present_and_verifiable(self):
        instance = two_component_instance()
        prior, cache = planned(instance)
        delta = InstanceDelta(add_moves=(("c0.d0", "c0.d2"),))
        result = plan_delta(prior, delta, cache=cache, certify=True)
        assert result.patch_certificate is not None
        verify_patch_certificate(
            result.patch_certificate,
            prior.schedule.rounds,
            delta.canonical_payload(),
            result.schedule.rounds,
        )

    def test_detects_tampering(self):
        instance = two_component_instance()
        prior, cache = planned(instance)
        delta = InstanceDelta(add_moves=(("c0.d0", "c0.d2"),))
        result = plan_delta(prior, delta, cache=cache, certify=True)
        with pytest.raises(CertificationError, match="digest mismatch"):
            verify_patch_certificate(
                result.patch_certificate,
                prior.schedule.rounds,
                InstanceDelta().canonical_payload(),
                result.schedule.rounds,
            )


class TestErrors:
    def test_requires_auto_prior(self):
        instance = two_component_instance()
        cache = PlanCache(max_entries=64)
        prior = plan(instance, "general", 0, cache=cache, certify=True)
        with pytest.raises(ValueError, match="auto"):
            plan_delta(prior, InstanceDelta(), cache=cache)

    def test_requires_prior_instance(self):
        instance = two_component_instance()
        prior, cache = planned(instance)
        stripped = prior.__class__(
            **{
                **{f: getattr(prior, f) for f in prior.__dataclass_fields__},
                "instance": None,
            }
        )
        with pytest.raises(ValueError, match="instance"):
            plan_delta(stripped, InstanceDelta(), cache=cache)
