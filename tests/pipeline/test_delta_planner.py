"""Tests for repro.pipeline.delta: the incremental replanner."""

import math
import random

import pytest

from repro.checks.certify import (
    CertificationError,
    rounds_digest,
    verify_patch_certificate,
)
from repro.core.delta import InstanceDelta, apply_delta
from repro.core.problem import MigrationInstance
from repro.core.recolor import ArrayColoringState
from repro.core.schedule import MigrationSchedule
from repro.graphs.multigraph import Multigraph
from repro.pipeline import PlanCache, plan, plan_delta
from repro.pipeline.canonical import canonical_order, canonicalize_rounds
from repro.pipeline.delta import (
    DISPOSITION_PATCHED,
    DISPOSITION_REUSED,
    DISPOSITION_RESOLVED,
    DeltaPlanResult,
    _patch_component,
)
from tests.conftest import random_instance


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


def first_fit(instance, eids, capacities=None, palette=None):
    """Plain first-fit colors for ``eids`` in the given order, at
    ``capacities`` (the instance's by default); an edge that needs a
    color at or past ``palette`` is left out."""
    caps = instance.capacities if capacities is None else capacities
    load = {}
    colors = {}
    for eid in eids:
        u, v = instance.graph.endpoints(eid)
        c = 0
        while load.get((u, c), 0) >= caps[u] or load.get((v, c), 0) >= caps[v]:
            c += 1
        if palette is not None and c >= palette:
            continue
        load[(u, c)] = load.get((u, c), 0) + 1
        load[(v, c)] = load.get((v, c), 0) + 1
        colors[eid] = c
    return colors


def double_star():
    """``u`` and ``v`` at capacity 1 with 11 leaves each, colored so
    that ``u`` wears 0..10 and ``v`` 9..19: the new edge ``u-v`` has
    no common missing color, and the palette (20) is already at the
    bound (Δ' = 12), so only a flip can color it."""
    moves = [("u", f"x{i}") for i in range(11)] + [("v", f"y{i}") for i in range(11)]
    moves.append(("u", "v"))
    survivors = {e: e for e in range(11)}
    survivors.update({11 + i: 9 + i for i in range(11)})
    return MigrationInstance.uniform(moves, 1), survivors


def shannon_triangle(k, colored):
    """Each side of a unit-capacity triangle ``k`` times: χ' = 3k
    against Δ' = 2k; the first ``colored`` edges survive."""
    moves = [("a", "b")] * k + [("b", "c")] * k + [("c", "a")] * k
    instance = MigrationInstance.uniform(moves, 1)
    return instance, first_fit(instance, range(colored))


def stale_capacities(seed):
    """Survivors first-fit at one more slot per disk than the instance
    has, so preload rejects some; a quarter of the edges are new."""
    instance = random_instance(10, 60, capacity_choices=(1, 2, 3), seed=seed)
    roomier = {v: c + 1 for v, c in instance.capacities.items()}
    return instance, first_fit(instance, instance.graph.edge_ids()[:45], roomier)


def stuck_regular(n, d, cap, seed, shuffle_ids=False):
    """``d·cap`` random perfect matchings between two sides of ``n``
    disks at capacity ``cap`` (Δ' = d).  First-fit in a random order
    at the optimal palette ``d`` gets stuck on some edges; those are
    the new ones.  ``shuffle_ids`` takes the graph through
    ``edge_subgraph`` in a shuffled order, so edge ids are not
    ascending in enumeration order."""
    rng = random.Random(seed)
    moves = []
    for _matching in range(d * cap):
        perm = list(range(n))
        rng.shuffle(perm)
        moves += [(f"L{j}", f"R{perm[j]}") for j in range(n)]
    instance = MigrationInstance.uniform(moves, cap)
    eids = instance.graph.edge_ids()
    if shuffle_ids:
        rng.shuffle(eids)
        instance = MigrationInstance(
            instance.graph.edge_subgraph(eids), instance.capacities
        )
    order = list(eids)
    rng.shuffle(order)
    return instance, first_fit(instance, order, palette=d)


#: name -> (instance and survivors, patch seed, token-round digest of
#: the patch or None for a fallback, recolored edges).
PATCH_CASES = {
    "double-star-flip": (
        double_star, 0,
        "4d79d630d92df0b933fbe75ea57f1bfb08c7ddc24363b59fefe8850f0b2d01f4", 1,
    ),
    "shannon-growth": (
        lambda: shannon_triangle(2, 4), 1,
        "6d8cf3447804f54dc1dcb43cee3b2c6ca89760d4af466c2bbdf89c21b8bd7ecc", 2,
    ),
    "shannon-bound": (lambda: shannon_triangle(18, 18), 2, None, 0),
    "stale-capacities": (
        lambda: stale_capacities(0), 3,
        "574525d796bb9b0c2ea949303fe82aa0828749cbc3832a4cf7d91ead47715e53", 29,
    ),
    "stuck-unit": (
        lambda: stuck_regular(16, 8, 1, 1), 7,
        "b8cbed1e47598544fc23972e2c2de7527309a18f252d407709be59f2364114b5", 15,
    ),
    "stuck-cap2": (
        lambda: stuck_regular(12, 6, 2, 2), 8,
        "bbb1e3e073bf72c5c1e9cb22cfea0cf8faa2215b206a7febe871a32a51123cca", 13,
    ),
    "stuck-shuffled-ids": (
        lambda: stuck_regular(16, 10, 1, 3, shuffle_ids=True), 9,
        "88d91edafbaeb42c8e84ef954cc3b6c1e7d591dc09d00ae09930cf439bf531aa", 17,
    ),
    "stuck-large": (
        lambda: stuck_regular(32, 16, 1, 4), 10,
        "38010e12a1c639d20fe10bdc5e1cfce66eae81c509edfcc6988110c6fe15e26e", 39,
    ),
}


class TestPatchComponent:
    """``_patch_component`` called directly: each case's rounds (by
    their token form) and recolored-edge count are pinned.  ``double-star-flip`` colors
    its new edge only through a flip, ``shannon-growth`` and
    ``stuck-cap2`` grow the palette past q₀, ``shannon-bound`` needs
    54 colors against a bound of 50 and falls back, and
    ``stale-capacities`` has preload rejections."""

    @pytest.mark.parametrize("name", sorted(PATCH_CASES))
    def test_pinned(self, name):
        factory, seed, digest, recolored = PATCH_CASES[name]
        instance, survivors = factory()
        outcome, count = _patch_component(instance, survivors, seed)
        assert count == recolored
        if digest is None:
            assert outcome is None
            return
        rounds, method = outcome
        assert method == "patch"
        assert rounds_digest(canonicalize_rounds(instance, rounds)) == digest
        assert rounds == canonical_order(instance, rounds)
        schedule = MigrationSchedule(rounds)
        schedule.validate(instance)
        dp = instance.delta_prime()
        q0 = max(max(survivors.values()) + 1, dp)
        assert schedule.num_rounds <= max(q0, dp + 2 * math.isqrt(dp) + 2)


class TestBoundBeyondPatch:
    """A component whose lower bound already exceeds the patch bound
    falls back before any flip: ``shannon-bound`` needs
    ``⌈54 / ⌊3/2⌋⌉ = 54`` rounds against a bound of 50."""

    @staticmethod
    def counted_flips(monkeypatch):
        calls = []
        real = ArrayColoringState.attempt_flip

        def counted(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(ArrayColoringState, "attempt_flip", counted)
        return calls

    def test_patch_makes_no_flip(self, monkeypatch):
        flips = self.counted_flips(monkeypatch)
        instance, survivors = shannon_triangle(18, 18)
        assert _patch_component(instance, survivors, 2) == (None, 0)
        assert flips == []

    def test_plan_delta_bytes(self, monkeypatch):
        """The fallback's bytes, pinned from the search that ran 390
        flips before it gave up."""
        moves = [("a", "b")] * 2 + [("b", "c")] * 2 + [("c", "a")] * 2
        prior = plan(MigrationInstance.uniform(moves, 1), "auto", 0, certify=True)
        flips = self.counted_flips(monkeypatch)
        extra = [("a", "b")] * 16 + [("b", "c")] * 16 + [("c", "a")] * 16
        result = plan_delta(prior, InstanceDelta(add_moves=extra))
        assert flips == []
        assert result.dispositions == (DISPOSITION_RESOLVED,)
        assert result.fallbacks == 1
        assert result.num_rounds == result.lower_bound == 54
        assert rounds_digest(result.schedule.rounds) == (
            "ab1ca31a5619bc29f69963284546b34aa16270102a5eaaa2940875c1b5b218ad"
        )
