"""Property-based tests for incremental replanning (hypothesis).

The delta planner's contract is *provable identity*: for any prior
plan and any valid delta, ``plan_delta(prior, delta, cache=shared)``
must be byte-identical — schedule digest and verified lower bound —
to ``plan(apply_delta(instance, delta), cache=shared)``.  These tests
attack that claim with randomized instances and deltas instead of the
curated cases in the unit suite: arbitrary multigraphs, removes and
retargets drawn from disjoint live edges, adds and capacity changes
anywhere, both engine backends, chained deltas.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks.certify import (
    rounds_digest,
    verify_certificate,
    verify_patch_certificate,
)
from repro.core.delta import InstanceDelta, apply_delta
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from repro.pipeline import PlanCache, plan, plan_delta


@st.composite
def instance_and_delta(draw):
    """A random instance plus a valid delta against it.

    Removes and retargets consume *disjoint* live edges (one operation
    per drawn edge), so pair multiplicities always suffice and the
    delta applies cleanly.
    """
    num_nodes = draw(st.integers(4, 9))
    names = [f"d{i}" for i in range(num_nodes)]
    capacities = {name: draw(st.integers(1, 3)) for name in names}
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
            ).filter(lambda t: t[0] != t[1]),
            min_size=1,
            max_size=30,
        )
    )
    graph = Multigraph(nodes=names)
    for u, v in pairs:
        graph.add_edge(names[u], names[v])
    instance = MigrationInstance(graph, capacities)

    order = draw(st.permutations(list(range(len(pairs)))))
    n_removes = draw(st.integers(0, min(4, len(pairs))))
    n_retargets = draw(st.integers(0, min(4, len(pairs) - n_removes)))
    removes = tuple(
        (names[pairs[idx][0]], names[pairs[idx][1]]) for idx in order[:n_removes]
    )
    retargets = []
    for idx in order[n_removes : n_removes + n_retargets]:
        u, v = pairs[idx]
        w = draw(st.sampled_from([x for x in range(num_nodes) if x not in (u, v)]))
        retargets.append((names[u], names[v], names[w]))
    adds = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
            ).filter(lambda t: t[0] != t[1]),
            max_size=5,
        )
    )
    cap_nodes = draw(
        st.lists(st.sampled_from(names), unique=True, max_size=2)
    )
    capacity_changes = tuple(
        (node, draw(st.integers(1, 3))) for node in cap_nodes
    )
    delta = InstanceDelta(
        add_moves=tuple((names[u], names[v]) for u, v in adds),
        remove_moves=removes,
        retarget_moves=tuple(retargets),
        capacity_changes=capacity_changes,
    )
    return instance, delta


def directed_moves(instance):
    """The instance's ``(src, dst)`` move multiset."""
    graph = instance.graph
    return Counter(graph.endpoints(eid) for eid, _u, _v in graph.edges())


class TestIdentityContract:
    @given(
        instance_and_delta(),
        st.integers(0, 5),
        st.sampled_from(("object", "array")),
    )
    @settings(deadline=None, max_examples=50)
    def test_plan_delta_matches_full_plan(self, case, seed, backend):
        instance, delta = case
        cache = PlanCache(max_entries=512)
        prior = plan(instance, "auto", seed, cache=cache, certify=True)
        result = plan_delta(
            prior, delta, backend=backend, cache=cache, certify=True
        )
        patched = apply_delta(instance, delta)
        full = plan(patched, "auto", seed, cache=cache, certify=True)
        assert rounds_digest(result.schedule.rounds) == rounds_digest(
            full.schedule.rounds
        )
        # The certificate re-verifies from the patched instance alone
        # and agrees with the full replan's bound.
        assert result.certificate is not None and full.certificate is not None
        assert verify_certificate(patched, result.certificate) == (
            full.certificate.bound
        )
        assert result.patch_certificate is not None
        verify_patch_certificate(
            result.patch_certificate,
            prior.schedule.rounds,
            delta.canonical_payload(),
            result.schedule.rounds,
        )

    @given(instance_and_delta(), st.integers(0, 3))
    @settings(deadline=None, max_examples=25)
    def test_backends_agree_on_patched_bytes(self, case, seed):
        instance, delta = case
        digests = []
        for backend in ("object", "array"):
            cache = PlanCache(max_entries=512)
            prior = plan(
                instance, "auto", seed, backend=backend, cache=cache, certify=True
            )
            result = plan_delta(
                prior, delta, backend=backend, cache=cache, certify=True
            )
            digests.append(rounds_digest(result.schedule.rounds))
        assert digests[0] == digests[1]

    @given(
        instance_and_delta(),
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
                lambda t: t[0] != t[1]
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(deadline=None, max_examples=25)
    def test_chained_deltas_match_full_plan(self, case, extra_adds):
        """plan_delta(plan_delta(...)) equals one plan of the final state."""
        instance, delta1 = case
        nodes = sorted(instance.graph.nodes)
        delta2 = InstanceDelta(
            add_moves=tuple(
                (nodes[u % len(nodes)], nodes[v % len(nodes)])
                for u, v in extra_adds
                if nodes[u % len(nodes)] != nodes[v % len(nodes)]
            )
        )
        cache = PlanCache(max_entries=512)
        prior = plan(instance, "auto", 0, cache=cache, certify=True)
        step1 = plan_delta(prior, delta1, cache=cache, certify=True)
        step2 = plan_delta(step1, delta2, cache=cache, certify=True)
        final = apply_delta(apply_delta(instance, delta1), delta2)
        full = plan(final, "auto", 0, cache=cache, certify=True)
        assert rounds_digest(step2.schedule.rounds) == rounds_digest(
            full.schedule.rounds
        )


class TestDeltaAlgebra:
    @given(instance_and_delta(), st.integers(0, 3))
    @settings(deadline=None, max_examples=40)
    def test_compose_equals_sequential_application(self, case, cap):
        """apply(compose(d1, d2)) is structurally apply(apply(d1), d2)."""
        from repro.pipeline.canonical import fingerprint

        instance, delta1 = case
        nodes = sorted(instance.graph.nodes)
        delta2 = InstanceDelta(
            add_moves=((nodes[0], nodes[-1]),),
            capacity_changes=((nodes[cap % len(nodes)], 1 + cap % 3),),
        )
        sequential = apply_delta(apply_delta(instance, delta1), delta2)
        composed = apply_delta(instance, delta1.compose(delta2))
        assert fingerprint(sequential) == fingerprint(composed)

    @given(instance_and_delta())
    @settings(deadline=None, max_examples=60)
    def test_directed_move_multiset_changes_by_exactly_the_delta(self, case):
        """Antiparallel pairs included: a remove never takes the reverse."""
        instance, delta = case
        expected = directed_moves(instance)
        for src, old, new in delta.retarget_moves:
            expected[(src, old)] -= 1
            expected[(src, new)] += 1
        for move in delta.remove_moves:
            expected[move] -= 1
        for move in delta.add_moves:
            expected[move] += 1
        assert directed_moves(apply_delta(instance, delta)) == +expected

    @given(instance_and_delta())
    @settings(deadline=None, max_examples=40)
    def test_delta_json_round_trip(self, case):
        _instance, delta = case
        assert InstanceDelta.from_json(delta.to_json()) == delta
