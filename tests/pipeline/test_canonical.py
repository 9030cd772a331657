"""Tests for canonical fingerprints, pair tokens, and derived seeds."""

import hashlib
import itertools
import json

import pytest

from repro import plan
from repro.core.errors import ScheduleValidationError
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from repro.pipeline.canonical import (
    _pair_slots,
    canonicalize_rounds,
    decode_token_plan,
    derive_component_seed,
    derive_restart_seed,
    encode_token_plan,
    fingerprint,
    rehydrate_rounds,
)

from tests.conftest import random_instance


def shifted_copy(instance: MigrationInstance):
    """The same structure rebuilt with edges inserted in reverse, so the
    edge-id → pair mapping differs (as it does across replans)."""
    graph = Multigraph(nodes=list(instance.graph.nodes))
    for _eid, u, v in reversed(list(instance.graph.edges())):
        graph.add_edge(u, v)
    caps = {v: instance.capacity(v) for v in instance.graph.nodes}
    return MigrationInstance(graph, caps)


class Opaque:
    """A node whose ``repr`` does not tell instances apart."""

    def __repr__(self):
        return "opaque"


def ambiguous_instance():
    u, v, w = Opaque(), Opaque(), "w"
    graph = Multigraph(nodes=[u, v, w])
    for a, b in [(u, v), (v, w), (u, v), (w, u)]:
        graph.add_edge(a, b)
    return MigrationInstance(graph, {u: 1, v: 2, w: 1})


class TestFingerprint:
    def test_identical_structures_share_fingerprints(self):
        inst = random_instance(8, 24, seed=5)
        copy = shifted_copy(inst)
        assert [e for e in inst.graph.edges()] != [e for e in copy.graph.edges()]
        assert fingerprint(inst) == fingerprint(copy)

    def test_different_capacity_changes_fingerprint(self):
        moves = [("a", "b"), ("b", "c")]
        one = MigrationInstance.from_moves(moves, {"a": 1, "b": 2, "c": 1})
        two = MigrationInstance.from_moves(moves, {"a": 1, "b": 4, "c": 1})
        assert fingerprint(one) != fingerprint(two)

    def test_different_multiplicity_changes_fingerprint(self):
        caps = {"a": 2, "b": 2}
        one = MigrationInstance.from_moves([("a", "b")], caps)
        two = MigrationInstance.from_moves([("a", "b"), ("a", "b")], caps)
        assert fingerprint(one) != fingerprint(two)

    def test_ambiguous_reprs_return_none(self):
        u, v = Opaque(), Opaque()  # two distinct nodes, same repr
        graph = Multigraph(nodes=[u, v])
        graph.add_edge(u, v)
        inst = MigrationInstance(graph, {u: 1, v: 1})
        assert fingerprint(inst) is None


class TestTokenRoundTrip:
    def test_round_trip_preserves_rounds(self):
        inst = random_instance(8, 20, seed=2)
        rounds = [[eid for eid, _u, _v in inst.graph.edges()][:7]]
        rounds.append([eid for eid, _u, _v in inst.graph.edges()][7:])
        tokens = canonicalize_rounds(inst, rounds)
        back = rehydrate_rounds(inst, tokens)
        assert [sorted(r) for r in back] == [sorted(r) for r in rounds]

    def test_tokens_transfer_across_edge_relabeling(self):
        inst = random_instance(6, 15, seed=4)
        copy = shifted_copy(inst)
        all_edges = [eid for eid, _u, _v in inst.graph.edges()]
        tokens = canonicalize_rounds(inst, [all_edges[:8], all_edges[8:]])
        migrated = rehydrate_rounds(copy, tokens)
        # Same rounds *structurally*: endpoints multiset per round match.
        def pairs(instance, rnd):
            return sorted(
                tuple(sorted(map(repr, instance.graph.endpoints(e)))) for e in rnd
            )

        assert pairs(copy, migrated[0]) == pairs(inst, all_edges[:8])
        assert pairs(copy, migrated[1]) == pairs(inst, all_edges[8:])

    def test_empty_rounds_are_dropped(self):
        inst = random_instance(4, 6, seed=1)
        edges = [eid for eid, _u, _v in inst.graph.edges()]
        tokens = canonicalize_rounds(inst, [edges, [], []])
        assert len(tokens) == 1

    def test_rehydrate_unknown_token_raises(self):
        inst = random_instance(4, 6, seed=1)
        with pytest.raises(ScheduleValidationError, match="'nope'"):
            rehydrate_rounds(inst, ((("'nope'", "'nada'", 0),),))

    def test_token_plan_json_round_trip(self):
        inst = random_instance(6, 14, seed=4)
        tokens = canonicalize_rounds(inst, plan(inst).schedule.rounds)
        payload = json.loads(json.dumps(encode_token_plan("general", tokens)))
        assert decode_token_plan(payload) == ("general", tokens)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "must be an object"),
            ({"rounds": []}, "needs 'method'"),
            ({"method": "general", "rounds": {}}, "needs 'method'"),
            ({"method": "general", "rounds": [{}]}, "round 0 is not a list"),
            ({"method": "general", "rounds": [[[0, "'b'", 0]]]}, "malformed token"),
        ],
        ids=["not-an-object", "no-method", "rounds-object", "round-object",
             "int-repr"],
    )
    def test_decode_rejects_malformed_payload(self, payload, message):
        with pytest.raises(ValueError, match=message):
            decode_token_plan(payload)


def fresh(instance):
    """The same instance (same edge ids) with nothing memoized yet."""
    return MigrationInstance(instance.graph.copy(), instance.capacities)


def reference_fingerprint(instance):
    """The fingerprint, recomputed from scratch per edge."""
    reprs = [repr(v) for v in instance.graph.nodes]
    if len(set(reprs)) != len(reprs):
        return None
    pairs = {}
    for _eid, u, v in instance.graph.edges():
        pair = tuple(sorted((repr(u), repr(v))))
        pairs[pair] = pairs.get(pair, 0) + 1
    payload = {
        "nodes": [[r, c] for r, c in sorted(
            (repr(v), instance.capacity(v)) for v in instance.graph.nodes)],
        "edges": [[a, b, n] for (a, b), n in sorted(pairs.items())],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def reference_slots(instance):
    """Edge id -> token, recomputed from scratch per edge."""
    by_pair = {}
    for eid, u, v in instance.graph.edges():
        by_pair.setdefault(tuple(sorted((repr(u), repr(v)))), []).append(eid)
    return {eid: (a, b, k) for (a, b), eids in by_pair.items()
            for k, eid in enumerate(sorted(eids))}


def round_trip(instance):
    """Canonicalize then rehydrate a fixed five-per-round schedule."""
    eids = [eid for eid, _u, _v in instance.graph.edges()][::-1]
    rounds = [eids[i:i + 5] for i in range(0, len(eids), 5)]
    return rehydrate_rounds(instance, canonicalize_rounds(instance, rounds))


CALLS = {
    "fingerprint": fingerprint,
    "slots": lambda inst: dict(_pair_slots(inst)),
    "round_trip": round_trip,
}


def memo_cases():
    yield "random-8x24", random_instance(8, 24, seed=5)
    yield "random-10x30", random_instance(10, 30, seed=9)
    yield "shifted", shifted_copy(random_instance(6, 15, seed=4))
    yield "ambiguous", ambiguous_instance()


class TestOnePass:
    """The canonical form is built once per instance and memoized."""

    @pytest.mark.parametrize("name, inst", list(memo_cases()),
                             ids=[name for name, _ in memo_cases()])
    def test_memoized_values_match_a_fresh_copy_in_any_order(self, name, inst):
        cold = {key: call(fresh(inst)) for key, call in CALLS.items()}
        assert cold["fingerprint"] == reference_fingerprint(inst)
        assert cold["slots"] == reference_slots(inst)
        for order in itertools.permutations(CALLS):
            warm = fresh(inst)
            for key in order + order:
                assert CALLS[key](warm) == cold[key], (order, key)

    def test_repr_calls_do_not_scale_with_moves(self):
        """A certified plan takes each disk's ``repr`` a number of
        times that depends on the disks, not on how many items move
        between them."""

        class Disk:
            def __init__(self, name):
                self.name = name
                self.reprs = 0

            def __repr__(self):
                self.reprs += 1
                return f"Disk({self.name!r})"

        disks = [Disk(f"d{i}") for i in range(8)]
        a, b = disks[:4], disks[4:]
        moves = [(a[0], a[1]), (a[1], a[2]), (a[2], a[3]), (a[3], a[0]),
                 (a[0], a[2]), (b[0], b[1]), (b[1], b[2]), (b[2], b[0]),
                 (b[2], b[3])]
        caps = {d: 2 for d in disks}
        counts = []
        for fold in (2, 20):
            inst = MigrationInstance.from_moves(
                [move for move in moves for _ in range(fold)], caps)
            for disk in disks:
                disk.reprs = 0
            result = plan(inst, certify=True)
            assert len(result.components) == 2
            assert result.schedule.method == "even_optimal"
            counts.append([disk.reprs for disk in disks])
        assert counts[0] == counts[1]


class TestDerivedSeeds:
    def test_deterministic(self):
        assert derive_component_seed(7, "ab" * 32) == derive_component_seed(7, "ab" * 32)

    def test_varies_with_base_seed_and_fingerprint(self):
        fp1, fp2 = "ab" * 32, "cd" * 32
        assert derive_component_seed(0, fp1) != derive_component_seed(1, fp1)
        assert derive_component_seed(0, fp1) != derive_component_seed(0, fp2)


class TestRestartSeeds:
    def test_deterministic_and_distinct_per_attempt(self):
        seeds = [derive_restart_seed(7, a) for a in (1, 2, 3)]
        assert seeds == [derive_restart_seed(7, a) for a in (1, 2, 3)]
        assert len(set(seeds)) == 3

    def test_varies_with_base_seed(self):
        assert derive_restart_seed(0, 1) != derive_restart_seed(1, 1)
