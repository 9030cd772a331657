"""Tests for the Section III lower bounds."""

import math

import pytest

from repro.core.lower_bounds import lb1, lb2, lb2_exact, lower_bound, subset_bound
from repro.core.problem import MigrationInstance
from tests.brute_force import brute_force_rounds
from tests.conftest import random_instance


class TestLB1:
    def test_simple(self):
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("a", "c"), ("a", "d")], {"a": 2, "b": 1, "c": 1, "d": 1}
        )
        # a: ceil(3/2) = 2 binds.
        assert lb1(inst) == 2

    def test_capacity_saturates(self):
        inst = MigrationInstance.from_moves(
            [("a", "b")] * 6, {"a": 3, "b": 6}
        )
        assert lb1(inst) == 2  # ceil(6/3)


class TestSubsetBound:
    def test_pair_multiplicity(self):
        inst = MigrationInstance.from_moves([("a", "b")] * 5, {"a": 1, "b": 1})
        # floor((1+1)/2) = 1 edge per round inside {a, b}.
        assert subset_bound(inst, ["a", "b"]) == 5

    def test_no_internal_edges(self):
        inst = MigrationInstance.from_moves([("a", "b")], {"a": 1, "b": 1, "c": 4})
        assert subset_bound(inst, ["a", "c"]) == 0

    def test_triangle_with_unit_caps(self):
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        # 3 edges, floor(3/2) = 1 edge per round -> 3 rounds.
        assert subset_bound(inst, ["a", "b", "c"]) == 3


class TestLB2:
    def test_exact_beats_lb1_on_odd_cycle(self):
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        assert lb1(inst) == 2
        assert lb2_exact(inst) == 3

    def test_exact_refuses_large_graphs(self):
        inst = random_instance(20, 30, seed=0)
        with pytest.raises(ValueError):
            lb2_exact(inst, max_nodes=16)

    @pytest.mark.parametrize("seed", range(10))
    def test_heuristic_never_exceeds_exact(self, seed):
        inst = random_instance(7, 18, capacity_choices=(1, 2, 3), seed=seed)
        assert lb2(inst) <= lb2_exact(inst)

    @pytest.mark.parametrize("seed", range(10))
    def test_heuristic_finds_pair_hotspots(self, seed):
        # When the binding set is a node pair the heuristic is exact.
        inst = MigrationInstance.from_moves(
            [("hot", "cold")] * (5 + seed), {"hot": 2, "cold": 1}
        )
        assert lb2(inst) == lb2_exact(inst) == math.ceil((5 + seed) / 1)


class TestLowerBound:
    def test_takes_max(self):
        inst = MigrationInstance.uniform(
            [("a", "b"), ("b", "c"), ("c", "a")], capacity=1
        )
        assert lower_bound(inst) == 3  # LB2 > LB1 here

    @pytest.mark.parametrize("seed", range(6))
    def test_lower_bound_sound_vs_exact_optimum(self, seed):
        inst = random_instance(5, 9, capacity_choices=(1, 2), seed=seed)
        assert lower_bound(inst) <= brute_force_rounds(inst)

    def test_empty_instance(self):
        from repro.graphs.multigraph import Multigraph

        inst = MigrationInstance(Multigraph(nodes=["a"]), {"a": 2})
        assert lower_bound(inst) == 0


class TestWitnesses:
    """Witness-producing bounds (consumed by repro.checks.certify)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_lb1_witness_proves_the_bound(self, seed):
        from repro.core.lower_bounds import lb1_witness

        inst = random_instance(8, 20, seed=seed)
        node, value = lb1_witness(inst)
        assert value == lb1(inst)
        assert node is not None
        assert inst.constrained_degree(node) == value

    def test_lb1_witness_empty_graph(self):
        from repro.core.lower_bounds import lb1_witness
        from repro.graphs.multigraph import Multigraph

        inst = MigrationInstance(Multigraph(nodes=["a"]), {"a": 1})
        assert lb1_witness(inst) == (None, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_lb2_witness_subset_reproduces_value(self, seed):
        from repro.core.lower_bounds import lb2_witness

        inst = random_instance(8, 20, capacity_choices=(1, 2, 3), seed=seed)
        subset, value = lb2_witness(inst)
        assert value == lb2(inst)
        if value > 0:
            assert subset_bound(inst, subset) == value
        else:
            assert subset == []

    @pytest.mark.parametrize("seed", range(10))
    def test_lb2_exact_witness_subset_reproduces_value(self, seed):
        from repro.core.lower_bounds import lb2_exact_witness

        inst = random_instance(7, 16, capacity_choices=(1, 2), seed=seed)
        subset, value = lb2_exact_witness(inst)
        assert value == lb2_exact(inst)
        if value > 0:
            assert subset_bound(inst, subset) == value

    @pytest.mark.parametrize("seed", range(10))
    def test_heuristic_witness_certifies_via_checks(self, seed):
        """Certificate round-trip: heuristic witnesses re-verify
        through the independent checker."""
        from repro.checks import make_certificate, verify_certificate

        inst = random_instance(8, 22, capacity_choices=(1, 2, 4), seed=seed)
        cert = make_certificate(inst, exact_small=False)  # force heuristic
        assert verify_certificate(inst, cert) == cert.bound
        assert cert.bound == max(lb1(inst), lb2(inst))

    @pytest.mark.parametrize("seed", range(15))
    def test_exhaustive_vs_heuristic_agreement(self, seed):
        """On small random multigraphs the heuristic family usually
        attains the exact Γ'; it must never exceed it, and both
        witnesses must independently certify."""
        from repro.checks import verify_certificate
        from repro.checks.certify import LB2Witness, LowerBoundCertificate, _subset_stats
        from repro.core.lower_bounds import lb2_exact_witness, lb2_witness

        inst = random_instance(6, 14, capacity_choices=(1, 2, 3), seed=seed)
        h_subset, h_value = lb2_witness(inst)
        e_subset, e_value = lb2_exact_witness(inst)
        assert h_value <= e_value
        for subset, value in ((h_subset, h_value), (e_subset, e_value)):
            if value == 0:
                continue
            internal, cap_sum = _subset_stats(inst, subset)
            witness = LB2Witness(
                nodes=tuple(sorted(subset, key=repr)),
                internal_edges=internal,
                capacity_sum=cap_sum,
                bound=value,
            )
            cert = LowerBoundCertificate(bound=value, lb1=None, lb2=witness, exact=False)
            assert verify_certificate(inst, cert) == value


class TestMemo:
    """Bounds are computed once per instance; a memo hit must behave
    exactly like a fresh call."""

    @staticmethod
    def fresh(instance):
        return MigrationInstance(instance.graph.copy(), instance.capacities)

    def test_node_limit_still_applies_after_a_hit(self):
        inst = random_instance(7, 16, capacity_choices=(1, 2), seed=3)
        lb2_exact(inst)
        with pytest.raises(ValueError, match="exponential"):
            lb2_exact(inst, max_nodes=inst.num_disks - 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_mutating_a_witness_leaves_the_next_call_intact(self, seed):
        from repro.core.lower_bounds import lb2_exact_witness, lb2_witness

        inst = random_instance(8, 22, capacity_choices=(1, 2, 3), seed=seed)
        for witness_of in (lb2_exact_witness, lb2_witness):
            subset, value = witness_of(inst)
            expected = list(subset)
            subset.append("intruder")
            subset.reverse()
            assert witness_of(inst) == (expected, value)
            assert witness_of(self.fresh(inst)) == (expected, value)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_lower_bound_variant_matches_a_fresh_instance(self, seed):
        inst = random_instance(9, 26, capacity_choices=(1, 2, 3), seed=seed)
        for exact_small in (True, False, True):
            assert lower_bound(inst, exact_small=exact_small) == lower_bound(
                self.fresh(inst), exact_small=exact_small
            )
        assert lower_bound(inst, exact_small=False) == max(lb1(inst), lb2(inst))
        assert lower_bound(inst) == max(lb1(inst), lb2_exact(inst))
