"""Property-based tests for the scheduling algorithms (hypothesis).

These pin the paper's invariants on arbitrary inputs:

* every scheduler's output validates against the instance;
* the even-capacity scheduler always achieves exactly ``Δ'`` rounds
  (Theorem 4.1);
* the general algorithm never exceeds ``LB + 2⌈√LB⌉ + 2`` rounds
  (Theorem 5.1's budget) on the tested universe;
* the lower bound never exceeds any scheduler's round count.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks.certify import verify_schedule
from repro.core.baselines import greedy_schedule, saia_schedule
from repro.core.even_optimal import even_optimal_schedule_compact
from repro.core.general import general_schedule_compact
from repro.core.lower_bounds import lb1, lower_bound
from repro.core.problem import MigrationInstance
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import Multigraph

NODES = list(range(6))

moves_strategy = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
        lambda t: t[0] != t[1]
    ),
    min_size=1,
    max_size=30,
)

caps_strategy = st.lists(st.integers(1, 5), min_size=6, max_size=6)
even_caps_strategy = st.lists(st.sampled_from([2, 4, 6]), min_size=6, max_size=6)


def solve_even(instance):
    return even_optimal_schedule_compact(lower_instance(instance))


def solve_general(instance):
    return general_schedule_compact(lower_instance(instance))


def instance_from(moves, caps):
    graph = Multigraph(nodes=NODES)
    for u, v in moves:
        graph.add_edge(u, v)
    return MigrationInstance(graph, dict(zip(NODES, caps)))


class TestEvenOptimalProperties:
    @given(moves_strategy, even_caps_strategy)
    @settings(deadline=None, max_examples=80)
    def test_always_exactly_delta_prime(self, moves, caps):
        inst = instance_from(moves, caps)
        sched = solve_even(inst)
        sched.validate(inst)
        assert sched.num_rounds == lb1(inst)


class TestGeneralProperties:
    @given(moves_strategy, caps_strategy)
    @settings(deadline=None, max_examples=80)
    def test_valid_and_within_theorem_budget(self, moves, caps):
        inst = instance_from(moves, caps)
        sched = solve_general(inst)
        sched.validate(inst)
        lb = lower_bound(inst)
        assert lb <= sched.num_rounds <= lb + 2 * math.isqrt(lb) + 2


class TestBaselineProperties:
    @given(moves_strategy, caps_strategy)
    @settings(deadline=None, max_examples=50)
    def test_saia_valid_and_bounded(self, moves, caps):
        inst = instance_from(moves, caps)
        sched = saia_schedule(inst)
        sched.validate(inst)
        assert sched.num_rounds <= max(1, 2 * lb1(inst) - 1)

    @given(moves_strategy, caps_strategy)
    @settings(deadline=None, max_examples=50)
    def test_greedy_valid_and_bounded(self, moves, caps):
        inst = instance_from(moves, caps)
        sched = greedy_schedule(inst)
        sched.validate(inst)
        assert sched.num_rounds <= max(1, 2 * lb1(inst) - 1)


class TestLowerBoundProperties:
    @given(moves_strategy, caps_strategy)
    @settings(deadline=None, max_examples=50)
    def test_lb_below_every_schedule(self, moves, caps):
        inst = instance_from(moves, caps)
        lb = lower_bound(inst)
        sched = solve_general(inst)
        assert lb <= verify_schedule(inst, sched.rounds)
        assert lb <= greedy_schedule(inst).num_rounds

    @given(moves_strategy, even_caps_strategy)
    @settings(deadline=None, max_examples=50)
    def test_even_case_certifies_lb_tight(self, moves, caps):
        # Theorem 4.1 corollary: with even capacities, LB == OPT == Δ'.
        inst = instance_from(moves, caps)
        assert lower_bound(inst) == solve_even(inst).num_rounds
