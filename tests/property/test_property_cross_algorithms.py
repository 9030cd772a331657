"""Cross-algorithm agreement properties (hypothesis).

When two independent optimal algorithms apply to the same instance,
they must agree on the round count — the strongest correctness check
available without an oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks.certify import verify_schedule
from repro.core.even_optimal import even_optimal_schedule_compact
from repro.core.lower_bounds import lower_bound
from repro.core.problem import MigrationInstance
from repro.core.special_cases import bipartite_optimal_schedule_compact
from repro.extensions.throttle import throttled_schedule
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import Multigraph

LEFT = [("L", i) for i in range(4)]
RIGHT = [("R", i) for i in range(4)]

bipartite_moves = st.lists(
    st.tuples(st.sampled_from(LEFT), st.sampled_from(RIGHT)),
    min_size=1,
    max_size=25,
)
even_caps = st.lists(st.sampled_from([2, 4, 6]), min_size=8, max_size=8)
any_caps = st.lists(st.integers(1, 5), min_size=8, max_size=8)


def bipartite_instance_from(moves, caps):
    graph = Multigraph(nodes=LEFT + RIGHT)
    for u, v in moves:
        graph.add_edge(u, v)
    return MigrationInstance(graph, dict(zip(LEFT + RIGHT, caps)))


class TestOptimalAlgorithmsAgree:
    @given(bipartite_moves, even_caps)
    @settings(deadline=None, max_examples=60)
    def test_even_and_koenig_agree_on_even_bipartite(self, moves, caps):
        """Two unrelated optimal algorithms, one answer."""
        inst = bipartite_instance_from(moves, caps)
        ci = lower_instance(inst)
        via_euler_flow = even_optimal_schedule_compact(ci)
        via_koenig = bipartite_optimal_schedule_compact(ci)
        assert via_euler_flow.num_rounds == via_koenig.num_rounds
        via_euler_flow.validate(inst)
        via_koenig.validate(inst)

    @given(bipartite_moves, any_caps)
    @settings(deadline=None, max_examples=60)
    def test_koenig_matches_certified_lower_bound(self, moves, caps):
        inst = bipartite_instance_from(moves, caps)
        sched = bipartite_optimal_schedule_compact(lower_instance(inst))
        # Optimality certificate: rounds == Δ' and Δ' <= LB <= OPT.
        assert verify_schedule(inst, sched.rounds) == inst.delta_prime()
        assert lower_bound(inst) <= sched.num_rounds


class TestThrottleProperties:
    @given(bipartite_moves, any_caps, st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    @settings(deadline=None, max_examples=40)
    def test_throttled_schedules_always_feasible(self, moves, caps, theta):
        inst = bipartite_instance_from(moves, caps)
        sched = throttled_schedule(inst, theta)
        sched.validate(inst)
        # Throttle can never beat the unthrottled optimum.
        optimum = bipartite_optimal_schedule_compact(lower_instance(inst))
        assert sched.num_rounds >= optimum.num_rounds
