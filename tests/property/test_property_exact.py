"""Property-based tests for repro.exact and the objectives layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objectives import (
    BoundedColorObjective,
    GroupCompletionObjective,
    ObjectiveError,
    objective_from_json,
)
from repro.core.problem import MigrationInstance
from repro.exact.search import solve_exact
from tests.brute_force import brute_force_rounds

# Small multigraphs: up to 6 edges over up to 5 nodes, unit-to-3 caps.
small_instances = st.builds(
    lambda edges, caps: MigrationInstance.from_moves(
        [(f"d{u}", f"d{v}") for u, v in edges],
        {f"d{i}": caps[i] for i in range(5)},
    ),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
            lambda t: t[0] != t[1]
        ),
        min_size=1,
        max_size=6,
    ),
    st.tuples(*[st.integers(1, 3)] * 5),
)


class TestExactMatchesBruteForce:
    @given(small_instances)
    @settings(max_examples=60, deadline=None)
    def test_branch_and_bound_equals_brute_force(self, inst):
        res = solve_exact(inst)
        assert res.value == brute_force_rounds(inst)
        res.schedule.validate(inst)
        assert res.value >= res.lower_bound


allowed_maps = st.dictionaries(
    st.integers(0, 9),
    st.frozensets(st.integers(0, 7), min_size=1, max_size=4),
    min_size=1,
    max_size=8,
)


class TestBoundedColorProperties:
    @given(allowed_maps)
    def test_json_round_trip(self, allowed):
        objective = BoundedColorObjective(allowed)
        restored = objective_from_json(objective.to_json())
        assert restored == objective
        assert restored.digest() == objective.digest()

    @given(st.integers(0, 9))
    def test_empty_allowed_set_rejected(self, eid):
        try:
            BoundedColorObjective({eid: frozenset()})
        except ObjectiveError:
            return
        raise AssertionError("empty allowed set must be rejected")


group_assignments = st.lists(
    st.sampled_from(["a", "b", "c"]), min_size=1, max_size=8
)


class TestGroupCompletionProperties:
    @given(
        group_assignments,
        st.permutations(range(8)),
        st.tuples(*[st.integers(1, 9)] * 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_invariant_under_edge_relabeling(self, names, perm, weights):
        """Permuting *which* edge ids carry which group must not change
        the objective value as long as the schedule permutes with them."""
        inst = MigrationInstance.from_moves(
            [("x", "y")] * len(names), {"x": 1, "y": 1}
        )
        weight_map = {
            g: w
            for g, w in zip(("a", "b", "c"), weights)
            if g in set(names)
        }
        base = GroupCompletionObjective(
            {eid: names[eid] for eid in range(len(names))}, weight_map
        )
        ids = [perm[i] for i in range(len(names))]
        relabeled = GroupCompletionObjective(
            {ids[eid]: names[eid] for eid in range(len(names))}, weight_map
        )
        rounds = [[eid] for eid in range(len(names))]
        permuted_rounds = [[ids[eid]] for eid in range(len(names))]
        assert base.value(inst, rounds) == relabeled.value(
            inst, permuted_rounds
        )

    @given(group_assignments, st.tuples(*[st.integers(1, 9)] * 3))
    def test_round_trip(self, names, weights):
        weight_map = {
            g: w
            for g, w in zip(("a", "b", "c"), weights)
            if g in set(names)
        }
        objective = GroupCompletionObjective(
            {eid: names[eid] for eid in range(len(names))}, weight_map
        )
        restored = objective_from_json(objective.to_json())
        assert restored == objective
