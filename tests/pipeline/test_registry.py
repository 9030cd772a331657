"""Tests for the solver registry and the select stage."""

import pytest

from repro.core.problem import MigrationInstance
from repro.pipeline.registry import (
    _REGISTRY,
    get_solver,
    register_solver,
    select_solver,
    solver_names,
)

from tests.conftest import even_instance, random_instance


class TestCatalog:
    def test_registration_order_matches_legacy_methods(self):
        assert ("auto",) + solver_names() == (
            "auto",
            "even_optimal",
            "bipartite_optimal",
            "general",
            "saia",
            "homogeneous",
            "greedy",
            "even_rounding",
            "exact_bb",
        )

    def test_get_solver_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            get_solver("bogus")

    def test_get_solver_returns_spec(self):
        spec = get_solver("general")
        assert spec.name == "general"
        assert spec.auto

    def test_baselines_are_not_auto(self):
        for name in ("saia", "homogeneous", "greedy", "even_rounding"):
            assert not get_solver(name).auto

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_solver("general")

    def test_exactly_the_kernels_run_lowered(self):
        lowered = {name for name in solver_names() if get_solver(name).lowered}
        assert lowered == {"even_optimal", "bipartite_optimal", "general"}


class TestSelection:
    def test_even_instance_selects_even_optimal(self):
        assert select_solver(even_instance(8, 20, seed=3)).name == "even_optimal"

    def test_bipartite_instance_selects_bipartite_optimal(self):
        inst = MigrationInstance.from_moves(
            [("old0", "new0"), ("old0", "new1"), ("old1", "new0")],
            {"old0": 1, "old1": 1, "new0": 3, "new1": 3},
        )
        assert select_solver(inst).name == "bipartite_optimal"

    def test_tiny_mixed_instance_selects_exact(self):
        # Small enough for the branch-and-bound caps, so auto now takes
        # the provably-optimal path instead of the general heuristic.
        inst = MigrationInstance.from_moves(
            [("a", "b"), ("b", "c"), ("c", "a")],
            {"a": 1, "b": 2, "c": 3},
        )
        assert select_solver(inst).name == "exact_bb"

    def test_mixed_instance_selects_general(self):
        inst = random_instance(9, 30, seed=3)
        assert select_solver(inst).name == "general"

    def test_all_even_beats_bipartite_when_both_apply(self):
        # Legacy dispatch checked all_even first; cost hints reproduce it.
        inst = MigrationInstance.from_moves(
            [("old0", "new0")], {"old0": 2, "new0": 2}
        )
        assert select_solver(inst).name == "even_optimal"


class TestExtensibility:
    def test_registered_solver_is_selectable_and_dispatchable(self):
        from repro.core.baselines import greedy_schedule

        try:

            @register_solver(
                "test_custom",
                applicable=lambda inst: inst.num_items >= 1,
                cost_hint=1,  # beats every built-in
                auto=True,
            )
            def _custom(instance, seed, stats):
                return greedy_schedule(instance)

            inst = random_instance(6, 12, seed=0)
            assert select_solver(inst).name == "test_custom"
            assert get_solver("test_custom").solve is _custom
            assert "test_custom" in solver_names()
        finally:
            _REGISTRY.pop("test_custom", None)
