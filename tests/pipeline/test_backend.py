"""The solve stage's kernels against their object reference.

The kernel methods register ``lowered=True`` and solve on the CSR
arrays; ``repro.checks.engine.reference_engine`` swaps their object
reference solvers in for one block, which must give the same bytes.
"""

import pytest

from repro.checks.engine import REFERENCES, reference_engine
from repro.pipeline import PlanCache, plan
from repro.pipeline.parallel import backend_solver
from repro.pipeline.registry import get_solver, solver_names
from repro.workloads.generators import (
    multi_component_instance,
    random_instance,
)


def lowered_methods():
    return {name for name in solver_names() if get_solver(name).lowered}


class TestBackendSolver:
    def test_array_and_object_agree(self):
        instance = random_instance(8, 40, seed=2)
        arr = backend_solver(get_solver("general"), instance)(0, None)
        with reference_engine():
            obj = backend_solver(get_solver("general"), instance)(0, None)
        assert obj.rounds == arr.rounds
        assert obj.method == arr.method


class TestPlanBackendAttribution:
    def test_plans_are_byte_identical(self):
        instance = multi_component_instance(3, seed=5)
        with reference_engine():
            obj = plan(instance)
        arr = plan(instance)
        assert obj.schedule.rounds == arr.schedule.rounds
        assert obj.schedule.method == arr.schedule.method

    def test_component_backend_fields(self):
        """Exactly the referenced methods run lowered; the swap covers
        all of them and is undone on exit, even by an exception."""
        assert lowered_methods() == set(REFERENCES)
        with pytest.raises(RuntimeError):
            with reference_engine():
                assert lowered_methods() == set()
                raise RuntimeError("leave the block")
        assert lowered_methods() == set(REFERENCES)

    def test_cache_is_backend_agnostic(self):
        """A reference solve is a cache hit for a kernel plan."""
        instance = multi_component_instance(2, seed=9)
        cache = PlanCache()
        with reference_engine():
            cold = plan(instance, cache=cache)
        warm = plan(instance, cache=cache)
        assert cold.schedule.rounds == warm.schedule.rounds
        assert warm.components_cached == len(warm.components)
