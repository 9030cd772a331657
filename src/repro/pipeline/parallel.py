"""One component solve, with one baseline fallback.

:func:`solve_job` solves one component of a decomposed instance and
returns its rounds as edge ids in canonical order.  The planner's
component loop calls it, one component after another, for every
component the plan cache does not serve.  Each call carries its own
pre-derived seed (:func:`repro.pipeline.canonical.derive_component_seed`),
so a component's schedule depends only on the component, the method
and the seed, never on which other components share the instance.

The module is named for the process pool it once also held.  The name
stays because ``perfbench/layers.py`` patches ``backend_solver``,
``lower_instance`` and ``canonicalize_rounds`` by this module path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, cast

from repro.core.general import GeneralSolverStats
from repro.core.lower_bounds import lower_bound
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import EdgeId
from repro.pipeline.canonical import canonical_order
from repro.pipeline.canonical import canonicalize_rounds  # noqa: F401  (perfbench)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.pipeline.registry import LoweredSolveFn, SolveFn, SolverSpec

#: One result: (edge-id rounds in canonical order, the solver's method label).
SolveOutcome = Tuple[List[List[EdgeId]], str]

#: Solves a component once more when a non-optimal solver lands above
#: its lower bound.  Where ``general`` misses the bound (unit-capacity
#: odd cycles), Saia's Euler split, the paper's Section I baseline,
#: reaches it; ``homogeneous`` never did better, so there is no second.
FALLBACK_SOLVER = "saia"


def backend_solver(
    spec: "SolverSpec",
    instance: MigrationInstance,
) -> Callable[[int, Optional[GeneralSolverStats]], MigrationSchedule]:
    """Bind ``spec`` to ``instance``.

    A ``lowered`` solver gets the component lowered onto the CSR
    representation once, when bound.  The returned callable has the
    ``(seed, stats)`` solver signature.
    """
    if spec.lowered:
        solve_lowered = cast("LoweredSolveFn", spec.solve)
        lowered = lower_instance(instance)

        def solve_array(
            seed: int, stats: Optional[GeneralSolverStats]
        ) -> MigrationSchedule:
            return solve_lowered(lowered, seed, stats)

        return solve_array

    solve_instance = cast("SolveFn", spec.solve)

    def solve_object(
        seed: int, stats: Optional[GeneralSolverStats]
    ) -> MigrationSchedule:
        return solve_instance(instance, seed, stats)

    return solve_object


def solve_job(instance: MigrationInstance, method: str, seed: int) -> SolveOutcome:
    """Solve one component with ``method`` and return its rounds in
    canonical order.

    When ``method`` is not proven optimal (the general algorithm) and
    its schedule exceeds the component's lower bound, the component is
    solved once more with :data:`FALLBACK_SOLVER`, whose schedule (and
    method label) is kept only if it is strictly shorter.  The bound is
    :func:`repro.core.lower_bounds.lower_bound`, which the general
    solver has already memoized on ``instance``, so no LB2 runs twice.

    The schedule is not validated here: the planner validates the
    merged schedule, which holds every component's, once before it
    caches or returns anything.
    """
    from repro.pipeline.registry import get_solver

    spec = get_solver(method)
    schedule = backend_solver(spec, instance)(seed, None)
    if not spec.optimal and schedule.num_rounds > lower_bound(instance):
        alt = backend_solver(get_solver(FALLBACK_SOLVER), instance)(seed, None)
        if alt.num_rounds < schedule.num_rounds:
            schedule = alt
    return canonical_order(instance, schedule.rounds), schedule.method
