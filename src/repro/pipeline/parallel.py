"""One component solve, with restarts.

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
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import EdgeId
from repro.pipeline.canonical import canonical_order, derive_restart_seed
from repro.pipeline.canonical import canonicalize_rounds  # noqa: F401  (perfbench)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.pipeline.registry import LoweredSolveFn, SolveFn, SolverSpec

#: One result: (edge-id rounds in canonical order, the solver's method label).
SolveOutcome = Tuple[List[List[EdgeId]], str]

#: Extra seeds tried when a randomized solver lands above a component's
#: lower bound.  Affordable precisely *because* of decomposition: a
#: restart re-solves one component, not the whole instance — the
#: monolithic path cannot buy round-count luck this cheaply.
GENERAL_SOLVE_RESTARTS = 5


def backend_solver(
    spec: "SolverSpec",
    instance: MigrationInstance,
) -> Callable[[int, Optional[GeneralSolverStats]], MigrationSchedule]:
    """Bind ``spec`` to ``instance``.

    A ``lowered`` solver gets the component lowered onto the CSR
    representation exactly once — restart attempts reuse the lowered
    arrays.  The returned callable has the ``(seed, stats)`` solver
    signature.
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

    Randomized non-optimal solvers (the general algorithm) whose first
    schedule exceeds the component's lower bound are restarted up to
    :data:`GENERAL_SOLVE_RESTARTS` times with deterministically derived
    seeds, keeping the shortest schedule; the first solve's private
    :class:`GeneralSolverStats` supplies the lower bound.

    The schedule is not validated here: the planner validates the
    merged schedule, which holds every component's, once before it
    caches or returns anything.
    """
    from repro.pipeline.registry import get_solver

    spec = get_solver(method)
    solve = backend_solver(spec, instance)
    run_stats = GeneralSolverStats() if spec.randomized and not spec.optimal else None
    schedule = solve(seed, run_stats)
    if run_stats is not None:
        for attempt in range(1, GENERAL_SOLVE_RESTARTS + 1):
            if schedule.num_rounds <= run_stats.lower_bound:
                break
            alt = solve(derive_restart_seed(seed, attempt), None)
            if alt.num_rounds < schedule.num_rounds:
                schedule = alt
    return canonical_order(instance, schedule.rounds), schedule.method
