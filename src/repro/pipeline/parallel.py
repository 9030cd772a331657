"""Parallel component solving via ``ProcessPoolExecutor``.

Components are node-disjoint sub-instances, so they can be solved in
any order — including simultaneously — without coordination.  What
must *not* depend on scheduling luck is the output, so the backend is
built for determinism:

* every job carries its own pre-derived seed
  (:func:`repro.pipeline.canonical.derive_component_seed`), so worker
  processes never consult shared or ambient randomness;
* results return as edge ids in canonical order, the same lists on
  either backend, so a schedule is byte-identical whichever backend
  produced it;
* ``ProcessPoolExecutor.map`` preserves submission order, so the
  caller reassembles results by component index, never by completion
  order.

Workers re-import the solver registry (the job function is
module-level, as ``spawn``-based platforms require) and pay instance
pickling costs, so parallelism only wins when per-component solve time
dominates — the planner's ``parallel="auto"`` mode applies a
work-size threshold before spinning up a pool.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, cast

from repro.core.general import GeneralSolverStats
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import lower_instance
from repro.graphs.multigraph import EdgeId
from repro.pipeline.canonical import canonical_order, derive_restart_seed
from repro.pipeline.canonical import canonicalize_rounds  # noqa: F401  (perfbench)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.pipeline.registry import LoweredSolveFn, SolveFn, SolverSpec

#: One unit of work: (component instance, method name, seed).
SolveJob = Tuple[MigrationInstance, str, int]

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


def solve_job(job: SolveJob) -> SolveOutcome:
    """Solve one component and return its rounds in canonical order.

    Module-level (not a closure) so it pickles under every
    multiprocessing start method.  Also used verbatim by the serial
    path: one code path, two execution backends.

    Randomized non-optimal solvers (the general algorithm) whose first
    schedule exceeds the component's lower bound are restarted up to
    :data:`GENERAL_SOLVE_RESTARTS` times with deterministically derived
    seeds, keeping the shortest schedule; the first solve's private
    :class:`GeneralSolverStats` supplies the lower bound.

    The schedule is not validated here: the planner validates the
    merged schedule, which holds every component's, once before it
    caches or returns anything.
    """
    instance, method, seed = job
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


def solve_jobs(
    jobs: Sequence[SolveJob],
    max_workers: Optional[int] = None,
) -> List[SolveOutcome]:
    """Solve every job, in a process pool when it can possibly help.

    Args:
        jobs: the components to solve; results come back in the same
            order.
        max_workers: pool width; ``None`` lets the executor pick.
            A single job (or ``max_workers=1``) short-circuits to the
            serial path — no pool, no pickling.
    """
    if len(jobs) <= 1 or max_workers == 1:
        return [solve_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(solve_job, jobs))
