"""The staged planner: normalize → decompose → select → solve → merge → certify.

:func:`plan` is the pipeline's one entry point.  Beyond picking one
solver for the whole instance it adds:

* **per-component solver selection** — an even-capacity or bipartite
  component is promoted to its optimal algorithm even when the global
  instance is mixed-parity;
* **per-component restarts** — a randomized solver that lands above a
  component's lower bound is retried with derived seeds
  (:data:`repro.pipeline.parallel.GENERAL_SOLVE_RESTARTS`), which is
  affordable precisely because a restart re-solves one small component
  rather than the whole instance;
* **per-component lower bounds** — LB1/LB2 decompose exactly over
  components (see :mod:`repro.pipeline.stages`), and a ≤14-node
  component gets the *exhaustive* LB2 even inside an arbitrarily large
  instance;
* **plan caching** — replans that touch one component re-solve only
  that component (:mod:`repro.pipeline.cache`), keyed by the requested
  method, so an entry holds what ``plan(·, method, seed)`` returns.

Components the cache does not serve are solved one after another by
:func:`repro.pipeline.parallel.solve_job`, each with a seed derived
from its fingerprint, and merged in component order.

Determinism contract: ``plan(instance, method, seed)`` is a pure
function of its arguments — cache state and interruption history
change only *how much work* is done, never the bytes of the resulting
schedule.  Stage timings are diagnostics and exempt (they
are wall-clock measurements by nature).

A forced ``method=`` (anything but ``"auto"``) solves monolithically,
exactly like the legacy dispatcher: forcing a method means "run this
algorithm on this instance", and baselines keep their comparative
meaning.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import ScheduleValidationError
from repro.core.objectives import Objective, ensure_objective
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.obs import names
from repro.obs.trace import Tracer, ensure_tracer
from repro.pipeline.cache import CachedPlan, PlanCache
from repro.pipeline.canonical import (
    canonical_order,
    canonicalize_rounds,
    derive_component_seed,
    fingerprint,
    rehydrate_rounds,
)
from repro.pipeline.parallel import SolveOutcome, backend_solver, solve_job
from repro.pipeline.registry import SolverSpec, get_solver, select_solver
from repro.pipeline.stages import Component, decompose, merge, normalize

#: pipeline stages, in execution order (the timing dict's key set).
STAGES = ("normalize", "decompose", "select", "solve", "merge", "certify")


@dataclass(frozen=True)
class ComponentPlan:
    """Attribution record for one solved (or cache-served) component."""

    index: int
    num_disks: int
    num_items: int
    method: str
    rounds: int
    seed: int
    cached: bool
    fingerprint: Optional[str]


@dataclass
class PlanResult:
    """Everything :func:`plan` learned while producing the schedule."""

    schedule: MigrationSchedule
    requested_method: str
    components: List[ComponentPlan] = field(default_factory=list)
    stage_timings: Dict[str, float] = field(default_factory=dict)
    #: verified ``max(LB1, LB2)``; ``None`` unless ``certify=True``.
    lower_bound: Optional[int] = None
    #: the composed lower-bound certificate (``certify=True`` only).
    certificate: Optional[Any] = None
    certified_optimal: Optional[bool] = None
    #: the planned instance and base seed, kept so the result can act
    #: as the *prior* of an incremental replan
    #: (:func:`repro.pipeline.delta.plan_delta`).  Diagnostics-adjacent
    #: provenance, never serialized.
    instance: Optional[MigrationInstance] = None
    seed: int = 0
    #: the objective the plan optimized (``None`` means makespan).
    objective: Optional[Objective] = None
    #: objective value of the schedule under a non-makespan objective.
    objective_value: Optional[int] = None
    #: whole-instance :class:`repro.exact.OptimalityCertificate` when
    #: the plan was solved exactly (objective path, or a forced /
    #: certified ``exact_bb`` solve); verified before being attached.
    optimality: Optional[Any] = None
    #: ``(component index, certificate)`` pairs for auto-path
    #: components solved by ``exact_bb`` (``certify=True`` only).
    component_optimality: List[Tuple[int, Any]] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return self.schedule.num_rounds

    @property
    def components_solved(self) -> int:
        """Components that ran a solver this call (cache misses)."""
        return sum(1 for c in self.components if not c.cached)

    @property
    def components_cached(self) -> int:
        """Components served from the plan cache without solving."""
        return sum(1 for c in self.components if c.cached)

    def methods_used(self) -> Dict[str, int]:
        """``method -> component count`` attribution."""
        used: Dict[str, int] = {}
        for comp in self.components:
            used[comp.method] = used.get(comp.method, 0) + 1
        return used


@contextmanager
def _stage(tracer: Tracer, result: PlanResult, name: str) -> Iterator[None]:
    """Time one pipeline stage into ``stage_timings`` and wrap it in a
    ``pipeline.stage.<name>`` span."""
    with tracer.span(names.stage_span(name)):
        start = time.perf_counter()
        yield
        wall = time.perf_counter() - start
    result.stage_timings[name] = result.stage_timings.get(name, 0.0) + wall


class StoredPlanMismatchError(ScheduleValidationError):
    """A cached or stored plan does not fit its component: it names a
    pair slot the component lacks, or is not a valid schedule of it.
    The record is corrupt or was written for another instance."""


def _stored_plan_mismatch(
    method: str, fp: str, exc: ScheduleValidationError
) -> StoredPlanMismatchError:
    return StoredPlanMismatchError(
        f"the {method!r} plan stored for component {fp[:12]} does not fit it: {exc}"
    )


def _check_stored(
    instance: MigrationInstance, method: str, fp: str, outcome: SolveOutcome
) -> None:
    """Raise :class:`StoredPlanMismatchError` unless the cache-served
    ``outcome`` is a valid schedule of ``instance``.  Called only after
    a validation failed, to name the stored plan at fault."""
    try:
        MigrationSchedule(outcome[0], method=outcome[1]).validate(instance)
    except ScheduleValidationError as exc:
        raise _stored_plan_mismatch(method, fp, exc) from None


def _cache_lookup(
    cache: Optional[PlanCache], instance: MigrationInstance, method: str,
    seed: int, tracer: Tracer,
) -> Optional[SolveOutcome]:
    """The entry for ``plan(instance, method, seed)`` in edge ids, or
    ``None``; :class:`StoredPlanMismatchError` if it names a pair slot
    ``instance`` lacks (a corrupt or foreign stored plan).  Whether the
    entry is a valid schedule is left to the caller's validation."""
    fp = fingerprint(instance)
    if cache is None or fp is None:
        return None
    hit = cache.get_plan(fp, method, seed)
    if hit is None:
        tracer.count(names.PLAN_CACHE_MISSES)
        return None
    tracer.count(names.PLAN_CACHE_HITS)
    try:
        rounds = rehydrate_rounds(instance, hit.rounds)
    except ScheduleValidationError as exc:
        raise _stored_plan_mismatch(method, fp, exc) from None
    return rounds, hit.method


def _cache_write(
    cache: Optional[PlanCache], instance: MigrationInstance, method: str,
    seed: int, outcome: SolveOutcome,
) -> None:
    """Write a validated ``plan(instance, method, seed)`` outcome through
    ``cache`` in pair-token form; nothing without a cache or fingerprint."""
    fp = fingerprint(instance)
    if cache is not None and fp is not None:
        tokens = canonicalize_rounds(instance, outcome[0])
        cache.put_plan(fp, method, seed, CachedPlan(method=outcome[1], rounds=tokens))


def plan(
    instance: MigrationInstance,
    method: str = "auto",
    seed: int = 0,
    *,
    cache: Optional[PlanCache] = None,
    certify: bool = False,
    tracer: Optional[Tracer] = None,
    objective: Optional[Objective] = None,
) -> PlanResult:
    """Plan a migration through the staged pipeline.

    Args:
        instance: transfer graph + per-disk constraints.
        method: ``"auto"`` for decomposed per-component selection, or
            any registered solver name for a monolithic forced solve.
        objective: what to optimize.  ``None`` means the paper's
            makespan.  A non-makespan objective is
            solved monolithically by an exact solver that declared
            support for it — round indices are wall-clock time under
            these objectives, so the per-component decompose/merge and
            the plan cache (both keyed on makespan semantics) are
            bypassed, and ``seed`` has no effect on the output.
        seed: base randomness seed.  Component solves draw from seeds
            derived per component fingerprint, so unchanged components
            reproduce their schedules across replans.
        cache: optional :class:`PlanCache` consulted and populated per
            component under ``method`` (and per bound when certifying).
        certify: verify the schedule and compose a per-component
            lower-bound certificate (fills ``lower_bound``,
            ``certificate`` and ``certified_optimal``).  Off by
            default: exhaustive small-component LB2 is exponential
            work the hot planning path must not pay implicitly.
        tracer: optional :class:`repro.obs.Tracer`.  The call becomes
            a ``pipeline.plan`` span with one child span per stage and
            per component solve; cache hits/misses and component
            counts land in the tracer's metrics registry.  The default
            no-op tracer makes instrumentation free — and the output
            schedule never depends on the tracer either way.

    Returns:
        A :class:`PlanResult`; its schedule is already validated.

    Raises:
        ValueError: for an unknown method.
        StoredPlanMismatchError: if a ``cache`` entry (say, a tampered
            store record) does not fit its component.
    """
    timings: Dict[str, float] = {name: 0.0 for name in STAGES}
    result = PlanResult(
        schedule=MigrationSchedule([], method=method),
        requested_method=method,
        stage_timings=timings,
        instance=instance,
        seed=seed,
    )
    tr = ensure_tracer(tracer)
    obj = ensure_objective(objective)

    with tr.span(names.SPAN_PLAN, method=method, seed=seed) as root:
        with _stage(tr, result, "normalize"):
            normalize(instance)

        # The auto path's decomposition, reused by the certify stage.
        components: Optional[List[Component]] = None
        if obj.kind != "makespan":
            _plan_objective(instance, obj, method, result, tr)
        elif method != "auto":
            _plan_forced(instance, method, seed, cache, result, tr)
        else:
            components = _plan_components(instance, seed, cache, result, tr)

        with _stage(tr, result, "certify"):
            if certify:
                if obj.kind == "makespan":
                    _certify(instance, result, cache, components)
                else:
                    _certify_objective(instance, result)
        if result.objective is None:
            result.objective = obj
            result.objective_value = obj.value(instance, result.schedule.rounds)
        root.set(
            rounds=result.schedule.num_rounds,
            components=len(result.components),
        )
    return result


# ----------------------------------------------------------------------
# forced (monolithic) path
# ----------------------------------------------------------------------

def _plan_forced(
    instance: MigrationInstance,
    method: str,
    seed: int,
    cache: Optional[PlanCache],
    result: PlanResult,
    tracer: Tracer,
) -> None:
    spec = get_solver(method)
    with _stage(tracer, result, "solve"):
        fp = fingerprint(instance)
        outcome = _cache_lookup(cache, instance, spec.name, seed, tracer)
        cached = outcome is not None
        if outcome is None:
            with tracer.span(names.SPAN_SOLVE, method=spec.name, component=0):
                solved = backend_solver(spec, instance)(seed, None)
            rounds = solved.rounds
            if fp is not None:  # else never cached: the solver's order stands
                rounds = canonical_order(instance, rounds)
            outcome = (rounds, solved.method)
        schedule = MigrationSchedule(outcome[0], method=outcome[1])
        try:
            schedule.validate(instance)
        except ScheduleValidationError as exc:
            if cached and fp is not None:
                raise _stored_plan_mismatch(spec.name, fp, exc) from None
            raise
        if not cached:
            _cache_write(cache, instance, spec.name, seed, outcome)
    if cached:
        tracer.count(names.PLAN_COMPONENTS_CACHED)
    else:
        tracer.count(names.PLAN_COMPONENTS_SOLVED)
    result.schedule = schedule
    result.components = [
        ComponentPlan(
            index=0,
            num_disks=instance.num_disks,
            num_items=instance.num_items,
            method=schedule.method,
            rounds=schedule.num_rounds,
            seed=seed,
            cached=cached,
            fingerprint=fp,
        )
    ]


# ----------------------------------------------------------------------
# objective (monolithic exact) path
# ----------------------------------------------------------------------

def _plan_objective(
    instance: MigrationInstance,
    obj: Objective,
    method: str,
    result: PlanResult,
    tracer: Tracer,
) -> None:
    """Solve a round-indexed objective to proven optimality.

    Round indices are wall-clock time under these objectives, so the
    makespan machinery — per-component decompose/merge, the plan cache,
    restarts — does not apply; the instance is solved monolithically by
    a solver that declared support for the objective kind (today that
    is ``exact_bb``, so the solve is seed-free and deterministic).
    :func:`repro.exact.search.solve_exact` validates the schedule it
    returns, which is this path's one validation.
    """
    from repro.exact.search import solve_exact

    with _stage(tracer, result, "select"):
        if method == "auto":
            spec = select_solver(instance, objective_kind=obj.kind)
        else:
            spec = get_solver(method)
            if not spec.supports_objective(obj.kind):
                raise ValueError(
                    f"method {method!r} cannot optimize objective {obj.kind!r}; "
                    f"it declares {spec.objectives}"
                )

    with _stage(tracer, result, "solve"):
        with tracer.span(names.SPAN_SOLVE, method=spec.name, component=0):
            res = solve_exact(instance, obj)

    result.schedule = res.schedule
    result.objective = obj
    result.objective_value = res.value
    result.optimality = res.certificate
    result.components = [
        ComponentPlan(
            index=0,
            num_disks=instance.num_disks,
            num_items=instance.num_items,
            method=res.schedule.method,
            rounds=res.schedule.num_rounds,
            seed=0,
            cached=False,
            fingerprint=None,
        )
    ]


def _certify_objective(instance: MigrationInstance, result: PlanResult) -> None:
    """Certify stage for the objective path: verify the optimality
    certificate the solve attached (lazy import, like :func:`_certify`)."""
    from repro.checks.certify import verify_optimality_certificate

    assert result.objective is not None and result.optimality is not None
    verify_optimality_certificate(
        instance, result.objective, result.schedule, result.optimality
    )
    result.lower_bound = result.optimality.lower_bound
    result.certified_optimal = True


# ----------------------------------------------------------------------
# auto (decomposed) path
# ----------------------------------------------------------------------

#: A per-component step that runs before any solve: the component's
#: outcome without a solve, or ``None`` to solve it.
ReuseStep = Callable[[Component], Optional[SolveOutcome]]


def _plan_components(
    instance: MigrationInstance,
    seed: int,
    cache: Optional[PlanCache],
    result: PlanResult,
    tracer: Tracer,
    reuse: Optional[ReuseStep] = None,
    solve_stage: str = "solve",
) -> List[Component]:
    """Plan component by component; returns ``decompose(instance)``.

    Each component is looked up in ``cache`` under ``"auto"``; a miss
    goes to ``reuse`` (the delta planner's step) and then, if still
    unplanned, to its solver.  Every outcome is edge ids in canonical
    order.  The merged schedule is validated against ``instance``
    once; only then is every outcome not served by the cache written
    through.  Only if that validation fails is each cache-served
    component validated against its own instance, to name a stored
    plan at fault.  The merged schedule and per-component attribution
    land in ``result``.  ``solve_stage`` names the stage that times the
    lookup, reuse and solve.

    Raises:
        StoredPlanMismatchError: if a cache entry does not fit its
            component.
        ScheduleValidationError: if the merged schedule is otherwise
            invalid.  Either way, nothing has been written through.
    """
    with _stage(tracer, result, "decompose"):
        components = decompose(instance)

    if not components:
        # Nothing to move; resolve exactly like the legacy dispatcher
        # (an empty instance is trivially all-even).
        spec = select_solver(instance)
        result.schedule = backend_solver(spec, instance)(seed, None)
        result.schedule.validate(instance)
        return components

    with _stage(tracer, result, "select"):
        selections: List[SolverSpec] = [
            select_solver(comp.instance) for comp in components
        ]

    with _stage(tracer, result, solve_stage):
        seeds = [
            derive_component_seed(seed, comp.fingerprint)
            if comp.fingerprint is not None
            else seed
            for comp in components
        ]
        outcomes: List[Optional[SolveOutcome]] = [None] * len(components)
        cached_flags = [False] * len(components)
        for k, comp in enumerate(components):
            outcomes[k] = _cache_lookup(cache, comp.instance, "auto", seed, tracer)
            cached_flags[k] = outcomes[k] is not None
            if not cached_flags[k] and reuse is not None:
                outcomes[k] = reuse(comp)

        miss_indices = [k for k, out in enumerate(outcomes) if out is None]
        for k in miss_indices:
            method = selections[k].name
            with tracer.span(names.SPAN_SOLVE, method=method, component=k):
                outcomes[k] = solve_job(components[k].instance, method, seeds[k])
        planned = [out for out in outcomes if out is not None]
        assert len(planned) == len(components)  # every index is filled above
        if miss_indices:
            tracer.count(names.PLAN_COMPONENTS_SOLVED, len(miss_indices))
        if any(cached_flags):
            tracer.count(names.PLAN_COMPONENTS_CACHED, sum(cached_flags))

    with _stage(tracer, result, "merge"):
        result.schedule = merge(
            instance,
            [rounds for rounds, _method in planned],
            [method for _rounds, method in planned],
        )
        # Every component schedule, whatever its source, is part of the
        # merged one, so this one validation covers them all before any
        # is written through.
        try:
            result.schedule.validate(instance)
        except ScheduleValidationError:
            for k, comp in enumerate(components):
                if cached_flags[k] and comp.fingerprint is not None:
                    _check_stored(comp.instance, "auto", comp.fingerprint, planned[k])
            raise
        for k, comp in enumerate(components):
            if not cached_flags[k]:
                _cache_write(cache, comp.instance, "auto", seed, planned[k])

    result.components = [
        ComponentPlan(
            index=comp.index,
            num_disks=comp.num_disks,
            num_items=comp.num_items,
            method=method,
            rounds=len(rounds),
            seed=seeds[k],
            cached=cached_flags[k],
            fingerprint=comp.fingerprint,
        )
        for k, (comp, (rounds, method)) in enumerate(zip(components, planned))
    ]
    return components


# ----------------------------------------------------------------------
# certify stage
# ----------------------------------------------------------------------

def _certify(
    instance: MigrationInstance,
    result: PlanResult,
    cache: Optional[PlanCache],
    components: Optional[List[Component]] = None,
) -> None:
    """Compose a per-component lower-bound certificate and verify it.

    Imported lazily: :mod:`repro.checks` sits outside the dependency
    stack (its typegate imports the top-level package), so a static
    import here would be circular during interpreter start-up.

    ``components`` lets a caller that already decomposed the instance
    (the auto path of :func:`plan`, the delta planner) skip the
    redundant re-decomposition; when provided it must be exactly
    ``decompose(instance)``.
    """
    from repro.checks.certify import (
        LowerBoundCertificate,
        certificate_from_json,
        certificate_to_json,
        certify as checks_certify,
        make_certificate,
    )

    if components is None:
        components = decompose(instance)
    certs: List[LowerBoundCertificate] = []
    for comp in components:
        payload = (
            cache.get_bound(comp.fingerprint)
            if cache is not None and comp.fingerprint is not None
            else None
        )
        if payload is None:
            cert = make_certificate(comp.instance)
            if cache is not None and comp.fingerprint is not None:
                cache.put_bound(comp.fingerprint, certificate_to_json(cert))
        else:
            cert = certificate_from_json(payload, comp.instance)
        certs.append(cert)

    lb1_candidates = [c.lb1 for c in certs if c.lb1 is not None]
    lb2_candidates = [c.lb2 for c in certs if c.lb2 is not None]
    best_lb1 = max(lb1_candidates, key=lambda w: w.bound, default=None)
    best_lb2 = max(lb2_candidates, key=lambda w: w.bound, default=None)
    bound = max(
        best_lb1.bound if best_lb1 is not None else 0,
        best_lb2.bound if best_lb2 is not None else 0,
    )
    composed = LowerBoundCertificate(
        bound=bound,
        lb1=best_lb1,
        lb2=best_lb2,
        exact=all(c.exact for c in certs) if certs else True,
    )
    report = checks_certify(instance, result.schedule, certificate=composed)
    result.lower_bound = report.lower_bound
    result.certificate = composed
    result.certified_optimal = report.certified_optimal
    _attach_optimality(instance, result, components)


def _attach_optimality(
    instance: MigrationInstance,
    result: PlanResult,
    components: List[Component],
) -> None:
    """Attach verified optimality certificates for ``exact_bb`` solves.

    The optimum comes from :func:`repro.exact.search.makespan_optimum`,
    which keeps the search ``exact_bb`` ran on the instance: a
    component solved in this call is not searched again.  A component
    served from the plan cache holds no search (``decompose`` builds
    fresh instances), so it is solved now — affordable by construction,
    as ``exact_bb`` caps at 16 items per component — and the
    attachment is a tamper check: a cached schedule whose round count
    disagrees with the proven optimum is rejected, not trusted.
    A schedule whose components are *all* proven optimal is itself
    optimal — components are edge-disjoint, so the merged makespan is
    the max of the per-component optima — which can certify optimality
    even when the round count sits strictly above ``max(LB1, LB2)``.
    """
    from repro.checks.certify import CertificationError, verify_optimality_certificate
    from repro.exact.search import EXACT_BB_METHOD, makespan_optimum

    if result.requested_method == "auto":
        by_index = {comp.index: comp for comp in components}
        for cp in result.components:
            if cp.method != EXACT_BB_METHOD:
                continue
            comp = by_index.get(cp.index)
            if comp is None:
                continue
            res = makespan_optimum(comp.instance)
            verify_optimality_certificate(
                comp.instance, res.objective, res.schedule, res.certificate
            )
            if res.value != cp.rounds:
                raise CertificationError(
                    f"component {cp.index} schedules {cp.rounds} rounds but "
                    f"the re-proven optimum is {res.value}"
                )
            result.component_optimality.append((cp.index, res.certificate))
        if components and len(result.component_optimality) == len(components):
            result.certified_optimal = True
    elif result.components and result.components[0].method == EXACT_BB_METHOD:
        res = makespan_optimum(instance)
        verify_optimality_certificate(
            instance, res.objective, res.schedule, res.certificate
        )
        if res.value != result.schedule.num_rounds:
            raise CertificationError(
                f"schedule has {result.schedule.num_rounds} rounds but the "
                f"re-proven optimum is {res.value}"
            )
        result.optimality = res.certificate
        result.certified_optimal = True
