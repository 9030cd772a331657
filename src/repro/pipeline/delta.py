"""Incremental replanning: patch a prior plan instead of re-solving.

:func:`plan_delta` is the streaming counterpart of
:func:`repro.pipeline.planner.plan`.  Given the :class:`PlanResult` of
a previous ``plan(instance, "auto", seed)`` call and an
:class:`repro.core.delta.InstanceDelta`, it produces a plan for the
patched instance by triaging every component of the patched transfer
graph into one of three **dispositions**:

* ``reused`` — the component's fingerprint matches a prior component
  (or a live plan-cache entry): the prior coloring transfers wholesale,
  each edge taking the prior color of its pair slot, zero solver work;
* ``patched`` — some of the component's edges survive from the prior
  instance: a :class:`repro.core.recolor.ArrayColoringState` is
  warm-started from the surviving colors
  (:meth:`~repro.core.recolor.ArrayColoringState.preload`) and only the
  new / displaced edges are driven through
  :meth:`~repro.core.recolor.ArrayColoringState.try_color_edge` —
  ab-path recoloring, the paper's own repair machinery — growing the
  palette at most to the Theorem 5.1 yardstick
  ``Δ' + 2·⌈√Δ'⌉ + 2``;
* ``resolved`` — the patch would exceed that degree bound (or no edge
  survived, or the component cannot be tokenized): fall back to the
  exact per-component solve path of ``plan()``, byte-identical to a
  cold solve by construction (fingerprint-derived seeds).

The triage is the reuse step of ``plan()``'s own component loop
(:func:`repro.pipeline.planner._plan_components`), which runs it for
each cache miss before any solve, and every outcome is edge ids in
canonical order, like a solve's.  Every outcome is written through
the :class:`PlanCache` under the same ``(fingerprint, "auto", seed)``
key ``plan()`` uses, so
``plan(patched, "auto", prior.seed, cache=shared)`` after a
``plan_delta(..., cache=shared)`` serves the identical bytes — the
"fingerprint-consistent with the PlanCache" contract the property
suite (``tests/property/test_property_delta.py``) proves.  Like every
other component, a patched one is validated as part of the merged
schedule before anything is written through; it is also certified by
the independent lower-bound certifier and bound to its inputs by a
:class:`repro.checks.certify.PatchCertificate`.

Determinism contract: ``plan_delta(prior, delta)`` is a pure function
of ``(prior instance, prior schedule bytes, prior seed, delta)`` —
cache state changes only how much work is done, never the output
bytes.  The patch path lowers its component once and colors on the
same CSR state as the Theorem 5.1 kernel; fallback re-solves run the
same registered solvers as ``plan()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.delta import InstanceDelta, apply_delta
from repro.core.problem import MigrationInstance
from repro.core.recolor import ArrayColoringState
from repro.core.schedule import MigrationSchedule
from repro.graphs.array_backend import lift_coloring, lower_instance
from repro.graphs.multigraph import EdgeId
from repro.obs import names
from repro.obs.trace import Tracer, ensure_tracer
from repro.pipeline.cache import PlanCache
from repro.pipeline.canonical import (
    PairToken,
    _pair_slots,
    canonical_order,
    derive_patch_seed,
    reprs_unambiguous,
)
from repro.pipeline.parallel import SolveOutcome
from repro.pipeline.planner import PlanResult, _certify, _plan_components, _stage
from repro.pipeline.stages import Component

# Not called here: perfbench/layers.py wraps each as an attribute of
# this module, so each must stay importable from it.
from repro.pipeline.canonical import canonicalize_rounds  # noqa: F401  (perfbench)
from repro.pipeline.canonical import rehydrate_rounds  # noqa: F401  (perfbench)
from repro.pipeline.parallel import solve_job  # noqa: F401  (perfbench)
from repro.pipeline.registry import select_solver  # noqa: F401  (perfbench)
from repro.pipeline.stages import decompose, merge  # noqa: F401  (perfbench)

#: delta-pipeline stages, in execution order (timing dict's key set).
DELTA_STAGES = ("apply", "decompose", "select", "patch", "merge", "certify")

#: component dispositions, in decreasing order of luck.
DISPOSITION_REUSED = "reused"
DISPOSITION_PATCHED = "patched"
DISPOSITION_RESOLVED = "resolved"

#: method label patched components carry in schedules and cache entries.
PATCH_METHOD = "patch"


@dataclass
class DeltaPlanResult(PlanResult):
    """A :class:`PlanResult` plus the patch attribution of the replan."""

    #: the delta this result absorbed.
    delta: Optional[InstanceDelta] = None
    #: per-component disposition, parallel to ``components``.
    dispositions: Tuple[str, ...] = ()
    #: edges actually recolored by patching (new + displaced).
    patched_edges: int = 0
    #: patched components that hit the degree bound and re-solved.
    fallbacks: int = 0
    #: :class:`repro.checks.certify.PatchCertificate` binding the
    #: replan to its inputs (always present).
    patch_certificate: Optional[Any] = None

    @property
    def components_reused(self) -> int:
        return sum(1 for d in self.dispositions if d == DISPOSITION_REUSED)

    @property
    def components_patched(self) -> int:
        return sum(1 for d in self.dispositions if d == DISPOSITION_PATCHED)

    @property
    def components_resolved(self) -> int:
        return sum(1 for d in self.dispositions if d == DISPOSITION_RESOLVED)


def _patch_component(
    instance: MigrationInstance,
    survivors: Dict[EdgeId, int],
    seed: int,
) -> Tuple[Optional[SolveOutcome], int]:
    """Repair one component's coloring around its surviving edges.

    Lowers ``instance`` and warm-starts an :class:`ArrayColoringState`
    from ``survivors`` (prior colors, keyed by edge id, of the edges
    that outlived the delta), then colors the rest — preload rejects
    plus genuinely new edges — in ascending edge-id order via ab-path
    flips, adding colors only when flips fail and never past
    ``max(q₀, Δ' + 2·⌈√Δ'⌉ + 2)``.

    Returns ``((rounds in canonical order, "patch"), recolored edges)``
    on success, ``(None, 0)`` when the degree bound would be exceeded
    (the caller falls back to a full re-solve).  That is known before
    any flip when a lower bound on every schedule's length exceeds the
    bound: ``Δ'`` or the LB2 term of the whole component,
    ``⌈m / ⌊Σ c_v / 2⌋⌉``.
    """
    ci = lower_instance(instance)
    dp = ci.delta_prime()
    q0 = max(max(survivors.values()) + 1, dp, 1)
    bound = max(q0, dp + 2 * math.isqrt(dp) + 2)
    slots = sum(ci.capacities) // 2
    if slots and max(dp, -(-ci.graph.num_edges // slots)) > bound:
        return None, 0
    state = ArrayColoringState(ci.graph, ci.capacities, q0, seed=seed)
    state.preload(survivors)
    todo = state.uncolored_in_id_order()
    for e in todo:
        while not state.try_color_edge(e):
            if state.q >= bound:
                return None, 0
            # A fresh color is missing at both endpoints, so the next
            # try_color_edge always succeeds: ≤ 1 growth per edge.
            state.add_color()
    schedule = MigrationSchedule.from_coloring(
        lift_coloring(ci.graph, state.color), method=PATCH_METHOD
    )
    return (canonical_order(instance, schedule.rounds), PATCH_METHOD), len(todo)


def plan_delta(
    prior: PlanResult,
    delta: InstanceDelta,
    *,
    cache: Optional[PlanCache] = None,
    certify: bool = True,
    tracer: Optional[Tracer] = None,
) -> DeltaPlanResult:
    """Replan after a delta, reusing as much of ``prior`` as possible.

    Args:
        prior: result of ``plan(instance, "auto", seed)`` (or of an
            earlier ``plan_delta`` — replans chain).  Must carry its
            instance and have been an ``"auto"`` plan; a forced-method
            prior has no per-component structure to patch.
        delta: the instance edit to absorb.
        cache: optional :class:`PlanCache`.  Consulted per component
            exactly like ``plan()`` and **written through** for every
            disposition, so a later ``plan(patched, cache=...)`` —
            or the next ``plan_delta`` in the chain — reuses this
            result byte-for-byte.
        certify: verify the schedule and compose the per-component
            lower-bound certificate (on by default here, unlike
            ``plan()``: a patched schedule's trustworthiness *is* its
            certificate).  The patch certificate is produced
            regardless.
        tracer: optional tracer; the call becomes a
            ``pipeline.plan_delta`` span with per-stage children and
            disposition counters.

    Returns:
        A :class:`DeltaPlanResult`; its schedule is validated against
        the patched instance, which is available as ``result.instance``
        for the next link of the chain.

    Raises:
        ValueError: when ``prior`` cannot anchor an incremental replan.
        DeltaError: when the delta does not apply to the prior instance.
    """
    if prior.requested_method != "auto":
        raise ValueError(
            f"plan_delta needs an 'auto' prior; got method "
            f"{prior.requested_method!r} (forced solves have no "
            f"per-component structure to patch)"
        )
    if prior.instance is None:
        raise ValueError(
            "prior carries no instance (PlanResult.instance is None); "
            "only results produced by repro.plan / repro.plan_delta can "
            "anchor an incremental replan"
        )
    seed = prior.seed
    tr = ensure_tracer(tracer)
    result = DeltaPlanResult(
        schedule=MigrationSchedule([], method="auto"),
        requested_method="auto",
        stage_timings={name: 0.0 for name in DELTA_STAGES},
        seed=seed,
        delta=delta,
    )

    with tr.span(names.SPAN_PLAN_DELTA, changes=delta.num_changes, seed=seed) as root:
        with _stage(tr, result, "apply"):
            patched = apply_delta(prior.instance, delta)
            result.instance = patched
            # Token transfer is only safe when reprs are globally
            # unambiguous on BOTH sides; otherwise prior colors could
            # bleed between look-alike components.  (Same rule that
            # makes plan() skip caching such instances.)
            tokens_safe = reprs_unambiguous(prior.instance) and reprs_unambiguous(
                patched
            )
            prior_token_color: Dict[PairToken, int] = {}
            if tokens_safe:
                slot_of = _pair_slots(prior.instance)
                for eid, color in prior.schedule.as_coloring().items():
                    prior_token_color[slot_of[eid]] = color
            prior_method: Dict[str, str] = {
                c.fingerprint: c.method
                for c in prior.components
                if c.fingerprint is not None
            }

        # Component index -> disposition of what ``reuse`` planned; a
        # cache hit counts as reused and anything else as re-solved.
        dispositions: Dict[int, str] = {}

        def reuse(comp: Component) -> Optional[SolveOutcome]:
            fp = comp.fingerprint
            if not tokens_safe or fp is None:
                return None
            comp_slots = _pair_slots(comp.instance)

            # A structurally unchanged component: the prior coloring
            # transfers wholesale, each edge taking its pair slot's color.
            if fp in prior_method:
                by_color: Dict[int, List[EdgeId]] = {}
                for eid, token in comp_slots.items():
                    color = prior_token_color.get(token)
                    if color is None:
                        break
                    by_color.setdefault(color, []).append(eid)
                else:
                    # Component round i sat in global round i (merge is
                    # index-aligned), so grouping by ascending prior
                    # color rebuilds the exact prior rounds.
                    dispositions[comp.index] = DISPOSITION_REUSED
                    rounds = [by_color[c] for c in sorted(by_color)]
                    return canonical_order(comp.instance, rounds), prior_method[fp]

            # An edge-level patch around the surviving edges.
            survivors = {
                eid: prior_token_color[token]
                for eid, token in comp_slots.items()
                if token in prior_token_color
            }
            if not survivors:
                return None
            outcome, recolored = _patch_component(
                comp.instance, survivors, derive_patch_seed(seed, fp)
            )
            if outcome is None:
                result.fallbacks += 1
                tr.count(names.DELTA_PATCH_FALLBACKS)
                return None
            dispositions[comp.index] = DISPOSITION_PATCHED
            result.patched_edges += recolored
            return outcome

        components = _plan_components(
            patched, seed, cache=cache, result=result, tracer=tr,
            reuse=reuse, solve_stage="patch",
        )
        result.dispositions = tuple(
            DISPOSITION_REUSED
            if cp.cached
            else dispositions.get(cp.index, DISPOSITION_RESOLVED)
            for cp in result.components
        )
        for disposition, counter in (
            (DISPOSITION_REUSED, names.DELTA_COMPONENTS_REUSED),
            (DISPOSITION_PATCHED, names.DELTA_COMPONENTS_PATCHED),
            (DISPOSITION_RESOLVED, names.DELTA_COMPONENTS_RESOLVED),
        ):
            n = result.dispositions.count(disposition)
            if n:
                tr.count(counter, n)

        with _stage(tr, result, "certify"):
            if certify:
                _certify(patched, result, cache, components=components)
            from repro.checks.certify import make_patch_certificate

            result.patch_certificate = make_patch_certificate(
                prior_rounds=prior.schedule.rounds,
                delta_payload=delta.canonical_payload(),
                result_rounds=result.schedule.rounds,
                dispositions=[
                    (comp.fingerprint or "", disp)
                    for comp, disp in zip(result.components, result.dispositions)
                ],
            )
        root.set(
            rounds=result.schedule.num_rounds,
            reused=result.components_reused,
            patched=result.components_patched,
            resolved=result.components_resolved,
        )
    return result
