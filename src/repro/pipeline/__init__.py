"""repro.pipeline — the staged planning pipeline.

``plan()`` runs normalize → decompose → select → solve → merge →
certify and returns a :class:`PlanResult` carrying the validated
schedule plus per-stage timings, per-component method attribution,
and (when requested) a composed lower-bound certificate.
"""

from repro.pipeline.cache import CachedPlan, CacheStats, PlanCache
from repro.pipeline.canonical import (
    PairToken,
    TokenRounds,
    canonicalize_rounds,
    derive_component_seed,
    derive_patch_seed,
    fingerprint,
    rehydrate_rounds,
)
from repro.pipeline.delta import DELTA_STAGES, DeltaPlanResult, plan_delta
from repro.pipeline.planner import (
    STAGES,
    ComponentPlan,
    PlanResult,
    StoredPlanMismatchError,
    plan,
)
from repro.pipeline.registry import (
    SolverSpec,
    get_solver,
    register_solver,
    select_solver,
    solver_names,
)
from repro.pipeline.stages import (
    Component,
    NormalizedProblem,
    decompose,
    merge,
    merged_method_name,
    normalize,
)

__all__ = [
    "DELTA_STAGES",
    "STAGES",
    "CachedPlan",
    "CacheStats",
    "Component",
    "ComponentPlan",
    "DeltaPlanResult",
    "NormalizedProblem",
    "PairToken",
    "PlanCache",
    "PlanResult",
    "SolverSpec",
    "StoredPlanMismatchError",
    "TokenRounds",
    "canonicalize_rounds",
    "decompose",
    "derive_component_seed",
    "derive_patch_seed",
    "fingerprint",
    "get_solver",
    "merge",
    "merged_method_name",
    "normalize",
    "plan",
    "plan_delta",
    "register_solver",
    "rehydrate_rounds",
    "select_solver",
    "solver_names",
]
