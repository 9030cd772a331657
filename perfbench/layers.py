"""Per-layer timing from the benchmark's own files.

The traced run wraps public functions of each layer *where their
caller looks them up* (a module attribute such as
``repro.pipeline.planner.decompose``), the same shim
``benchmarks/bench_sim.py`` uses for ``repro.sim.engine.plan``.
Nothing under ``src/`` changes, and with tracing off nothing is
patched at all.

Every wrapped call is a span on one stack.  A span's *self* time is
its wall time minus the wall time of the wrapped calls it made, so the
self times of all spans under an op plus the op's ``unattributed``
remainder add up to the op's wall time exactly.  Counts come from the
objects the API already returns (``GeneralSolverStats``, which the
solve step fills for every general solve) or from call counts of
functions called at most a few thousand times per op.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute, span name): one row per call site.  Rows that
#: share a span name add up into one layer metric.
TIMED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.pipeline.planner", "normalize", "pipeline.normalize"),
    ("repro.pipeline.planner", "decompose", "pipeline.decompose"),
    ("repro.pipeline.delta", "decompose", "pipeline.decompose"),
    ("repro.pipeline.planner", "select_solver", "pipeline.select"),
    ("repro.pipeline.delta", "select_solver", "pipeline.select"),
    ("repro.pipeline.planner", "merge", "pipeline.merge"),
    ("repro.pipeline.delta", "merge", "pipeline.merge"),
    ("repro.pipeline.stages", "fingerprint", "canonical.fingerprint"),
    ("repro.pipeline.planner", "canonicalize_rounds", "canonical.tokens"),
    ("repro.pipeline.planner", "rehydrate_rounds", "canonical.tokens"),
    ("repro.pipeline.parallel", "canonicalize_rounds", "canonical.tokens"),
    ("repro.pipeline.delta", "canonicalize_rounds", "canonical.tokens"),
    ("repro.pipeline.delta", "rehydrate_rounds", "canonical.tokens"),
    ("repro.pipeline.delta", "_pair_slots", "canonical.tokens"),
    ("repro.pipeline.planner", "solve_job", "pipeline.solve_job"),
    ("repro.pipeline.delta", "solve_job", "pipeline.solve_job"),
    ("repro.pipeline.delta", "apply_delta", "delta.apply"),
    ("repro.pipeline.delta", "_patch_component", "delta.patch"),
    ("repro.pipeline.parallel", "lower_instance", "array_backend.lower"),
    ("repro.exact.search", "lower_instance", "array_backend.lower"),
    ("repro.core.general", "lift_coloring", "array_backend.lift"),
    ("repro.exact.search", "lift_rounds", "array_backend.lift"),
    ("repro.pipeline.registry", "even_optimal_schedule_compact", "even_optimal"),
    ("repro.core.even_optimal", "compact_euler_orientation", "euler.orientation"),
    ("repro.core.lower_bounds", "lb2_exact", "lower_bounds.lb2_exact"),
    ("repro.checks.certify", "lb2_exact_witness", "lower_bounds.lb2_exact"),
    ("repro.core.lower_bounds", "lb2", "lower_bounds.lb2_heuristic"),
    ("repro.checks.certify", "lb2_witness", "lower_bounds.lb2_heuristic"),
    ("repro.checks.certify", "make_certificate", "certify.make_certificate"),
    ("repro.checks.certify", "certify", "certify.verify"),
    ("repro.checks.certify", "certificate_from_json", "certify.verify"),
    ("repro.checks.certify", "verify_optimality_certificate", "certify.verify"),
    ("repro.checks.certify", "make_patch_certificate", "certify.patch"),
    ("repro.exact.search", "solve_exact", "exact.solve"),
)

#: Every span name, in report order.
SPANS: Tuple[str, ...] = (
    "pipeline.normalize",
    "pipeline.decompose",
    "pipeline.select",
    "pipeline.merge",
    "canonical.fingerprint",
    "canonical.tokens",
    "pipeline.solve_job",
    "delta.apply",
    "delta.patch",
    "array_backend.lower",
    "array_backend.lift",
    "even_optimal",
    "euler.orientation",
    "matching.peeler_init",
    "matching.peel",
    "general",
    "lower_bounds.lb2_exact",
    "lower_bounds.lb2_heuristic",
    "certify.make_certificate",
    "certify.verify",
    "certify.patch",
    "exact.solve",
    "schedule.validate",
)

#: GeneralSolverStats fields summed over every general solve.
GENERAL_FIELDS = ("sweeps", "flips_attempted", "palette_growths", "phase2_edges")


@dataclass
class _Frame:
    child: float = 0.0


class LayerTracer:
    """Span stack plus per-name self time and call counts."""

    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.self_s: Dict[str, float] = {name: 0.0 for name in SPANS}
        self.calls: Dict[str, int] = {name: 0 for name in SPANS}
        self.counts: Dict[str, int] = {"pipeline.solve.attempts": 0}
        self.counts.update({f"general.{f}": 0 for f in GENERAL_FIELDS})
        self.unattributed = 0.0

    # -- spans ---------------------------------------------------------
    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = _Frame()
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.self_s[name] += elapsed - frame.child
                self.calls[name] += 1
                # Every wrapped call runs inside an op, so a parent
                # frame (at least the op's own) is always there.
                self.stack[-1].child += elapsed

        return wrapper

    @contextmanager
    def op(self) -> Iterator[None]:
        """One timed op; its wall time minus its wrapped children's is
        the op's unattributed time."""
        frame = _Frame()
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            self.unattributed += elapsed - frame.child

    # -- patching ------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Patch every call site for the duration of the block."""
        saved: List[Tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, value: Any) -> None:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for module_name, attr, name in TIMED:
            module = importlib.import_module(module_name)
            patch(module, attr, self.timed(name, getattr(module, attr)))

        from repro.core import even_optimal
        from repro.core.general import GeneralSolverStats
        from repro.core.schedule import MigrationSchedule
        from repro.pipeline import parallel, registry

        patch(MigrationSchedule, "validate",
              self.timed("schedule.validate", MigrationSchedule.validate))
        patch(even_optimal, "QuotaPeeler", self._peeler_class(even_optimal.QuotaPeeler))

        real_general = registry.general_schedule_compact
        timed_general = self.timed("general", real_general)

        def general(ci: Any, seed: int = 0, stats: Optional[Any] = None) -> Any:
            stats = stats if stats is not None else GeneralSolverStats()
            try:
                return timed_general(ci, seed=seed, stats=stats)
            finally:
                for field in GENERAL_FIELDS:
                    self.counts[f"general.{field}"] += getattr(stats, field)

        patch(registry, "general_schedule_compact", general)

        real_backend_solver = parallel.backend_solver

        def backend_solver(*args: Any, **kwargs: Any) -> Any:
            solve = real_backend_solver(*args, **kwargs)

            def attempt(*a: Any, **k: Any) -> Any:
                self.counts["pipeline.solve.attempts"] += 1
                return solve(*a, **k)

            return attempt

        patch(parallel, "backend_solver", backend_solver)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def _peeler_class(self, base: type) -> type:
        init = self.timed("matching.peeler_init", base.__init__)
        peel = self.timed("matching.peel", base.peel)
        return type(base.__name__, (base,), {"__init__": init, "peel": peel})
