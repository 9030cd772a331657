"""Core algorithms: the paper's contribution.

* :mod:`repro.core.problem` / :mod:`repro.core.schedule` — the
  heterogeneous data-migration problem and its solutions.
* :mod:`repro.core.lower_bounds` — the two lower bounds of Section III.
* :mod:`repro.core.even_optimal` — the optimal scheduler for even
  transfer constraints (Section IV).
* :mod:`repro.core.general` — the ``(1 + o(1))``-approximation for
  arbitrary constraints (Section V), with orbit machinery in
  :mod:`repro.core.orbits` and the capacitated recoloring engine in
  :mod:`repro.core.recolor`.
* :mod:`repro.core.baselines` — Saia's 1.5-approximation, the
  homogeneous (``c_v = 1``) scheduler and greedy first-fit.
* :mod:`repro.core.exact` — brute-force optimum for tiny instances.
* :mod:`repro.core.objectives` — scheduling objectives beyond makespan
  (bounded edge coloring, weighted group completion times), consumed
  by the branch-and-bound solver in :mod:`repro.exact`.

The public planning entry point is :func:`repro.plan`, which runs these
algorithms through the staged pipeline in :mod:`repro.pipeline`.
"""

from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.core.lower_bounds import lower_bound, lb1, lb2
from repro.core.objectives import (
    MAKESPAN,
    BoundedColorObjective,
    GroupCompletionObjective,
    MakespanObjective,
    Objective,
    ObjectiveError,
    load_objective,
    objective_from_json,
)

__all__ = [
    "MAKESPAN",
    "BoundedColorObjective",
    "GroupCompletionObjective",
    "MakespanObjective",
    "MigrationInstance",
    "MigrationSchedule",
    "Objective",
    "ObjectiveError",
    "load_objective",
    "objective_from_json",
    "lower_bound",
    "lb1",
    "lb2",
]
