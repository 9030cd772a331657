"""Migration throttling: trading migration time for service headroom.

Operators rarely let migrations use every transfer lane — Aqueduct's
whole point was migrating *under a performance guarantee*.  The
simplest sound throttle in the paper's model reserves a fraction of
each disk's transfer constraint for clients: schedule against
``c'_v = max(1, floor(θ · c_v))`` for a throttle level ``θ ∈ (0, 1]``.
Any schedule feasible for ``c'`` is feasible for ``c``, per-round
interference drops to ≈ θ, and the makespan stretches by ≈ 1/θ.

:func:`throttled_schedule` applies the reduction;
:func:`throttle_tradeoff` computes the (duration, interference) curve
the operator actually chooses on, using the service-degradation model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.pipeline.planner import plan


@dataclass(frozen=True)
class ThrottlePoint:
    """One point on the throttle tradeoff curve."""

    theta: float
    rounds: int
    duration: float
    interference: float
    displacement: float

    @property
    def total_degradation(self) -> float:
        return self.interference + self.displacement


def throttled_capacities(
    instance: MigrationInstance, theta: float
) -> Dict:
    """``c'_v = max(1, floor(θ · c_v))``.

    Raises:
        ValueError: for θ outside (0, 1].
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    return {
        v: max(1, math.floor(theta * c)) for v, c in instance.capacities.items()
    }


def throttled_schedule(
    instance: MigrationInstance, theta: float, method: str = "auto", seed: int = 0
) -> MigrationSchedule:
    """Schedule under reserved client headroom.

    The returned schedule is validated against the *original*
    instance (it is feasible there a fortiori) and tagged with the
    throttle level.
    """
    reduced = MigrationInstance(instance.graph.copy(), throttled_capacities(instance, theta))
    schedule = plan(reduced, method=method, seed=seed).schedule
    tagged = MigrationSchedule(schedule.rounds, method=f"{schedule.method}@θ={theta:g}")
    tagged.validate(instance)
    return tagged


def throttle_tradeoff(
    cluster,
    context,
    thetas: Sequence[float] = (1.0, 0.75, 0.5, 0.25),
    method: str = "auto",
) -> List[ThrottlePoint]:
    """The operator's curve: how much calm does slower migration buy?

    For each θ, schedules under the throttle and evaluates the
    degradation integral (interference + displacement) with the
    cluster's demand snapshot.  Expect interference to fall roughly
    linearly in θ while displacement (and duration) grow as 1/θ.
    """
    from repro.cluster.service import disk_demand, service_degradation

    demand = disk_demand(cluster)
    points: List[ThrottlePoint] = []
    for theta in thetas:
        schedule = throttled_schedule(context.instance, theta, method=method)
        report = service_degradation(
            cluster, context, schedule, demand=demand
        )
        points.append(
            ThrottlePoint(
                theta=theta,
                rounds=schedule.num_rounds,
                duration=report.duration,
                interference=report.interference,
                displacement=report.displacement,
            )
        )
    return points
