"""Temperature-driven tiered migration workloads.

Real heterogeneous fleets (hot NVMe / warm SSD / cold HDD, or the
HDFS↔S3 lifecycle of hot/warm/cold data-lake tiers) do not produce one
static migration instance — they produce a *stream* of demands as item
temperatures drift.  This module models that loop end to end,
deterministically:

* :class:`AccessTrace` — a seeded Zipf-weighted access generator whose
  item-popularity ranking drifts by random rank swaps at a fixed
  cadence, so yesterday's cold item becomes tomorrow's hot one;
* :class:`TemperatureModel` — exponentially-weighted moving averages
  of per-item access counts (the standard estimator in tiering
  systems);
* :class:`TierPolicy` — threshold rules with hysteresis: an item is
  promoted to a hotter tier only when its temperature clears the
  tier's threshold *times* the hysteresis margin, and demoted only
  when it falls *below* the current tier's threshold divided by the
  margin, so items straddling a boundary do not flap;
* :class:`TieredSystem` — the demand ledger.  Each step it compares
  every item's desired tier with its placement and pending move, and
  emits the difference as one :class:`repro.core.delta.InstanceDelta`:
  a new demand becomes an *add*, a pending move whose destination tier
  changed becomes a *retarget*, a pending move rendered moot becomes a
  *remove*, and (optionally) seeded capacity re-provisioning becomes a
  *capacity change*.

Everything is a pure function of the configuration and the seed: the
trace, the temperatures, the placements and therefore the delta stream
are byte-identical across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.core.delta import InstanceDelta
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph


@dataclass(frozen=True)
class TierSpec:
    """One storage tier: how many disks, how fast, how hot.

    ``threshold`` is the minimum temperature at which an item *wants*
    this tier; the coldest tier uses ``0.0`` so every item has a home.
    """

    name: str
    disks: int
    capacity: int
    threshold: float

    def __post_init__(self) -> None:
        if self.disks < 1:
            raise ValueError(f"tier {self.name!r} needs at least one disk")
        if self.capacity < 1:
            raise ValueError(f"tier {self.name!r} needs capacity >= 1")
        if self.threshold < 0:
            raise ValueError(f"tier {self.name!r} threshold must be >= 0")


#: hot NVMe / warm SSD / cold HDD — small, fast and picky at the top.
DEFAULT_TIERS: Tuple[TierSpec, ...] = (
    TierSpec(name="hot", disks=4, capacity=4, threshold=3.0),
    TierSpec(name="warm", disks=8, capacity=2, threshold=1.0),
    TierSpec(name="cold", disks=12, capacity=1, threshold=0.0),
)


@dataclass(frozen=True)
class TieredWorkloadConfig:
    """All the knobs of one temperature workload (a pure value)."""

    tiers: Tuple[TierSpec, ...] = DEFAULT_TIERS
    num_items: int = 200
    #: Zipf exponent of the access popularity law.
    zipf_s: float = 1.1
    #: accesses drawn per simulated step.
    accesses_per_step: int = 64
    #: EWMA smoothing factor (weight of the newest step).
    ewma_alpha: float = 0.3
    #: hysteresis margin (> 1): promote at ``threshold * margin``,
    #: demote below ``threshold / margin``.
    hysteresis: float = 1.25
    #: every ``drift_interval`` steps, ``drift_swaps`` popularity-rank
    #: pairs swap — the regime change that makes items change tiers.
    drift_interval: int = 20
    drift_swaps: int = 8
    #: probability per step that one random disk is re-provisioned to
    #: a different transfer constraint (emitted as a capacity change).
    capacity_jitter: float = 0.0

    def __post_init__(self) -> None:
        if len(self.tiers) < 2:
            raise ValueError("a tiered workload needs at least two tiers")
        thresholds = [t.threshold for t in self.tiers]
        if thresholds != sorted(thresholds, reverse=True):
            raise ValueError("tiers must be ordered hottest (highest threshold) first")
        if self.tiers[-1].threshold != 0.0:
            raise ValueError("the coldest tier's threshold must be 0.0")
        if self.num_items < 1:
            raise ValueError("need at least one item")
        if self.hysteresis < 1.0:
            raise ValueError("hysteresis margin must be >= 1.0")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0.0 <= self.capacity_jitter <= 1.0:
            raise ValueError("capacity_jitter must be a probability")


class AccessTrace:
    """Seeded Zipf accesses over a drifting popularity ranking."""

    def __init__(self, config: TieredWorkloadConfig, seed: int) -> None:
        self._config = config
        self._rng = random.Random(seed)
        n = config.num_items
        #: rank_of_item[i] — item i's popularity rank (0 = hottest).
        self._rank_of_item: List[int] = list(range(n))
        self._weight_of_rank = [1.0 / (r + 1) ** config.zipf_s for r in range(n)]
        self._step = 0

    def step(self) -> Dict[int, int]:
        """Access counts per item index for one simulated step."""
        cfg = self._config
        if cfg.drift_interval > 0 and self._step > 0 and (
            self._step % cfg.drift_interval == 0
        ):
            for _ in range(cfg.drift_swaps):
                i = self._rng.randrange(cfg.num_items)
                j = self._rng.randrange(cfg.num_items)
                self._rank_of_item[i], self._rank_of_item[j] = (
                    self._rank_of_item[j],
                    self._rank_of_item[i],
                )
        self._step += 1
        weights = [self._weight_of_rank[r] for r in self._rank_of_item]
        counts: Dict[int, int] = {}
        for item in self._rng.choices(
            range(cfg.num_items), weights=weights, k=cfg.accesses_per_step
        ):
            counts[item] = counts.get(item, 0) + 1
        return counts


class TemperatureModel:
    """Per-item EWMA of access counts."""

    def __init__(self, config: TieredWorkloadConfig) -> None:
        self._alpha = config.ewma_alpha
        self.temperature: List[float] = [0.0] * config.num_items

    def update(self, counts: Mapping[int, int]) -> None:
        alpha = self._alpha
        for item in range(len(self.temperature)):
            observed = float(counts.get(item, 0))
            self.temperature[item] += alpha * (observed - self.temperature[item])


class TierPolicy:
    """Threshold rules with hysteresis → desired tier per item."""

    def __init__(self, config: TieredWorkloadConfig) -> None:
        self._tiers = config.tiers
        self._margin = config.hysteresis

    def raw_tier(self, temperature: float) -> int:
        """The tier the temperature nominally belongs to (no hysteresis)."""
        for k, tier in enumerate(self._tiers):
            if temperature >= tier.threshold:
                return k
        return len(self._tiers) - 1

    def desired_tier(self, temperature: float, current: int) -> int:
        """Where the item should live, given where it lives now.

        Promotion (to a lower index) requires clearing the hotter
        tier's threshold *times* the margin; demotion requires falling
        *below* the current tier's threshold divided by the margin.
        Anything in between stays put — that dead band is what stops
        boundary items from flapping between tiers every step.
        """
        nominal = self.raw_tier(temperature)
        if nominal < current:  # promotion candidate
            if temperature >= self._tiers[nominal].threshold * self._margin:
                return nominal
            return current
        if nominal > current:  # demotion candidate
            if temperature < self._tiers[current].threshold / self._margin:
                return nominal
            return current
        return current


@dataclass(frozen=True)
class WorkloadStep:
    """One tick of the demand stream."""

    time: int
    delta: InstanceDelta
    #: desired-tier distribution after the step (items per tier).
    tier_population: Tuple[int, ...]
    #: pending (unfinished) migration demands after the step.
    pending: int


@dataclass
class _PendingMove:
    src: str
    dst: str
    dst_tier: int


class TieredSystem:
    """The demand ledger: placements, pending moves, emitted deltas.

    The system owns every disk of every tier, knows which disk each
    item occupies, and tracks at most one pending migration demand per
    item.  :meth:`step` advances the access trace and temperature
    model, applies the tier policy, and returns the
    :class:`InstanceDelta` describing exactly what changed — the
    *stream* form the incremental replanner consumes.  Completions are
    reported back via :meth:`complete_pair` (the closed-loop replay
    driver calls it for every transfer of the executed round), which
    emits the matching *remove* entries through the next delta.
    """

    def __init__(self, config: TieredWorkloadConfig, seed: int) -> None:
        self.config = config
        self._trace = AccessTrace(config, seed)
        self._temps = TemperatureModel(config)
        self._policy = TierPolicy(config)
        self._rng = random.Random(seed + 0x7E39)
        self.capacities: Dict[str, int] = {}
        self._tier_disks: List[List[str]] = []
        for tier in config.tiers:
            disks = [f"{tier.name}{i:02d}" for i in range(tier.disks)]
            self._tier_disks.append(disks)
            for d in disks:
                self.capacities[d] = tier.capacity
        self._tier_of_disk: Dict[str, int] = {}
        for k, disks in enumerate(self._tier_disks):
            for d in disks:
                self._tier_of_disk[d] = k
        # All items start cold, round-robin across the coldest tier.
        cold = len(config.tiers) - 1
        cold_disks = self._tier_disks[cold]
        self.item_tier: List[int] = [cold] * config.num_items
        self.item_disk: List[str] = [
            cold_disks[i % len(cold_disks)] for i in range(config.num_items)
        ]
        #: per-disk resident + incoming items (placement pressure).
        self._disk_load: Dict[str, int] = {d: 0 for d in sorted(self.capacities)}
        for d in self.item_disk:
            self._disk_load[d] += 1
        self._pending: Dict[int, _PendingMove] = {}
        #: completions reported since the last step, as pair removals.
        self._completed_removes: List[Tuple[str, str]] = []
        self._time = 0

    # ------------------------------------------------------------------
    @property
    def pending_moves(self) -> int:
        return len(self._pending)

    def instance(self) -> MigrationInstance:
        """The current transfer instance: one edge per pending demand."""
        graph = Multigraph()
        for d in sorted(self.capacities):
            graph.add_node(d)
        for item in sorted(self._pending):
            move = self._pending[item]
            graph.add_edge(move.src, move.dst)
        return MigrationInstance(graph, self.capacities)

    def _place(self, tier: int) -> str:
        """Least-loaded disk of the tier; ties break lexicographically."""
        return min(self._tier_disks[tier], key=lambda d: (self._disk_load[d], d))

    # ------------------------------------------------------------------
    def complete_pair(self, src: str, dst: str) -> None:
        """One scheduled ``(src, dst)`` transfer finished executing.

        The lowest-numbered item pending exactly that move lands on
        ``dst``; the corresponding edge leaves the instance through the
        next step's delta.
        """
        for item in sorted(self._pending):
            move = self._pending[item]
            if move.src == src and move.dst == dst:
                del self._pending[item]
                self._disk_load[src] -= 1
                self.item_disk[item] = dst
                self.item_tier[item] = move.dst_tier
                self._completed_removes.append((src, dst))
                return
        raise ValueError(f"no pending move {src!r} -> {dst!r} to complete")

    def step(self) -> WorkloadStep:
        """Advance one tick and return the emitted delta."""
        cfg = self.config
        counts = self._trace.step()
        self._temps.update(counts)

        adds: List[Tuple[str, str]] = []
        removes: List[Tuple[str, str]] = list(self._completed_removes)
        self._completed_removes = []
        retargets: List[Tuple[str, str, str]] = []
        capacity_changes: List[Tuple[str, int]] = []

        if cfg.capacity_jitter > 0 and self._rng.random() < cfg.capacity_jitter:
            disks = sorted(self.capacities)
            disk = disks[self._rng.randrange(len(disks))]
            tier = self.config.tiers[self._tier_of_disk[disk]]
            choices = sorted({1, tier.capacity, tier.capacity + 1})
            new_cap = choices[self._rng.randrange(len(choices))]
            if new_cap != self.capacities[disk]:
                self.capacities[disk] = new_cap
                capacity_changes.append((disk, new_cap))

        for item in range(cfg.num_items):
            temp = self._temps.temperature[item]
            current = self.item_tier[item]
            pending = self._pending.get(item)
            anchor = pending.dst_tier if pending is not None else current
            desired = self._policy.desired_tier(temp, anchor)
            if pending is None:
                if desired != current:
                    src = self.item_disk[item]
                    dst = self._place(desired)
                    self._pending[item] = _PendingMove(src, dst, desired)
                    self._disk_load[dst] += 1
                    adds.append((src, dst))
                continue
            if desired == pending.dst_tier:
                continue
            if desired == current:
                # The demand is moot: the item cooled (or reheated)
                # back to the tier it never left.
                removes.append((pending.src, pending.dst))
                self._disk_load[pending.dst] -= 1
                del self._pending[item]
                continue
            new_dst = self._place(desired)
            retargets.append((pending.src, pending.dst, new_dst))
            self._disk_load[pending.dst] -= 1
            self._disk_load[new_dst] += 1
            self._pending[item] = _PendingMove(pending.src, new_dst, desired)

        self._time += 1
        population = [0] * len(cfg.tiers)
        for item in range(cfg.num_items):
            pending_move = self._pending.get(item)
            tier = (
                pending_move.dst_tier
                if pending_move is not None
                else self.item_tier[item]
            )
            population[tier] += 1
        delta = InstanceDelta(
            add_moves=tuple(adds),
            remove_moves=tuple(removes),
            retarget_moves=tuple(retargets),
            capacity_changes=tuple(capacity_changes),
        )
        return WorkloadStep(
            time=self._time,
            delta=delta,
            tier_population=tuple(population),
            pending=len(self._pending),
        )


def temperature_stream(
    config: TieredWorkloadConfig, steps: int, seed: int = 0
) -> List[WorkloadStep]:
    """The open-loop delta stream: ``steps`` ticks with no completions.

    Useful for tests and for feeding the online adapter; the
    closed-loop form (demands *and* executed rounds) lives in
    :func:`repro.workloads.replay.replay`.
    """
    system = TieredSystem(config, seed)
    return [system.step() for _ in range(steps)]
