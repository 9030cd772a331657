"""The closed-loop failure-and-recovery simulation engine.

:class:`SimEngine` is a deterministic discrete-event simulator.  Disks
fail (randomly via a seeded exponential process, or on a script reusing
:class:`repro.runtime.faults.DiskCrash`), scrubbing surfaces latent
single-fragment errors, and replacements arrive after a fixed delay.
Every loss turns into repair demands that are batched into one
transfer graph per incident (:mod:`repro.sim.repair`), planned through
:func:`repro.plan` — so the staged planner, its cache and its schedule
quality sit *inside* the durability feedback loop — and executed
against the simulated clock with a :mod:`repro.cluster.network` rate
model.  The longer planning and transfers take, the longer items stay
under-replicated and the likelier a second failure lands before repair
completes.

Determinism contract: a campaign is a pure function of its
:class:`SimConfig`.  All randomness flows from ``random.Random``
instances seeded by sha256-derived integers (never hash()-dependent
values), every set iteration is sorted, the event queue is totally
ordered, and planning latency is *modeled*
(``plan_alpha + plan_beta · transfers`` sim-seconds) rather than
measured, so report bytes are identical across processes and
``PYTHONHASHSEED`` values.  Real planner wall-time is measured only by
the benchmark harness, outside the simulated clock.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.disk import Disk
from repro.cluster.item import DataItem
from repro.cluster.layout import Layout
from repro.cluster.network import FabricRates, FairShareRates, RateModel
from repro.cluster.system import MigrationPlanContext, StorageCluster
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import EdgeId
from repro.obs import names
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, ensure_tracer
from repro.pipeline import PlanCache, plan
from repro.runtime.faults import DiskCrash
from repro.sim.events import (
    DiskFailed,
    EventQueue,
    FragmentRestored,
    RepairFinished,
    ReplacementArrived,
    ScrubTick,
    SimEvent,
)
from repro.sim.placement import PlacementPolicy, build_policy
from repro.sim.redundancy import RedundancyScheme, parse_scheme
from repro.sim.repair import RepairDemand, RepairEdge, build_repair_instance
from repro.sim.topology import SimTopology, slot_of

#: Fixed histogram boundaries for per-incident repair makespans
#: (sim-seconds); fixed so reports from different campaigns compare.
MAKESPAN_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0
)

#: A fragment is identified by its item and fragment index.
FragKey = Tuple[str, int]


def derive_seed(seed: int, stream: str) -> int:
    """A stable per-stream integer seed.

    Derived via sha256 over ``"{seed}:{stream}"`` — *never* via tuple
    hashing, which would vary with ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256(f"{seed}:{stream}".encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


@dataclass(frozen=True)
class SimConfig:
    """Everything that defines a campaign (and thus its report bytes).

    Attributes:
        racks, machines_per_rack, disks_per_machine: fleet topology.
        transfer_limit: per-disk ``c_v`` for repair scheduling.
        bandwidth: per-disk migration bandwidth (size units / sim-sec).
        uplink_bandwidth: per-rack uplink capacity for the fabric rate
            model.
        fabric: charge cross-rack repair traffic to rack uplinks
            (:class:`~repro.cluster.network.FabricRates`); otherwise
            disks are the only bottleneck.
        items: number of user items placed at time zero.
        item_size: size of each item (fragments are
            ``item_size / required_fragments``).
        scheme: redundancy spec (``rep3`` / ``rs6+3`` / ``lrc6+2+2``).
        placement: placement policy spec (``random`` / ``spread`` /
            ``copyset``).
        duration: simulation horizon in sim-seconds.
        seed: master seed; every RNG stream derives from it.
        failure_rate: per-disk exponential failure rate (failures per
            sim-second); 0 disables random failures.
        crashes: scripted failures (:class:`~repro.runtime.faults.DiskCrash`,
            shared with the runtime executor's fault plans); each disk
            id must sit in a slot of the grid (replacement ids such as
            ``r0m1d2#1`` included).
        replacement_delay: sim-seconds until a failed disk's slot is
            re-occupied by an empty replacement.
        scrub_interval: per-disk scrub period; 0 disables scrubbing.
        latent_error_rate: probability a scrub pass finds (and loses)
            one fragment on the scanned disk.
        method: planner method passed to :func:`repro.plan`.
        plan_alpha, plan_beta: modeled planning latency
            ``alpha + beta · transfers`` sim-seconds, charged before a
            repair's first transfer starts.
    """

    racks: int = 3
    machines_per_rack: int = 2
    disks_per_machine: int = 4
    transfer_limit: int = 2
    bandwidth: float = 1.0
    uplink_bandwidth: float = 8.0
    fabric: bool = True
    items: int = 100
    item_size: float = 1.0
    scheme: str = "rep3"
    placement: str = "spread"
    duration: float = 1000.0
    seed: int = 0
    failure_rate: float = 0.001
    crashes: Tuple[DiskCrash, ...] = ()
    replacement_delay: float = 50.0
    scrub_interval: float = 200.0
    latent_error_rate: float = 0.05
    method: str = "auto"
    plan_alpha: float = 0.5
    plan_beta: float = 0.01

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.items < 0:
            raise ValueError("items must be >= 0")
        if self.failure_rate < 0:
            raise ValueError("failure_rate must be >= 0")
        if not 0.0 <= self.latent_error_rate <= 1.0:
            raise ValueError("latent_error_rate must be in [0, 1]")
        if self.replacement_delay < 0:
            raise ValueError("replacement_delay must be >= 0")
        if self.plan_alpha < 0 or self.plan_beta < 0:
            raise ValueError("plan latency coefficients must be >= 0")
        if self.crashes:
            grid = SimTopology.grid(
                self.racks, self.machines_per_rack, self.disks_per_machine
            )
            for crash in self.crashes:
                if slot_of(crash.disk_id) not in grid.rack_of_slot:
                    raise ValueError(
                        f"crash disk {crash.disk_id!r} is in no slot of the "
                        f"{grid.num_slots}-slot grid"
                    )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready echo of the configuration (keys sorted)."""
        plain = {
            "racks": self.racks,
            "machines_per_rack": self.machines_per_rack,
            "disks_per_machine": self.disks_per_machine,
            "transfer_limit": self.transfer_limit,
            "bandwidth": self.bandwidth,
            "uplink_bandwidth": self.uplink_bandwidth,
            "fabric": self.fabric,
            "items": self.items,
            "item_size": self.item_size,
            "scheme": self.scheme,
            "placement": self.placement,
            "duration": self.duration,
            "seed": self.seed,
            "failure_rate": self.failure_rate,
            "crashes": [[c.disk_id, c.at_time] for c in self.crashes],
            "replacement_delay": self.replacement_delay,
            "scrub_interval": self.scrub_interval,
            "latent_error_rate": self.latent_error_rate,
            "method": self.method,
            "plan_alpha": self.plan_alpha,
            "plan_beta": self.plan_beta,
        }
        return {k: plain[k] for k in sorted(plain)}


@dataclass
class Incident:
    """One batched repair: planned once, executed on the sim clock."""

    incident_id: int
    start: float
    trigger: str
    demands: int
    transfers: int
    rounds: int
    plan_latency: float
    makespan: float
    components_solved: int
    components_cached: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "incident": self.incident_id,
            "start": self.start,
            "trigger": self.trigger,
            "demands": self.demands,
            "transfers": self.transfers,
            "rounds": self.rounds,
            "plan_latency": self.plan_latency,
            "makespan": self.makespan,
            "components_solved": self.components_solved,
            "components_cached": self.components_cached,
        }


class SimEngine:
    """Runs one campaign; implements :class:`~repro.sim.placement.FleetView`.

    Args:
        config: the campaign definition.
        tracer: optional :class:`repro.obs.Tracer` for spans and the
            planner's cache-hit counters.  Tracing never affects the
            simulation's behaviour or its report bytes.
    """

    def __init__(self, config: SimConfig, tracer: Optional[Tracer] = None):
        self.config = config
        self.topology = SimTopology.grid(
            config.racks, config.machines_per_rack, config.disks_per_machine
        )
        self.scheme: RedundancyScheme = parse_scheme(config.scheme)
        self.policy: PlacementPolicy = build_policy(
            config.placement, self.topology, derive_seed(config.seed, "policy")
        )
        self.metrics = MetricsRegistry()
        self.metrics.histogram(names.SIM_REPAIR_MAKESPAN, MAKESPAN_BUCKETS)
        self.now = 0.0
        self.incidents: List[Incident] = []
        self.loss_events: List[Tuple[float, str]] = []
        self.under_replicated_time = 0.0
        self.repair_bytes = 0.0

        self._tracer = ensure_tracer(tracer)
        self._cache = PlanCache()
        self._queue = EventQueue()
        self._place_rng = random.Random(derive_seed(config.seed, "placement"))
        self._fail_rng = random.Random(derive_seed(config.seed, "failures"))
        self._scrub_rng = random.Random(derive_seed(config.seed, "scrub"))
        self._repair_rng = random.Random(derive_seed(config.seed, "repair"))

        # Fleet state: slot -> occupant (None while awaiting replacement),
        # alive disk ids, per-slot replacement generation.
        self._occupant: Dict[str, Optional[str]] = {}
        self._generation: Dict[str, int] = {}
        self._alive: Set[str] = set()
        # Data state: item -> frag -> disk, disk -> fragment set,
        # degraded fragment -> time lost, fragments being rebuilt.
        self._placement: Dict[str, Dict[int, str]] = {}
        self._on_disk: Dict[str, Set[FragKey]] = {}
        self._degraded: Dict[FragKey, float] = {}
        self._in_repair: Set[FragKey] = set()
        self._lost: Set[str] = set()
        # incident id -> fragment -> rebuild target.
        self._active_targets: Dict[int, Dict[FragKey, str]] = {}
        self._next_incident = 0
        self._finalized = False

        self._bootstrap()

    # ------------------------------------------------------------------
    # FleetView protocol
    # ------------------------------------------------------------------
    def alive_disks(self) -> List[str]:
        return sorted(self._alive)

    def fragment_count(self, disk_id: str) -> int:
        return len(self._on_disk.get(disk_id, set()))

    def rack(self, disk_id: str) -> str:
        return self.topology.rack(disk_id)

    def machine(self, disk_id: str) -> str:
        return self.topology.machine(disk_id)

    def disk_in_slot(self, slot: str) -> Optional[str]:
        occupant = self._occupant.get(slot)
        if occupant is not None and occupant in self._alive:
            return occupant
        return None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        cfg = self.config
        for slot in self.topology.slots:
            self._occupant[slot] = slot
            self._generation[slot] = 0
            self._alive.add(slot)
            self._on_disk[slot] = set()
        for slot in self.topology.slots:
            if cfg.failure_rate > 0:
                self._queue.push(
                    self._fail_rng.expovariate(cfg.failure_rate), DiskFailed(slot)
                )
        for crash in cfg.crashes:
            self._queue.push(crash.at_time, DiskFailed(str(crash.disk_id)))
        if cfg.scrub_interval > 0:
            slots = self.topology.slots
            for k, slot in enumerate(slots):
                first = cfg.scrub_interval * (k + 1) / len(slots)
                self._queue.push(first, ScrubTick(slot))
        for i in range(cfg.items):
            item_id = f"item{i:04d}"
            disks = self.policy.place_item(
                item_id, self.scheme.total_fragments, self, self._place_rng
            )
            self._placement[item_id] = {}
            for frag, disk_id in enumerate(disks):
                self._placement[item_id][frag] = disk_id
                self._on_disk[disk_id].add((item_id, frag))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> "SimEngine":
        """Process events up to the horizon; idempotent afterwards."""
        cfg = self.config
        with self._tracer.span(
            names.SPAN_SIM_RUN,
            seed=cfg.seed,
            scheme=self.scheme.name,
            placement=self.policy.name,
        ):
            while True:
                peek = self._queue.peek_time()
                if peek is None or peek > cfg.duration:
                    break
                self.now, event = self._queue.pop()
                self.metrics.counter(names.SIM_EVENTS).inc()
                self._dispatch(event)
            self.now = cfg.duration
            self._finalize()
        return self

    def _dispatch(self, event: SimEvent) -> None:
        if isinstance(event, DiskFailed):
            self._on_disk_failed(event)
        elif isinstance(event, ReplacementArrived):
            self._on_replacement(event)
        elif isinstance(event, ScrubTick):
            self._on_scrub(event)
        elif isinstance(event, FragmentRestored):
            self._on_restored(event)
        elif isinstance(event, RepairFinished):
            self._on_repair_finished(event)
        else:  # pragma: no cover - the Union is exhaustive
            raise TypeError(f"unknown event {event!r}")

    def _finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        # Fragments still degraded at the horizon accrue exposure up to it.
        for key in sorted(self._degraded):
            self.under_replicated_time += self.now - self._degraded[key]
        self.metrics.gauge(names.SIM_UNDER_REPLICATED_TIME).set(
            self.under_replicated_time
        )
        self.metrics.gauge(names.SIM_REPAIR_BYTES).set(self.repair_bytes)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_disk_failed(self, event: DiskFailed) -> None:
        disk_id = event.disk_id
        if disk_id not in self._alive:
            return  # scripted crash raced a random failure; already dead
        self.metrics.counter(names.SIM_DISK_FAILURES).inc()
        slot = slot_of(disk_id)
        self._alive.discard(disk_id)
        self._occupant[slot] = None
        affected: List[str] = []
        for item_id, frag in sorted(self._on_disk.pop(disk_id, set())):
            placed = self._placement.get(item_id, {})
            if placed.get(frag) == disk_id:
                del placed[frag]
            if item_id in self._lost:
                continue
            self._degraded[(item_id, frag)] = self.now
            affected.append(item_id)
        for item_id in sorted(set(affected)):
            self._check_loss(item_id)
        generation = self._generation[slot] + 1
        self._generation[slot] = generation
        self._queue.push(
            self.now + self.config.replacement_delay,
            ReplacementArrived(slot, f"{slot}#{generation}"),
        )
        self._sweep_repairs("failure")

    def _on_replacement(self, event: ReplacementArrived) -> None:
        # A newer failure may have incremented the generation again while
        # this replacement was in transit; only the latest one lands.
        if f"{event.slot}#{self._generation[event.slot]}" != event.disk_id:
            return
        self.metrics.counter(names.SIM_REPLACEMENTS).inc()
        self._occupant[event.slot] = event.disk_id
        self._alive.add(event.disk_id)
        self._on_disk[event.disk_id] = set()
        if self.config.failure_rate > 0:
            self._queue.push(
                self.now + self._fail_rng.expovariate(self.config.failure_rate),
                DiskFailed(event.disk_id),
            )
        self._sweep_repairs("replacement")

    def _on_scrub(self, event: ScrubTick) -> None:
        cfg = self.config
        slot = slot_of(event.disk_id)
        self._queue.push(self.now + cfg.scrub_interval, ScrubTick(slot))
        occupant = self.disk_in_slot(slot)
        if occupant is None:
            return
        fragments = sorted(self._on_disk.get(occupant, set()))
        if not fragments:
            return
        if self._scrub_rng.random() >= cfg.latent_error_rate:
            return
        item_id, frag = fragments[self._scrub_rng.randrange(len(fragments))]
        self.metrics.counter(names.SIM_LATENT_ERRORS).inc()
        self._on_disk[occupant].discard((item_id, frag))
        placed = self._placement.get(item_id, {})
        if placed.get(frag) == occupant:
            del placed[frag]
        if item_id not in self._lost:
            self._degraded[(item_id, frag)] = self.now
            self._check_loss(item_id)
        self._sweep_repairs("scrub")

    def _on_restored(self, event: FragmentRestored) -> None:
        key: FragKey = (event.item_id, event.frag_index)
        targets = self._active_targets.get(event.incident, {})
        target = targets.get(key)
        self._in_repair.discard(key)
        if (
            target is None
            or event.item_id in self._lost
            or key not in self._degraded
            or target not in self._alive
        ):
            self.metrics.counter(names.SIM_FRAGMENTS_ABANDONED).inc()
            return
        self._placement[event.item_id][event.frag_index] = target
        self._on_disk[target].add(key)
        self.under_replicated_time += self.now - self._degraded.pop(key)
        self.metrics.counter(names.SIM_FRAGMENTS_REPAIRED).inc()

    def _on_repair_finished(self, event: RepairFinished) -> None:
        self._active_targets.pop(event.incident, None)
        self._sweep_repairs("retry")

    # ------------------------------------------------------------------
    # durability accounting
    # ------------------------------------------------------------------
    def _check_loss(self, item_id: str) -> None:
        if item_id in self._lost:
            return
        if len(self._placement.get(item_id, {})) >= self.scheme.required_fragments:
            return
        self._lost.add(item_id)
        self.loss_events.append((self.now, item_id))
        self.metrics.counter(names.SIM_DATA_LOSS_EVENTS).inc()
        # The item is unrecoverable: settle its exposure accounting now.
        for key in [k for k in sorted(self._degraded) if k[0] == item_id]:
            self.under_replicated_time += self.now - self._degraded.pop(key)
            self._in_repair.discard(key)

    # ------------------------------------------------------------------
    # repair planning and execution
    # ------------------------------------------------------------------
    def _sweep_repairs(self, trigger: str) -> None:
        """Batch every unclaimed degraded fragment into one incident."""
        demands: List[RepairDemand] = []
        for item_id, frag in sorted(self._degraded):
            if (item_id, frag) in self._in_repair or item_id in self._lost:
                continue
            placed = self._placement.get(item_id, {})
            demands.append(
                RepairDemand(
                    item_id=item_id,
                    frag_index=frag,
                    holders=tuple(sorted(placed.values())),
                    lost=self.scheme.total_fragments - len(placed),
                )
            )
        if not demands:
            return
        spec = build_repair_instance(
            demands,
            self.scheme,
            self.policy,
            self,
            self._repair_rng,
            {d: self.config.transfer_limit for d in sorted(self._alive)},
        )
        if spec.unplaceable:
            self.metrics.counter(names.SIM_UNPLACEABLE_DEMANDS).inc(
                len(spec.unplaceable)
            )
        if not spec.edge_meta:
            return

        incident = self._next_incident
        self._next_incident += 1
        with self._tracer.span(
            names.SPAN_SIM_INCIDENT,
            incident=incident,
            demands=len(demands),
            transfers=spec.num_transfers,
        ):
            result = plan(
                spec.instance,
                method=self.config.method,
                seed=self.config.seed,
                cache=self._cache,
                tracer=self._tracer,
            )
        self.metrics.counter(names.SIM_INCIDENTS).inc()
        self.metrics.counter(names.SIM_REPAIR_TRANSFERS).inc(spec.num_transfers)
        self.metrics.counter(names.SIM_PLAN_COMPONENTS_SOLVED).inc(
            result.components_solved
        )
        self.metrics.counter(names.SIM_PLAN_COMPONENTS_CACHED).inc(
            result.components_cached
        )
        self.repair_bytes += spec.num_transfers * self.scheme.fragment_size(
            self.config.item_size
        )

        latency = self.config.plan_alpha + self.config.plan_beta * spec.num_transfers
        cluster, context = self._transfer_cluster(spec.instance, spec.edge_meta)
        rate = self._rate_model(spec.instance)
        elapsed = 0.0
        frag_done: Dict[FragKey, float] = {}
        for round_edges in result.schedule.rounds:
            elapsed += rate.round_duration(cluster, context, list(round_edges))
            for eid in round_edges:
                meta = spec.edge_meta[eid]
                key = (meta.item_id, meta.frag_index)
                frag_done[key] = max(frag_done.get(key, 0.0), elapsed)

        targets: Dict[FragKey, str] = {}
        for (item_id, frag), target in sorted(spec.target_of.items()):
            key = (item_id, frag)
            targets[key] = target
            self._in_repair.add(key)
            self._queue.push(
                self.now + latency + frag_done[key],
                FragmentRestored(incident, item_id, frag),
            )
        self._active_targets[incident] = targets
        self._queue.push(self.now + latency + elapsed, RepairFinished(incident))

        makespan = latency + elapsed
        self.metrics.histogram(names.SIM_REPAIR_MAKESPAN).observe(makespan)
        self.incidents.append(
            Incident(
                incident_id=incident,
                start=self.now,
                trigger=trigger,
                demands=len(demands),
                transfers=spec.num_transfers,
                rounds=result.schedule.num_rounds,
                plan_latency=latency,
                makespan=makespan,
                components_solved=result.components_solved,
                components_cached=result.components_cached,
            )
        )

    def _transfer_cluster(
        self,
        instance: MigrationInstance,
        edge_meta: Dict[EdgeId, RepairEdge],
    ) -> Tuple[StorageCluster, MigrationPlanContext]:
        """An ephemeral cluster so network rate models can price rounds.

        One pseudo-item per transfer edge, sized as one fragment and
        placed on the read's source disk.
        """
        cfg = self.config
        disks = [
            Disk(
                disk_id=v,
                transfer_limit=cfg.transfer_limit,
                bandwidth=cfg.bandwidth,
            )
            for v in sorted(str(n) for n in instance.graph.nodes)
        ]
        items: List[DataItem] = []
        layout = Layout()
        edge_items: Dict[EdgeId, str] = {}
        size = self.scheme.fragment_size(cfg.item_size)
        for eid in sorted(edge_meta):
            meta = edge_meta[eid]
            pseudo = f"xfer{eid}"
            items.append(DataItem(item_id=pseudo, size=size))
            layout.place(pseudo, meta.source)
            edge_items[eid] = pseudo
        cluster = StorageCluster(disks, items, layout)
        context = MigrationPlanContext(
            instance=instance, target=Layout(), edge_items=edge_items
        )
        return cluster, context

    def _rate_model(self, instance: MigrationInstance) -> RateModel:
        if not self.config.fabric:
            return FairShareRates()
        participating = sorted(str(v) for v in instance.graph.nodes)
        return FabricRates(
            self.topology.fabric(participating, self.config.uplink_bandwidth)
        )

    # ------------------------------------------------------------------
    # summary accessors (consumed by repro.sim.report)
    # ------------------------------------------------------------------
    @property
    def items_lost(self) -> int:
        return len(self._lost)

    @property
    def degraded_fragments(self) -> int:
        """Fragments still missing at the end of the run."""
        return len(self._degraded)

    @property
    def alive_count(self) -> int:
        return len(self._alive)
