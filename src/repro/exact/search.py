"""Deterministic DFS branch-and-bound over the compact CSR arrays.

The solver proves true optima on small instances (≤ 16 items, ≤ 14
disks — the same caps as the exact LB2 machinery) for all three
objectives of :mod:`repro.core.objectives`:

* **makespan** — iterative deepening on the round count ``k`` from the
  certified lower bound up to the Theorem 5.1 heuristic incumbent; the
  first feasible ``k`` is optimal because every smaller ``k`` was
  exhausted.
* **bounded color** — iterative deepening on the timeline length ``T``;
  per-item allowed-round sets restrict the candidate rounds, so round
  indices are significant and the result may contain empty rounds.
* **group completion** — a single DFS minimizing ``Σ w_g · C_g`` with a
  greedy first-fit incumbent; round indices are branched exhaustively
  (``K ≤ m`` suffices: deleting an empty round and shifting later
  rounds down never increases any completion, so some optimal schedule
  has no empty rounds).

Search design (shared by the fixed-``k`` feasibility DFS):

* **edge order** — edges are ordered by the degeneracy peel of the
  transfer graph: nodes are repeatedly removed at minimum remaining
  degree, and edges incident to the densest core (largest peel step)
  are branched first, ties broken by edge index.  The order is a pure
  function of the CSR arrays.
* **symmetry breaking** — for makespan, color classes are
  interchangeable orbits under any permutation of rounds; the canonical
  orbit ordering opens round ``j`` only when rounds ``0..j-1`` are
  already open, so each coloring is visited in exactly one
  representative ordering.  Round-indexed objectives get no such break
  (indices are wall-clock time).
* **pruning** — (a) per-node feasibility propagation: a disk with
  ``rem_deg_v`` unscheduled incident items must satisfy
  ``rem_deg_v ≤ k·c_v − placed_v``; (b) Lemma 3.1 subset pruning: for
  the densest connected subsets (enumerated once by the shared
  :mod:`repro.exact.subsets` iterator — the same iterator behind the
  exact LB2 witness), the remaining internal edges of ``S`` must fit in
  ``Σ_r ⌊(Σ_{v∈S} c_v − load_v,r) / 2⌋``; (c) for bounded color, every
  unscheduled item incident to a touched disk must retain at least one
  allowed round with spare capacity at both endpoints.
* **budget** — every branch taken counts against a node budget; on
  exhaustion the search raises the typed :class:`ExactBudgetExceeded`
  instead of silently degrading.

Every result carries a tamper-evident :class:`OptimalityCertificate`:
sha256 digests binding the instance, the objective, the emitted rounds
and the explored-subproblem sequence, plus the proof form — either
``matching-lb`` (the value equals an independently recomputable lower
bound) or ``exhausted-frontier`` (re-verified by deterministically
replaying the search and comparing certificates).  The search never
consults the RNG or the clock, so replays are exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import SolverError
from repro.core.general import general_schedule_compact
from repro.core.lower_bounds import EXACT_LB2_NODE_LIMIT, lower_bound
from repro.core.objectives import (
    BoundedColorObjective,
    GroupCompletionObjective,
    MakespanObjective,
    Objective,
    ensure_objective,
)
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.exact.subsets import connected_subsets, mask_members, multiplicity_table
from repro.graphs.array_backend import CompactInstance, lift_rounds, lower_instance

#: Applicability cap on items: beyond this the search space is too
#: large for a guaranteed-exact answer.
EXACT_SEARCH_EDGE_LIMIT = 16

#: Applicability cap on disks — shared with the exact LB2 enumeration,
#: so inside the cap the root lower bound is the *true* Γ'.
EXACT_SEARCH_NODE_LIMIT = EXACT_LB2_NODE_LIMIT

#: Default branch budget; exceeding it raises :class:`ExactBudgetExceeded`.
DEFAULT_NODE_BUDGET = 2_000_000

#: How many of the densest connected subsets the Lemma 3.1 pruner tracks.
MAX_TRACKED_SUBSETS = 6

#: Registry name of the solver (also the schedule ``method`` label).
EXACT_BB_METHOD = "exact_bb"

CERTIFICATE_VERSION = 1

PROOF_MATCHING_LB = "matching-lb"
PROOF_EXHAUSTED = "exhausted-frontier"


class ExactBudgetExceeded(SolverError):
    """The branch-and-bound budget ran out before optimality was proven.

    Attributes:
        explored: branches taken when the budget tripped.
        budget: the configured budget.
        best_value: objective value of the best incumbent found, if any.
    """

    def __init__(self, explored: int, budget: int, best_value: Optional[int]) -> None:
        self.explored = explored
        self.budget = budget
        self.best_value = best_value
        detail = f"best incumbent {best_value}" if best_value is not None else "no incumbent"
        super().__init__(
            f"exact search exceeded its budget of {budget} branches ({detail})"
        )


class InfeasibleObjectiveError(SolverError):
    """No schedule satisfies the objective (e.g. incompatible windows)."""


def instance_digest(instance: MigrationInstance) -> str:
    """sha256 over the relabeling-stable canonical instance payload."""
    caps = sorted((repr(v), c) for v, c in instance.capacities.items())
    moves: List[Tuple[str, str]] = []
    for _eid, u, v in instance.graph.edges():
        ru, rv = repr(u), repr(v)
        moves.append((ru, rv) if ru <= rv else (rv, ru))
    payload = json.dumps(
        {"capacities": caps, "moves": sorted(moves)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def exact_rounds_digest(rounds: Sequence[Sequence[int]]) -> str:
    """sha256 of the round structure, empty rounds significant."""
    canon = [sorted(int(eid) for eid in rnd) for rnd in rounds]
    payload = json.dumps(canon, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class OptimalityCertificate:
    """Tamper-evident proof that an exact result is optimal.

    ``proof`` is either :data:`PROOF_MATCHING_LB` — the value equals a
    lower bound any verifier can recompute from the instance and
    objective alone — or :data:`PROOF_EXHAUSTED`, which
    :func:`verify_optimality` re-establishes by replaying the
    deterministic search and comparing every field, including the
    running sha256 over the explored-subproblem sequence.
    """

    objective_kind: str
    objective_digest: str
    instance_digest: str
    value: int
    lower_bound: int
    proof: str
    explored: int
    budget: int
    frontier_digest: str
    rounds_digest: str
    version: int = CERTIFICATE_VERSION


@dataclass(frozen=True)
class ExactResult:
    """An optimal schedule plus its proof."""

    schedule: MigrationSchedule
    value: int
    lower_bound: int
    explored: int
    objective: Objective
    certificate: OptimalityCertificate


def _check_applicable(instance: MigrationInstance) -> None:
    if instance.num_items > EXACT_SEARCH_EDGE_LIMIT:
        raise ValueError(
            f"exact search caps at {EXACT_SEARCH_EDGE_LIMIT} items, "
            f"instance has {instance.num_items}"
        )
    if instance.num_disks > EXACT_SEARCH_NODE_LIMIT:
        raise ValueError(
            f"exact search caps at {EXACT_SEARCH_NODE_LIMIT} disks, "
            f"instance has {instance.num_disks}"
        )


def _degeneracy_edge_order(ci: CompactInstance) -> List[int]:
    """Edge indices, densest core first (see module docstring)."""
    g = ci.graph
    n = g.num_nodes
    rem = list(g.degree)
    removed = [False] * n
    peel = [0] * n
    for step in range(n):
        best = -1
        for i in range(n):
            if not removed[i] and (best < 0 or rem[i] < rem[best]):
                best = i
        removed[best] = True
        peel[best] = step
        for idx in range(g.indptr[best], g.indptr[best + 1]):
            other = g.inc_other[idx]
            if not removed[other]:
                rem[other] -= 1

    def key(e: int) -> Tuple[int, int, int]:
        pu, pv = peel[g.edge_u[e]], peel[g.edge_v[e]]
        return (-min(pu, pv), -max(pu, pv), e)

    return sorted(range(g.num_edges), key=key)


def _dense_subsets(ci: CompactInstance) -> List[Tuple[Tuple[int, ...], int]]:
    """The densest connected subsets for the Lemma 3.1 pruner.

    Returns up to :data:`MAX_TRACKED_SUBSETS` ``(node_indices,
    edges_inside)`` pairs, ordered by descending density bound then by
    the subset itself — a pure function of the CSR arrays, via the same
    :func:`repro.exact.subsets.connected_subsets` iterator that powers
    the exact LB2 witness.
    """
    g = ci.graph
    table = multiplicity_table(g.num_nodes, zip(g.edge_u, g.edge_v))
    scored: List[Tuple[int, Tuple[int, ...], int]] = []
    for mask, inside, capsum in connected_subsets(table, ci.capacities):
        half = capsum // 2
        if inside == 0 or half == 0:
            continue
        bound = -(-inside // half)
        if bound >= 2:
            scored.append((bound, mask_members(mask), inside))
    scored.sort(key=lambda item: (-item[0], len(item[1]), item[1]))
    return [(combo, inside) for _bound, combo, inside in scored[:MAX_TRACKED_SUBSETS]]


class _Tracker:
    """Per-subset state for the Lemma 3.1 dynamic prune."""

    __slots__ = ("nodes", "mask", "rem")

    def __init__(self, nodes: Tuple[int, ...], edges_inside: int) -> None:
        self.nodes = nodes
        self.mask = 0
        for v in nodes:
            self.mask |= 1 << v
        self.rem = edges_inside


class _Search:
    """One branch-and-bound run; never touches RNG or clock."""

    def __init__(
        self,
        instance: MigrationInstance,
        objective: Objective,
        node_budget: int,
    ) -> None:
        self.instance = instance
        self.objective = objective
        self.budget = node_budget
        self.explored = 0
        self.best_value: Optional[int] = None
        self._hasher = hashlib.sha256()
        self.ci = lower_instance(instance)
        g = self.ci.graph
        self.n = g.num_nodes
        self.m = g.num_edges
        self.caps = self.ci.capacities
        self.eu = g.edge_u
        self.ev = g.edge_v
        self.order = _degeneracy_edge_order(self.ci)
        self.subsets = _dense_subsets(self.ci)

    # -- bookkeeping ----------------------------------------------------
    def _mark(self, event: str) -> None:
        self._hasher.update(event.encode())

    def _tick(self, edge_pos: int, round_index: int) -> None:
        self.explored += 1
        self._hasher.update(b"%d:%d;" % (edge_pos, round_index))
        if self.explored > self.budget:
            raise ExactBudgetExceeded(self.explored, self.budget, self.best_value)

    def frontier_digest(self) -> str:
        return self._hasher.hexdigest()

    # -- fixed-k feasibility DFS (makespan & bounded color) -------------
    def feasible(
        self, k: int, allowed: Optional[List[Tuple[int, ...]]]
    ) -> Optional[List[List[int]]]:
        """A feasible assignment of all edges to rounds ``0..k-1``.

        ``allowed`` maps edge *index* to its candidate rounds (bounded
        color); ``None`` means any round, with the canonical-orbit
        symmetry break.  Returns ``k`` rounds of edge indices (some
        possibly empty) or ``None``.
        """
        n, m, caps = self.n, self.m, self.caps
        eu, ev, order = self.eu, self.ev, self.order
        load = [[0] * k for _ in range(n)]
        rem_deg = list(self.ci.graph.degree)
        free = [caps[v] * k for v in range(n)]
        for v in range(n):
            if rem_deg[v] > free[v]:
                return None
        trackers = [_Tracker(nodes, inside) for nodes, inside in self.subsets]
        assign = [-1] * m
        self._mark("k%d;" % k)

        def tracker_ok(tracker: _Tracker) -> bool:
            rem = tracker.rem
            if rem == 0:
                return True
            capacity = 0
            for r in range(k):
                capsum = 0
                for v in tracker.nodes:
                    capsum += caps[v] - load[v][r]
                capacity += capsum // 2
                if capacity >= rem:
                    return True
            return capacity >= rem

        def windows_open(v: int) -> bool:
            # Bounded color only: every unscheduled edge at ``v`` must
            # retain an allowed round with slack at both endpoints.
            assert allowed is not None
            g = self.ci.graph
            for idx in range(g.indptr[v], g.indptr[v + 1]):
                e = g.inc_edge[idx]
                if assign[e] >= 0:
                    continue
                a, b = eu[e], ev[e]
                if not any(
                    load[a][r] < caps[a] and load[b][r] < caps[b]
                    for r in allowed[e]
                    if r < k
                ):
                    return False
            return True

        def dfs(i: int, used: int) -> bool:
            if i == m:
                return True
            e = order[i]
            u, v = eu[e], ev[e]
            if allowed is None:
                candidates: Sequence[int] = range(min(used + 1, k))
            else:
                candidates = [r for r in allowed[e] if r < k]
            for r in candidates:
                if load[u][r] >= caps[u] or load[v][r] >= caps[v]:
                    continue
                self._tick(i, r)
                load[u][r] += 1
                load[v][r] += 1
                free[u] -= 1
                free[v] -= 1
                rem_deg[u] -= 1
                rem_deg[v] -= 1
                assign[e] = r
                touched = [
                    t
                    for t in trackers
                    if (t.mask >> u) & 1 or (t.mask >> v) & 1
                ]
                for t in touched:
                    if (t.mask >> u) & 1 and (t.mask >> v) & 1:
                        t.rem -= 1
                ok = (
                    rem_deg[u] <= free[u]
                    and rem_deg[v] <= free[v]
                    and all(tracker_ok(t) for t in touched)
                )
                if ok and allowed is not None:
                    ok = windows_open(u) and windows_open(v)
                if ok:
                    next_used = used
                    if allowed is None and r == used:
                        next_used = used + 1
                    if dfs(i + 1, next_used):
                        return True
                for t in touched:
                    if (t.mask >> u) & 1 and (t.mask >> v) & 1:
                        t.rem += 1
                assign[e] = -1
                load[u][r] -= 1
                load[v][r] -= 1
                free[u] += 1
                free[v] += 1
                rem_deg[u] += 1
                rem_deg[v] += 1
            return False

        if not dfs(0, 0):
            self._mark("X%d;" % k)
            return None
        rounds: List[List[int]] = [[] for _ in range(k)]
        for e in range(m):
            rounds[assign[e]].append(e)
        return [sorted(rnd) for rnd in rounds]

    # -- group completion DFS -------------------------------------------
    def minimize_group(
        self, objective: GroupCompletionObjective
    ) -> Tuple[List[List[int]], int, int]:
        """Optimal rounds, value, and trivial lower bound ``Σ w_g``."""
        g = self.ci.graph
        weights = objective.weights
        names = sorted(weights)
        gid_of_name = {name: i for i, name in enumerate(names)}
        w = [weights[name] for name in names]
        gid = [gid_of_name[objective.group_of(g.edge_ids[e])] for e in range(self.m)]
        base_lb = sum(w)
        n, m, caps = self.n, self.m, self.caps
        eu, ev = self.eu, self.ev
        if m == 0:
            return [], 0, 0
        K = m
        # Heavy groups first, then the degeneracy order.
        degeneracy_pos = {e: i for i, e in enumerate(self.order)}
        order = sorted(range(m), key=lambda e: (-w[gid[e]], degeneracy_pos[e]))
        self._mark("G%d;" % K)

        # Greedy first-fit incumbent in the same order.
        load = [[0] * K for _ in range(n)]
        greedy_assign = [-1] * m
        for e in order:
            u, v = eu[e], ev[e]
            for r in range(K):
                if load[u][r] < caps[u] and load[v][r] < caps[v]:
                    greedy_assign[e] = r
                    load[u][r] += 1
                    load[v][r] += 1
                    break
        comp = [0] * len(w)
        for e in range(m):
            comp[gid[e]] = max(comp[gid[e]], greedy_assign[e] + 1)
        best_value = sum(w[i] * comp[i] for i in range(len(w)))
        best_assign = list(greedy_assign)
        self.best_value = best_value
        self._mark("I%d;" % best_value)

        if best_value > base_lb:
            load = [[0] * K for _ in range(n)]
            assign = [-1] * m
            comp = [0] * len(w)
            pending = [0] * len(w)
            for e in range(m):
                pending[gid[e]] += 1

            def bound() -> int:
                total = 0
                for i in range(len(w)):
                    c = comp[i]
                    if pending[i] > 0 and c == 0:
                        c = 1
                    total += w[i] * c
                return total

            def dfs(pos: int, value_bound: int) -> None:
                nonlocal best_value, best_assign
                if pos == m:
                    if value_bound < best_value:
                        best_value = value_bound
                        best_assign = list(assign)
                        self.best_value = best_value
                        self._mark("U%d;" % best_value)
                    return
                e = order[pos]
                u, v = eu[e], ev[e]
                gi = gid[e]
                for r in range(K):
                    if load[u][r] >= caps[u] or load[v][r] >= caps[v]:
                        continue
                    prev_comp = comp[gi]
                    comp[gi] = max(prev_comp, r + 1)
                    pending[gi] -= 1
                    new_bound = bound()
                    if new_bound < best_value:
                        self._tick(pos, r)
                        load[u][r] += 1
                        load[v][r] += 1
                        assign[e] = r
                        dfs(pos + 1, new_bound)
                        assign[e] = -1
                        load[u][r] -= 1
                        load[v][r] -= 1
                    comp[gi] = prev_comp
                    pending[gi] += 1

            dfs(0, 0)

        rounds: List[List[int]] = [[] for _ in range(K)]
        for e in range(m):
            rounds[best_assign[e]].append(e)
        compact = [sorted(rnd) for rnd in rounds if rnd]
        return compact, best_value, base_lb


def _bounded_candidates(
    search: _Search, objective: BoundedColorObjective
) -> Tuple[List[Tuple[int, ...]], int, int]:
    """Per-edge-index windows plus the window LB and timeline cap."""
    g = search.ci.graph
    allowed: List[Tuple[int, ...]] = [
        objective.allowed_rounds(g.edge_ids[e]) for e in range(search.m)
    ]
    window_lb = max((min(win) + 1 for win in allowed), default=0)
    horizon = max((max(win) + 1 for win in allowed), default=0)
    return allowed, window_lb, horizon


def solve_exact(
    instance: MigrationInstance,
    objective: Optional[Objective] = None,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExactResult:
    """Solve ``instance`` to proven optimality for ``objective``.

    Args:
        instance: at most :data:`EXACT_SEARCH_EDGE_LIMIT` items and
            :data:`EXACT_SEARCH_NODE_LIMIT` disks.
        objective: ``None`` means makespan.
        node_budget: branch budget; exceeded ⇒
            :class:`ExactBudgetExceeded`.

    Returns:
        An :class:`ExactResult` whose schedule is validated, whose
        value is the true optimum, and whose certificate
        :func:`verify_optimality` accepts.

    Raises:
        ValueError: instance exceeds the applicability caps.
        InfeasibleObjectiveError: no schedule satisfies the objective.
        ExactBudgetExceeded: the budget ran out.
    """
    _check_applicable(instance)
    obj = ensure_objective(objective)
    obj.validate(instance)
    search = _Search(instance, obj, node_budget)

    keep_empty = False
    if isinstance(obj, BoundedColorObjective):
        rounds_idx, value, lb, proof = _solve_bounded(search, obj)
        keep_empty = True
    elif isinstance(obj, GroupCompletionObjective):
        rounds_idx, value, lb = search.minimize_group(obj)
        proof = PROOF_MATCHING_LB if value == lb else PROOF_EXHAUSTED
    else:
        rounds_idx, value, lb, proof = _solve_makespan(search)

    lifted = lift_rounds(search.ci.graph, rounds_idx)
    lifted = [sorted(rnd) for rnd in lifted]
    schedule = MigrationSchedule(lifted, method=EXACT_BB_METHOD, keep_empty=keep_empty)
    schedule.validate(instance)
    obj.check(instance, schedule.rounds)
    recomputed = obj.value(instance, schedule.rounds)
    if recomputed != value:
        raise SolverError(
            f"exact search value {value} disagrees with objective value {recomputed}"
        )
    certificate = OptimalityCertificate(
        objective_kind=obj.kind,
        objective_digest=obj.digest(),
        instance_digest=instance_digest(instance),
        value=value,
        lower_bound=lb,
        proof=proof,
        explored=search.explored,
        budget=node_budget,
        frontier_digest=search.frontier_digest(),
        rounds_digest=exact_rounds_digest(schedule.rounds),
    )
    return ExactResult(
        schedule=schedule,
        value=value,
        lower_bound=lb,
        explored=search.explored,
        objective=obj,
        certificate=certificate,
    )


def _solve_makespan(search: _Search) -> Tuple[List[List[int]], int, int, str]:
    instance = search.instance
    lb = lower_bound(instance)
    heuristic = general_schedule_compact(search.ci, seed=0)
    upper = heuristic.num_rounds
    search._mark("L%d;U%d;" % (lb, upper))
    if upper == lb:
        # Heuristic already matches the certified lower bound.
        index_of = search.ci.graph.edge_index_of
        rounds = [sorted(index_of[eid] for eid in rnd) for rnd in heuristic.rounds]
        return rounds, lb, lb, PROOF_MATCHING_LB
    for k in range(lb, upper):
        solution = search.feasible(k, allowed=None)
        if solution is not None:
            proof = PROOF_MATCHING_LB if k == lb else PROOF_EXHAUSTED
            return [rnd for rnd in solution if rnd], k, lb, proof
    index_of = search.ci.graph.edge_index_of
    rounds = [sorted(index_of[eid] for eid in rnd) for rnd in heuristic.rounds]
    return rounds, upper, lb, PROOF_EXHAUSTED


def _solve_bounded(
    search: _Search, objective: BoundedColorObjective
) -> Tuple[List[List[int]], int, int, str]:
    instance = search.instance
    if search.m == 0:
        return [], 0, 0, PROOF_MATCHING_LB
    allowed, window_lb, horizon = _bounded_candidates(search, objective)
    lb = max(lower_bound(instance), window_lb)
    search._mark("B%d;H%d;" % (lb, horizon))
    for timeline in range(lb, horizon + 1):
        if any(not any(r < timeline for r in win) for win in allowed):
            search._mark("W%d;" % timeline)
            continue
        solution = search.feasible(timeline, allowed=allowed)
        if solution is not None:
            proof = PROOF_MATCHING_LB if timeline == lb else PROOF_EXHAUSTED
            return solution, timeline, lb, proof
    raise InfeasibleObjectiveError(
        f"no schedule satisfies the allowed-round sets within horizon {horizon}"
    )


def verify_optimality(
    instance: MigrationInstance,
    objective: Objective,
    schedule: MigrationSchedule,
    certificate: OptimalityCertificate,
) -> None:
    """Re-establish an :class:`OptimalityCertificate` without trust.

    Checks, in order: digest bindings (instance, objective, rounds),
    objective-specific feasibility, the claimed value, and the proof —
    by recomputing the lower bound for ``matching-lb``, or by replaying
    the deterministic search and comparing certificates field-for-field
    for ``exhausted-frontier``.

    Raises:
        ValueError: on any mismatch (the certificate is rejected).
    """
    if certificate.version != CERTIFICATE_VERSION:
        raise ValueError(f"unsupported certificate version {certificate.version}")
    if certificate.objective_kind != objective.kind:
        raise ValueError(
            f"certificate objective kind {certificate.objective_kind!r} "
            f"!= {objective.kind!r}"
        )
    if certificate.objective_digest != objective.digest():
        raise ValueError("certificate does not bind this objective")
    if certificate.instance_digest != instance_digest(instance):
        raise ValueError("certificate does not bind this instance")
    if certificate.rounds_digest != exact_rounds_digest(schedule.rounds):
        raise ValueError("certificate does not bind this schedule")
    schedule.validate(instance)
    objective.check(instance, schedule.rounds)
    value = objective.value(instance, schedule.rounds)
    if value != certificate.value:
        raise ValueError(
            f"schedule value {value} != certified value {certificate.value}"
        )
    if certificate.proof == PROOF_MATCHING_LB:
        lb = _independent_lower_bound(instance, objective)
        if certificate.lower_bound != lb:
            raise ValueError(
                f"certified lower bound {certificate.lower_bound} != recomputed {lb}"
            )
        if value != lb:
            raise ValueError(
                f"matching-lb proof but value {value} != lower bound {lb}"
            )
        return
    if certificate.proof != PROOF_EXHAUSTED:
        raise ValueError(f"unknown proof form {certificate.proof!r}")
    try:
        replayed = solve_exact(instance, objective, node_budget=certificate.budget)
    except SolverError as exc:
        raise ValueError(f"replayed search failed: {exc}") from exc
    if replayed.certificate != certificate:
        raise ValueError("replayed search does not reproduce the certificate")


def _independent_lower_bound(
    instance: MigrationInstance, objective: Objective
) -> int:
    """The lower bound a ``matching-lb`` verifier recomputes itself."""
    if isinstance(objective, BoundedColorObjective):
        if instance.num_items == 0:
            return 0
        window_lb = max(
            (min(objective.allowed_rounds(eid)) + 1 for eid in instance.graph.edge_ids()),
            default=0,
        )
        return max(lower_bound(instance), window_lb)
    if isinstance(objective, GroupCompletionObjective):
        if instance.num_items == 0:
            return 0
        return sum(objective.weights.values())
    if isinstance(objective, MakespanObjective):
        return lower_bound(instance)
    raise ValueError(f"no independent lower bound for objective {objective.kind!r}")


#: The ``MigrationInstance.memo`` key of the makespan optimum.
_MEMO_KEY = "exact_makespan"


def makespan_optimum(instance: MigrationInstance) -> ExactResult:
    """The makespan-optimal :class:`ExactResult`, searched once per instance.

    The result lives in ``instance.memo``: :func:`exact_bb_schedule`
    and the planner's optimality attachment share one search.
    :func:`solve_exact` itself keeps no memo, so a
    :func:`verify_optimality` replay is always a real search.
    """
    known: Optional[ExactResult] = instance.memo.get(_MEMO_KEY)
    if known is None:
        known = instance.memo[_MEMO_KEY] = solve_exact(instance, MakespanObjective())
    return known


def exact_bb_schedule(
    instance: MigrationInstance,
    seed: int = 0,
    stats: object = None,
) -> MigrationSchedule:
    """Registry adapter: the makespan-optimal schedule for ``instance``.

    ``seed`` and ``stats`` are accepted for signature compatibility and
    ignored — the search is deterministic and seed-free.
    """
    del seed, stats
    return makespan_optimum(instance).schedule
