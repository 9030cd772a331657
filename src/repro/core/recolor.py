"""Capacitated partial edge colorings and alternating-path flips.

This is the engine room of the Section V algorithm.  A *capacitated*
coloring allows color ``c`` to appear up to ``c_v`` times at node
``v``; the paper's Definitions 5.1–5.2 and Figure 4 are implemented
here, once, over the CSR arrays of :mod:`repro.graphs.array_backend`:

* :class:`ArrayColoringState` — a partial coloring over ``q`` colors
  with per-node per-color counts and the *missing* / *strongly
  missing* / *lightly missing* predicates of Definition 5.1, read off
  two bitmasks per node.
* :meth:`ArrayColoringState.attempt_flip` — an ab-path flip
  (Definition 5.2).  Unlike the ``c_v = 1`` case, an alternating path
  need not be simple: the walk flips edges ``a→b, b→a, …`` and may
  revisit nodes; internal visits are capacity-neutral and only the two
  endpoints' counts change.  The walk is validated against pending
  deltas and is applied atomically — on failure the state is
  untouched.
* :meth:`ArrayColoringState.try_color_edge` — color one uncolored edge
  using a common missing color directly, or after flips that free a
  color at an endpoint (the operational content of Lemmas 5.1–5.3).

The general solver (:mod:`repro.core.general`), the delta patcher
(:mod:`repro.pipeline.delta`), the greedy baseline and
:mod:`repro.core.edge_orbits` all color with it: each lowers its
instance once with :func:`~repro.graphs.array_backend.lower_instance`
and lifts the coloring back to edge ids with
:func:`~repro.graphs.array_backend.lift_coloring`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.errors import ScheduleValidationError
from repro.graphs.array_backend import CompactGraph
from repro.graphs.multigraph import EdgeId

# Budget of (a, b) pairs tried by try_color_edge before giving up.
DEFAULT_PAIR_BUDGET = 32
# Hard cap on alternating-walk length, as a multiple of |E|.
_WALK_CAP_FACTOR = 2


def mask_bits(mask: int) -> List[int]:
    """The set bit positions of a non-negative ``mask``, ascending."""
    bits: List[int] = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


class ArrayColoringState:
    """A partial capacitated edge coloring with ``q`` colors.

    Nodes and edges are the dense indices of a
    :class:`~repro.graphs.array_backend.CompactGraph` (self-loops
    allowed; a self-loop counts twice toward its node's per-color
    count).  ``color`` is a real dict: its insertion order *is* the
    assignment history, which callers lift into the schedule's
    coloring dict.  Where a choice depends on edge order (the sweep,
    :meth:`preload`), it follows edge *id* order, not index order.

    Two int bitmasks per node stand in for palette scans; ``_bump``,
    the one place counts change, keeps them in step:

    * ``full[v]`` — bit ``c`` set iff ``c`` is not missing at ``v``
      (``count >= c_v``);
    * ``near[v]`` — bit ``c`` set iff ``c`` is not strongly missing
      (``count >= c_v - 1``); ``-1`` (every bit) at a unit-capacity
      node, which never strongly misses a color.

    So the smallest common missing color is the lowest clear bit of
    ``full[u] | full[v]`` below ``q``, and a lightly missing color is a
    bit of ``near[v] & ~full[v]``.  Bits come out ascending, so color
    lists are ascending.  ``counts`` stays: the flip walk adds its
    pending deltas to them.

    Args:
        graph: the transfer multigraph's CSR snapshot.
        capacities: ``c_v`` per node index.
        num_colors: initial palette size ``q``; grows via
            :meth:`add_color`.
        seed: seeds the shuffle of :meth:`try_color_edge`'s color
            pairs.
    """

    def __init__(
        self,
        graph: CompactGraph,
        capacities: Sequence[int],
        num_colors: int,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.cap: List[int] = list(capacities)
        self.q = num_colors
        self.color: Dict[int, int] = {}
        # counts[v][c]: colored edge-ends of color c at node index v.
        self.counts: List[Dict[int, int]] = [{} for _ in range(graph.num_nodes)]
        # edges_at[v][c]: the edge indices realizing counts[v][c], as
        # an insertion-ordered dict used as an ordered set.  Iteration
        # order shapes which edge an ab-walk flips, so it must be a
        # deterministic function of the assignment history — dict
        # insertion order is exactly that, whereas a set of ints
        # iterates in a hash-table order that depends on value
        # distribution.
        self.edges_at: List[Dict[int, Dict[int, None]]] = [
            {} for _ in range(graph.num_nodes)
        ]
        # The masks of the class docstring.  Colors >= q are never
        # assigned, so their full bits stay clear and add_color changes
        # no mask.
        self.full: List[int] = [0] * graph.num_nodes
        self.near: List[int] = [self._empty_near(c) for c in self.cap]
        self.uncolored: Set[int] = set(range(graph.num_edges))
        self._rng = random.Random(seed)

    @staticmethod
    def _empty_near(cap: int) -> int:
        """``near`` of a node no colored edge touches.

        A unit-capacity node has ``count >= c_v - 1 = 0`` for every
        color, so every bit is set (``-1``): it never strongly misses
        a color.
        """
        return -1 if cap == 1 else 0

    def uncolored_in_id_order(self) -> List[int]:
        """Uncolored edge indices sorted by edge *id*.

        Phase 1 sweeps the uncolored edges in edge-id order.  A
        component subgraph's enumeration order preserves ids but need
        not be ascending in them, so index order and id order can
        differ; the sweep order shapes the schedule, and the frozen
        digests pin it.
        """
        return sorted(self.uncolored, key=self.graph.edge_ids.__getitem__)

    # ------------------------------------------------------------------
    # predicates (Definition 5.1), read off the masks
    # ------------------------------------------------------------------
    def count(self, v: int, c: int) -> int:
        return self.counts[v].get(c, 0)

    def is_missing(self, v: int, c: int) -> bool:
        """Color ``c`` is missing at ``v``: fewer than ``c_v`` uses."""
        return not self.full[v] >> c & 1

    def is_strongly_missing(self, v: int, c: int) -> bool:
        """``E_c(v) < c_v - 1`` (at least two uses still available)."""
        return not self.near[v] >> c & 1

    def is_lightly_missing(self, v: int, c: int) -> bool:
        """``E_c(v) == c_v - 1`` (exactly one use available)."""
        return bool((self.near[v] & ~self.full[v]) >> c & 1)

    def is_saturated(self, v: int, c: int) -> bool:
        return bool(self.full[v] >> c & 1)

    def missing_colors(self, v: int) -> List[int]:
        """All colors below ``q`` missing at ``v``, ascending."""
        return mask_bits(~self.full[v] & ((1 << self.q) - 1))

    def strongly_missing_colors(self, v: int) -> List[int]:
        return mask_bits(~self.near[v] & ((1 << self.q) - 1))

    def common_missing_color(self, u: int, v: int) -> Optional[int]:
        """Smallest color below ``q`` missing at both endpoints, or None.

        The lowest clear bit of ``full[u] | full[v]``; for a self-loop
        (``u == v``), of ``near[u]``, since the loop takes two uses.
        """
        busy = self.near[u] if u == v else self.full[u] | self.full[v]
        free = ~busy & ((1 << self.q) - 1)
        if not free:
            return None
        return (free & -free).bit_length() - 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_color(self) -> int:
        """Grow the palette by one; returns the new color index."""
        self.q += 1
        return self.q - 1

    def _bump(self, v: int, c: int, delta: int, e: int, adding: bool) -> None:
        counts = self.counts[v]
        n = counts[c] = counts.get(c, 0) + delta
        cap = self.cap[v]
        bit = 1 << c
        if n >= cap:
            self.full[v] |= bit
            self.near[v] |= bit
        else:
            self.full[v] &= ~bit
            if n == cap - 1:
                self.near[v] |= bit
            else:
                self.near[v] &= ~bit
        slot = self.edges_at[v].setdefault(c, {})
        if adding:
            slot[e] = None
        else:
            slot.pop(e, None)

    def _admits(self, e: int, c: int) -> bool:
        """Uncolored edge ``e`` can take color ``c`` within capacity.

        A loop needs two free uses of ``c`` at its node (near bit
        clear), an ordinary edge one at each endpoint (full bits
        clear).
        """
        u, v = self.graph.edge_u[e], self.graph.edge_v[e]
        busy = self.near[u] if u == v else self.full[u] | self.full[v]
        return not busy >> c & 1

    def assign(self, e: int, c: int) -> None:
        """Color uncolored edge ``e`` with ``c`` (capacity-checked)."""
        if e in self.color:
            raise ScheduleValidationError(
                f"edge {self.graph.edge_ids[e]} already colored"
            )
        if not self._admits(e, c):
            raise ScheduleValidationError(
                f"assigning color {c} to edge {self.graph.edge_ids[e]} "
                f"violates a constraint"
            )
        u, v = self.graph.edge_u[e], self.graph.edge_v[e]
        self.color[e] = c
        self.uncolored.discard(e)
        if u == v:
            self._bump(u, c, 2, e, adding=True)
        else:
            self._bump(u, c, 1, e, adding=True)
            self._bump(v, c, 1, e, adding=True)

    def unassign(self, e: int) -> int:
        """Uncolor edge ``e``; returns the color it had."""
        c = self.color.pop(e)
        self.uncolored.add(e)
        u, v = self.graph.edge_u[e], self.graph.edge_v[e]
        if u == v:
            self._bump(u, c, -2, e, adding=False)
        else:
            self._bump(u, c, -1, e, adding=False)
            self._bump(v, c, -1, e, adding=False)
        return c

    def _recolor(self, e: int, new: int) -> None:
        """Change the color of a colored edge (no capacity check)."""
        old = self.color[e]
        u, v = self.graph.edge_u[e], self.graph.edge_v[e]
        if u == v:
            self._bump(u, old, -2, e, adding=False)
            self._bump(u, new, 2, e, adding=True)
        else:
            self._bump(u, old, -1, e, adding=False)
            self._bump(v, old, -1, e, adding=False)
            self._bump(u, new, 1, e, adding=True)
            self._bump(v, new, 1, e, adding=True)
        self.color[e] = new

    # ------------------------------------------------------------------
    # ab-path flips (Definition 5.2 / Figure 4)
    # ------------------------------------------------------------------
    def attempt_flip(self, start: int, from_color: int, to_color: int) -> bool:
        """Flip an alternating walk starting at node ``start``.

        The walk flips an edge colored ``from_color`` at ``start`` to
        ``to_color`` (so ``start`` must be missing ``to_color``), then
        cascades: whenever the far endpoint would exceed its constraint
        in the new color, one of its edges in that color is flipped
        back to the old color, and so on.  Internal nodes are
        capacity-neutral; the walk ends the first time the far endpoint
        can absorb the new color.

        Returns True and applies the flip atomically if a valid walk is
        found; returns False leaving the state untouched.
        """
        if from_color == to_color:
            return False
        if not self.is_missing(start, to_color):
            return False
        slots = self.edges_at[start].get(from_color)
        if not slots:
            return False

        cap = self.cap
        graph = self.graph
        walk_len_cap = _WALK_CAP_FACTOR * max(1, graph.num_edges)
        # pending[(v, c)] = delta vs. committed counts during the walk.
        pending: Dict[Tuple[int, int], int] = {}
        new_color_of: Dict[int, int] = {}
        used: Set[int] = set()

        def eff(v: int, c: int) -> int:
            return self.count(v, c) + pending.get((v, c), 0)

        def flip_edge(e: int, old: int, new: int, x: int, y: int) -> None:
            new_color_of[e] = new
            used.add(e)
            if x == y:
                pending[(x, old)] = pending.get((x, old), 0) - 2
                pending[(x, new)] = pending.get((x, new), 0) + 2
            else:
                for node in (x, y):
                    pending[(node, old)] = pending.get((node, old), 0) - 1
                    pending[(node, new)] = pending.get((node, new), 0) + 1

        def pick_edge(v: int, want: int, target: int) -> Optional[int]:
            """An unused edge at ``v`` of color ``want``, to flip to
            ``target``; prefers one whose far endpoint can absorb
            ``target`` immediately (ending the walk)."""
            best: Optional[int] = None
            for e in self.edges_at[v].get(want, ()):  # committed color
                if e in used or new_color_of.get(e, want) != want:
                    continue
                other = graph.other_endpoint(e, v)
                if other != v and eff(other, target) < cap[other]:
                    return e
                if best is None:
                    best = e
            return best

        cur = start
        f_from, f_to = from_color, to_color
        steps = 0
        while True:
            steps += 1
            if steps > walk_len_cap:
                return False
            e = pick_edge(cur, f_from, f_to)
            if e is None:
                return False
            other = graph.other_endpoint(e, cur)
            if other == cur:
                # A self-loop flip changes its node by ±2; only valid
                # if the node absorbs both, which contradicts the walk
                # invariant (cur is saturated in f_to) — skip loops by
                # failing this walk.
                return False
            flip_edge(e, f_from, f_to, cur, other)
            if eff(other, f_to) <= cap[other]:
                break  # `other` absorbed the new color: walk complete.
            # `other` now exceeds f_to; continue by flipping one of its
            # f_to edges back to f_from.
            cur = other
            f_from, f_to = f_to, f_from

        # Validate all pending deltas (paranoia: endpoints only).
        for (v, c), _d in pending.items():
            if eff(v, c) > cap[v] or eff(v, c) < 0:
                return False
        for e, new in new_color_of.items():
            self._recolor(e, new)
        return True

    def try_color_edge(self, e: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> bool:
        """Color one uncolored edge, flipping ab-paths if necessary.

        Implements the operational content of Lemmas 5.1–5.2: first
        look for a common missing color; otherwise, for colors ``a``
        missing at one endpoint and ``b`` missing at the other, flip an
        ab-walk to free a shared color.  Returns True on success.
        """
        u, v = self.graph.edge_u[e], self.graph.edge_v[e]
        c = self.common_missing_color(u, v)
        if c is not None:
            self.assign(e, c)
            return True
        if u == v:
            return False

        miss_u = self.missing_colors(u)
        miss_v = self.missing_colors(v)
        if not miss_u or not miss_v:
            return False
        pairs = [(a, b) for a in miss_u for b in miss_v if a != b]
        self._rng.shuffle(pairs)
        for a, b in pairs[:pair_budget]:
            # Free color a at v by flipping an a-walk at v into b — or
            # free b at u symmetrically; whichever works first.
            if self.is_saturated(v, a) and self.attempt_flip(v, a, b):
                c = self.common_missing_color(u, v)
                if c is not None:
                    self.assign(e, c)
                    return True
            if self.is_saturated(u, b) and self.attempt_flip(u, b, a):
                c = self.common_missing_color(u, v)
                if c is not None:
                    self.assign(e, c)
                    return True
        return False

    def preload(self, coloring: Mapping[EdgeId, int]) -> List[EdgeId]:
        """Warm-start the state from a prior (possibly stale) coloring.

        ``coloring`` is keyed by edge *id*.  Entries are admitted in
        ascending edge-id order; an entry is *rejected* — left
        uncolored, never partially applied — when its color falls
        outside the current palette or would violate a transfer
        constraint (both happen when the instance changed under the
        prior plan: shrunken capacities, removed parallel edges freeing
        slots other survivors now contend for, …).  Entries for edges
        the graph does not contain raise, because the caller was
        supposed to restrict the coloring first (see
        :meth:`repro.core.schedule.MigrationSchedule.restrict`).

        Returns the rejected edge ids, ascending.  This is the repair
        entry point of incremental replanning: reject list + still
        uncolored edges are then driven through
        :meth:`try_color_edge`.
        """
        index_of = self.graph.edge_index_of
        rejected: List[EdgeId] = []
        for eid in sorted(coloring):
            e, c = index_of[eid], coloring[eid]
            if 0 <= c < self.q and self._admits(e, c):
                self.assign(e, c)
            else:
                rejected.append(eid)
        return rejected

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, require_complete: bool = False) -> None:
        """Recompute every cache from the coloring and compare.

        Rebuilds each node's color classes from ``color`` alone and
        checks every capacity, every cached count (an absent one is 0)
        and every ``edges_at`` slot (an absent one is empty; ``_bump``
        leaves zeros and empty slots behind) against them, then the
        ``full`` and ``near`` masks the real counts give.

        Raises:
            ScheduleValidationError: on any inconsistency or capacity
                violation.
        """
        if require_complete and self.uncolored:
            raise ScheduleValidationError(f"{len(self.uncolored)} edges uncolored")
        graph = self.graph
        classes: List[Dict[int, Set[int]]] = [{} for _ in range(graph.num_nodes)]
        real: List[Dict[int, int]] = [{} for _ in range(graph.num_nodes)]
        for e, c in self.color.items():
            if not 0 <= c < self.q:
                raise ScheduleValidationError(
                    f"edge {graph.edge_ids[e]} has color {c} outside palette"
                )
            # A self-loop visits its node twice: two uses, one slot.
            for x in (graph.edge_u[e], graph.edge_v[e]):
                classes[x].setdefault(c, set()).add(e)
                real[x][c] = real[x].get(c, 0) + 1
        for v in range(graph.num_nodes):
            cap, counts, slots = self.cap[v], self.counts[v], self.edges_at[v]
            where = graph.nodes[v]
            for c in sorted(set(real[v]) | set(counts)):
                n = real[v].get(c, 0)
                if n > cap:
                    raise ScheduleValidationError(
                        f"node {where!r} has {n} edges of color {c} but c_v={cap}"
                    )
                if counts.get(c, 0) != n:
                    raise ScheduleValidationError(
                        f"count drift at ({where!r}, {c}): cached "
                        f"{counts.get(c, 0)}, real {n}"
                    )
            for c in sorted(set(classes[v]) | set(slots)):
                cached = set(slots.get(c, ()))
                members = classes[v].get(c, set())
                if cached != members:
                    raise ScheduleValidationError(
                        f"edges_at drift at ({where!r}, {c}): cached "
                        f"{sorted(graph.edge_ids[e] for e in cached)}, "
                        f"real {sorted(graph.edge_ids[e] for e in members)}"
                    )
            full, near = 0, self._empty_near(cap)
            for c, n in real[v].items():
                if n >= cap:
                    full |= 1 << c
                if n >= cap - 1:
                    near |= 1 << c
            if full != self.full[v] or near != self.near[v]:
                raise ScheduleValidationError(
                    f"mask drift at {where!r}: cached full={self.full[v]:#x} "
                    f"near={self.near[v]:#x}, real full={full:#x} near={near:#x}"
                )
