"""First-class instance deltas: the change vocabulary of replanning.

Real fleets do not hand the planner one static instance — demands
arrive as a *stream* of small edits while earlier plans still execute:
a new item wants to move, a pending move is cancelled, a pending move's
destination changes (the item got hotter while queued), a disk's
transfer constraint is re-provisioned.  :class:`InstanceDelta` is the
one canonical description of such an edit, shared by the temperature
workloads (:mod:`repro.workloads.temperature`), online arrivals
(:mod:`repro.extensions.online`) and the incremental replanner
(:func:`repro.plan_delta`).

Moves are **directed**: ``(a, b)`` moves an item from disk ``a`` to
disk ``b`` and is a different move from ``(b, a)``.  A delta edits the
instance's *directed* move multiset.

:func:`apply_delta` turns ``(instance, delta)`` into the patched
instance.  The application order is fixed — **capacities, then
retargets, then removals, then additions** — and each removal (or the
removal half of a retarget) takes the *highest-id* edge carrying
exactly its ``src → dst`` move, so the surviving edges keep their ids
and their pair-slot tokens (:mod:`repro.pipeline.canonical`) are
stable.  An edge running the other way never matches.  New edges draw
fresh ids from the multigraph's high-water mark, exactly as if they
had been added to the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Node

#: ``(source_disk, target_disk)`` — one unit-size item to move.
Move = Tuple[Node, Node]

#: ``(source_disk, old_target, new_target)`` — redirect a pending move.
Retarget = Tuple[Node, Node, Node]

DELTA_SCHEMA_VERSION = 1


class DeltaError(Exception):
    """A delta is malformed or does not apply to the given instance."""


def _as_move_tuple(move: Sequence[Node]) -> Move:
    if len(move) != 2:
        raise DeltaError(f"a move is a (src, dst) pair, got {move!r}")
    src, dst = move
    if src == dst:
        raise DeltaError(f"move {move!r} is a self-move; items never migrate in place")
    return (src, dst)


def _as_retarget_tuple(entry: Sequence[Node]) -> Retarget:
    if len(entry) != 3:
        raise DeltaError(
            f"a retarget is a (src, old_dst, new_dst) triple, got {entry!r}"
        )
    src, old, new = entry
    if src == old or src == new:
        raise DeltaError(f"retarget {entry!r} creates a self-move")
    if old == new:
        raise DeltaError(f"retarget {entry!r} does not change the destination")
    return (src, old, new)


@dataclass(frozen=True)
class InstanceDelta:
    """One batch of edits to a migration instance.

    Fields are applied in declaration order (capacities → retargets →
    removals → additions; see :func:`apply_delta`).  Construction
    normalizes every field to tuples, so deltas are hashable and safe
    to share; ``capacity_changes`` accepts a mapping and is stored as
    ``(node, c_v)`` pairs sorted by node ``repr``.
    """

    add_moves: Tuple[Move, ...] = ()
    remove_moves: Tuple[Move, ...] = ()
    retarget_moves: Tuple[Retarget, ...] = ()
    capacity_changes: Tuple[Tuple[Node, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "add_moves", tuple(_as_move_tuple(m) for m in self.add_moves)
        )
        object.__setattr__(
            self, "remove_moves", tuple(_as_move_tuple(m) for m in self.remove_moves)
        )
        object.__setattr__(
            self,
            "retarget_moves",
            tuple(_as_retarget_tuple(r) for r in self.retarget_moves),
        )
        raw: Union[Mapping[Node, int], Iterable[Tuple[Node, int]]]
        raw = self.capacity_changes
        pairs = list(raw.items()) if isinstance(raw, Mapping) else [
            (node, c) for node, c in raw
        ]
        seen: Dict[str, Node] = {}
        for node, c in pairs:
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise DeltaError(
                    f"capacity of {node!r} must be a positive int, got {c!r}"
                )
            text = repr(node)
            if text in seen:
                raise DeltaError(f"duplicate capacity change for node {node!r}")
            seen[text] = node
        object.__setattr__(
            self,
            "capacity_changes",
            tuple(sorted(pairs, key=lambda pair: repr(pair[0]))),
        )

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not (
            self.add_moves
            or self.remove_moves
            or self.retarget_moves
            or self.capacity_changes
        )

    @property
    def num_changes(self) -> int:
        """Total edit count (each retarget counts once)."""
        return (
            len(self.add_moves)
            + len(self.remove_moves)
            + len(self.retarget_moves)
            + len(self.capacity_changes)
        )

    def touched_nodes(self) -> Tuple[Node, ...]:
        """Every disk named by the delta, sorted by ``repr``."""
        by_repr: Dict[str, Node] = {}
        for u, v in self.add_moves:
            by_repr[repr(u)] = u
            by_repr[repr(v)] = v
        for u, v in self.remove_moves:
            by_repr[repr(u)] = u
            by_repr[repr(v)] = v
        for src, old, new in self.retarget_moves:
            by_repr[repr(src)] = src
            by_repr[repr(old)] = old
            by_repr[repr(new)] = new
        for node, _c in self.capacity_changes:
            by_repr[repr(node)] = node
        return tuple(by_repr[text] for text in sorted(by_repr))

    # ------------------------------------------------------------------
    def compose(self, later: "InstanceDelta") -> "InstanceDelta":
        """Fold a later delta into this one.

        Contract: ``apply_delta(apply_delta(inst, a), b)`` and
        ``apply_delta(inst, a.compose(b))`` produce *structurally*
        identical instances — same nodes, capacities and directed move
        multiset, hence equal fingerprints — though the fresh edge ids
        may differ.  A later removal first cancels a pending addition
        of the same directed move (additions carry the highest ids, so
        the cancelled edge is exactly the one the removal would take).
        """
        caps: Dict[Node, int] = {}
        by_repr: Dict[str, Node] = {}
        for node, c in self.capacity_changes + later.capacity_changes:
            text = repr(node)
            by_repr[text] = node
            caps[node] = c
        merged_caps = tuple(
            (by_repr[text], caps[by_repr[text]]) for text in sorted(by_repr)
        )

        adds: List[Move] = list(self.add_moves)
        removes: List[Move] = list(self.remove_moves)
        retargets: List[Retarget] = list(self.retarget_moves)
        for src, old, new in later.retarget_moves:
            for i in range(len(adds) - 1, -1, -1):
                if adds[i] == (src, old):
                    adds[i] = (src, new)
                    break
            else:
                retargets.append((src, old, new))
        for u, v in later.remove_moves:
            for i in range(len(adds) - 1, -1, -1):
                if adds[i] == (u, v):
                    del adds[i]
                    break
            else:
                removes.append((u, v))
        adds.extend(later.add_moves)
        return InstanceDelta(
            add_moves=tuple(adds),
            remove_moves=tuple(removes),
            retarget_moves=tuple(retargets),
            capacity_changes=merged_caps,
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """JSON form; only deltas over ``str`` disk names round-trip."""
        for node in self.touched_nodes():
            if not isinstance(node, str):
                raise DeltaError(
                    f"to_json requires str disk names, got {node!r}; "
                    "use canonical_payload for digest-only use"
                )
        return {
            "schema_version": DELTA_SCHEMA_VERSION,
            "add": [[u, v] for u, v in self.add_moves],
            "remove": [[u, v] for u, v in self.remove_moves],
            "retarget": [[s, o, n] for s, o, n in self.retarget_moves],
            "capacities": [[node, c] for node, c in self.capacity_changes],
        }

    @classmethod
    def from_json(cls, data: Any) -> "InstanceDelta":
        """Parse :meth:`to_json` output.

        Raises:
            DeltaError: for anything :meth:`to_json` cannot produce — a
                payload that is not a mapping, a field that is not a
                list, an entry of the wrong length, a disk name that is
                not a ``str`` — or an invalid move or capacity.
        """
        if not isinstance(data, Mapping):
            raise DeltaError(
                f"a delta is a JSON object, got {type(data).__name__}"
            )
        version = data.get("schema_version")
        if version != DELTA_SCHEMA_VERSION:
            raise DeltaError(
                f"delta schema {version!r}; this build reads {DELTA_SCHEMA_VERSION}"
            )

        def entries(key: str, width: int, names: int) -> List[Tuple[Any, ...]]:
            """Field ``key`` as tuples of ``width``; the first ``names``
            items of each are disk names."""
            raw = data.get(key, [])
            if not isinstance(raw, (list, tuple)):
                raise DeltaError(
                    f"delta field {key!r} must be a list, got {type(raw).__name__}"
                )
            out: List[Tuple[Any, ...]] = []
            for entry in raw:
                if not isinstance(entry, (list, tuple)) or len(entry) != width:
                    raise DeltaError(
                        f"delta field {key!r}: each entry is a list of "
                        f"{width}, got {entry!r}"
                    )
                for node in entry[:names]:
                    if not isinstance(node, str):
                        raise DeltaError(
                            f"delta field {key!r}: disk names are strings, "
                            f"got {node!r}"
                        )
                out.append(tuple(entry))
            return out

        return cls(
            add_moves=tuple((u, v) for u, v in entries("add", 2, 2)),
            remove_moves=tuple((u, v) for u, v in entries("remove", 2, 2)),
            retarget_moves=tuple(
                (s, o, n) for s, o, n in entries("retarget", 3, 3)
            ),
            capacity_changes=tuple(
                (node, c) for node, c in entries("capacities", 2, 1)
            ),
        )

    def canonical_payload(self) -> Dict[str, Any]:
        """Digest-stable description with nodes rendered by ``repr``.

        Unlike :meth:`to_json` this works for any hashable node type,
        but it is one-way: reprs cannot be resolved back to nodes.
        Field order is preserved — it is part of the delta's identity.
        """
        return {
            "schema_version": DELTA_SCHEMA_VERSION,
            "add": [[repr(u), repr(v)] for u, v in self.add_moves],
            "remove": [[repr(u), repr(v)] for u, v in self.remove_moves],
            "retarget": [
                [repr(s), repr(o), repr(n)] for s, o, n in self.retarget_moves
            ],
            "capacities": [[repr(node), c] for node, c in self.capacity_changes],
        }


def apply_delta(instance: MigrationInstance, delta: InstanceDelta) -> MigrationInstance:
    """The patched instance: ``instance`` after one delta.

    Application order (fixed, documented, relied on by tests):

    1. **capacity changes** — re-provision ``c_v``; a change naming a
       disk the instance has never seen *introduces* that disk (idle
       until a move touches it);
    2. **retargets** — each ``(src, old, new)`` removes the highest-id
       edge moving an item from ``src`` to ``old`` and adds a fresh
       ``(src, new)`` edge;
    3. **removals** — each ``(u, v)`` removes the highest-id edge
       moving an item from ``u`` to ``v``;
    4. **additions** — fresh edges with fresh (strictly increasing)
       ids.

    Removals and retargets match the *directed* move: an edge from
    ``v`` to ``u`` never satisfies a removal of ``(u, v)``, so the
    directed move multiset changes by exactly the delta.  Surviving
    edges keep their ids, so their pair-slot tokens are stable; the id
    high-water mark never decreases, so patched and original edge ids
    never alias.

    Raises:
        DeltaError: when a removal/retarget names a move that is not
            pending (in that direction), or a move touches a disk with
            no known capacity.
        InvalidInstanceError: if the patched capacities are invalid
            (propagated from :class:`MigrationInstance`).
    """
    graph = instance.graph.copy()
    capacities = instance.capacities

    for node, c in delta.capacity_changes:
        capacities[node] = c
        graph.add_node(node)

    def remove_one(u: Node, v: Node, kind: str) -> None:
        eids = [
            eid for eid in graph.edges_between(u, v) if graph.endpoints(eid) == (u, v)
        ]
        if not eids:
            raise DeltaError(f"{kind} ({u!r}, {v!r}) matches no pending move")
        graph.remove_edge(max(eids))

    def require_known(node: Node) -> None:
        if node not in capacities:
            raise DeltaError(
                f"move touches unknown disk {node!r}; introduce it via "
                "capacity_changes first"
            )

    for src, old, new in delta.retarget_moves:
        remove_one(src, old, "retarget")
        require_known(src)
        require_known(new)
        graph.add_edge(src, new)

    for u, v in delta.remove_moves:
        remove_one(u, v, "remove")

    for u, v in delta.add_moves:
        require_known(u)
        require_known(v)
        graph.add_edge(u, v)

    return MigrationInstance(graph, capacities)
