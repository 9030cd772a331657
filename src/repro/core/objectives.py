"""Scheduling objectives beyond makespan.

The paper's objective is *makespan*: the number of rounds.  Two
generalizations from the related work are modeled here:

* **Bounded edge coloring** (Turner, "The Bounded Edge Coloring Problem
  and Offline Crossbar Scheduling"): every item carries a set of
  *allowed rounds* — maintenance windows, link blackouts — and the
  schedule must place each item in one of its allowed rounds while
  minimizing the timeline length.  Round indices are significant, so a
  bounded-color schedule may contain deliberately empty rounds.
* **Group completion times** (Rohwedder–Schnaars, "Graph Scheduling
  with Group Completion Times"): items belong to named groups (tenants)
  with positive integer weights, and the objective is the weighted sum
  of group completion rounds ``Σ_g w_g · C_g`` where ``C_g`` is the
  1-based round in which the last item of group ``g`` moves.

Every objective knows how to *validate* itself against an instance,
*check* a proposed schedule for objective-specific feasibility, and
compute its *value* — the certifier re-runs all three without trusting
the solver.  Objectives serialize to JSON with a canonical (sorted,
compact) payload so certificates can bind to a sha256 digest of the
objective itself.
"""

from __future__ import annotations

import hashlib
import json
import re
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.errors import ReproError
from repro.graphs.multigraph import EdgeId

if TYPE_CHECKING:  # annotation-only: problem.py imports this module
    from repro.core.problem import MigrationInstance

OBJECTIVE_FORMAT_VERSION = 1

Rounds = Sequence[Sequence[EdgeId]]


class ObjectiveError(ReproError, ValueError):
    """An objective is malformed, inapplicable, or violated."""


class Objective(ABC):
    """What a schedule is optimized for.

    Subclasses define a stable ``kind`` tag, structural validation
    against an instance, objective-specific feasibility of a round
    structure, and the objective value.  ``rounds`` are always taken
    *with* empty rounds significant: for round-indexed objectives an
    empty round still advances time.
    """

    kind: str = "abstract"

    @abstractmethod
    def validate(self, instance: MigrationInstance) -> None:
        """Raise :class:`ObjectiveError` if ``self`` cannot apply to
        ``instance`` (e.g. an item without an allowed-round set)."""

    @abstractmethod
    def check(self, instance: MigrationInstance, rounds: Rounds) -> None:
        """Raise :class:`ObjectiveError` on an objective-specific
        violation (coverage and capacity are checked elsewhere)."""

    @abstractmethod
    def value(self, instance: MigrationInstance, rounds: Rounds) -> int:
        """The objective value of ``rounds`` (smaller is better)."""

    @abstractmethod
    def payload(self) -> Dict[str, Any]:
        """JSON-serializable canonical payload (sorted containers)."""

    def to_json(self, indent: int = 2) -> str:
        data = {
            "format": "repro-objective",
            "version": OBJECTIVE_FORMAT_VERSION,
            "kind": self.kind,
        }
        data.update(self.payload())
        return json.dumps(data, indent=indent, sort_keys=True)

    def canonical_payload(self) -> str:
        """Compact, key-sorted JSON — the digest pre-image."""
        data = {"kind": self.kind}
        data.update(self.payload())
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """sha256 over :meth:`canonical_payload`."""
        return hashlib.sha256(self.canonical_payload().encode()).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Objective):
            return NotImplemented
        return self.canonical_payload() == other.canonical_payload()

    def __hash__(self) -> int:
        return hash(self.canonical_payload())

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class MakespanObjective(Objective):
    """The paper's objective: minimize the number of non-empty rounds."""

    kind = "makespan"

    def validate(self, instance: MigrationInstance) -> None:
        return None

    def check(self, instance: MigrationInstance, rounds: Rounds) -> None:
        return None

    def value(self, instance: MigrationInstance, rounds: Rounds) -> int:
        return sum(1 for rnd in rounds if len(rnd) > 0)

    def payload(self) -> Dict[str, Any]:
        return {}


class BoundedColorObjective(Objective):
    """Minimize timeline length with per-item allowed-round sets.

    Args:
        allowed: maps each edge id to the non-empty set of 0-based round
            indices the item may be scheduled in.

    Raises:
        ObjectiveError: on an empty allowed set or a negative /
            non-integer round index (validated at construction, per the
            fail-fast contract of the instance layer).
    """

    kind = "bounded_color"

    def __init__(self, allowed: Mapping[EdgeId, Iterable[int]]) -> None:
        cleaned: Dict[int, Tuple[int, ...]] = {}
        for eid, indices in allowed.items():
            values = list(indices)
            for r in values:
                if not isinstance(r, int) or isinstance(r, bool) or r < 0:
                    raise ObjectiveError(
                        f"edge {eid} has invalid allowed round {r!r} "
                        "(need a non-negative int)"
                    )
            rounds = tuple(sorted(set(values)))
            if not rounds:
                raise ObjectiveError(f"edge {eid} has an empty allowed-round set")
            cleaned[int(eid)] = rounds
        self._allowed = cleaned

    @property
    def allowed(self) -> Dict[int, Tuple[int, ...]]:
        return dict(self._allowed)

    def allowed_rounds(self, eid: EdgeId) -> Tuple[int, ...]:
        return self._allowed[eid]

    def validate(self, instance: MigrationInstance) -> None:
        instance_eids = set(instance.graph.edge_ids())
        for eid in sorted(instance_eids):
            if eid not in self._allowed:
                raise ObjectiveError(f"edge {eid} has no allowed-round set")
        for eid in sorted(self._allowed):
            if eid not in instance_eids:
                raise ObjectiveError(
                    f"allowed-round set refers to unknown edge {eid}"
                )

    def check(self, instance: MigrationInstance, rounds: Rounds) -> None:
        for index, rnd in enumerate(rounds):
            for eid in rnd:
                windows = self._allowed.get(eid)
                if windows is None:
                    raise ObjectiveError(f"edge {eid} has no allowed-round set")
                if index not in windows:
                    raise ObjectiveError(
                        f"edge {eid} scheduled in round {index}, "
                        f"allowed rounds are {list(windows)}"
                    )

    def value(self, instance: MigrationInstance, rounds: Rounds) -> int:
        last = -1
        for index, rnd in enumerate(rounds):
            if len(rnd) > 0:
                last = index
        return last + 1

    def payload(self) -> Dict[str, Any]:
        return {
            "allowed": {str(eid): list(self._allowed[eid]) for eid in sorted(self._allowed)}
        }

    def __repr__(self) -> str:
        return f"BoundedColorObjective(edges={len(self._allowed)})"


class GroupCompletionObjective(Objective):
    """Minimize ``Σ_g w_g · C_g`` over named item groups.

    Args:
        groups: maps each edge id to its group name.
        weights: positive integer weight per group name; must cover
            exactly the groups referenced by ``groups``.

    Raises:
        ObjectiveError: on a non-positive / non-integer weight, a group
            without a weight, or a weight for an unreferenced group.
    """

    kind = "group_completion"

    def __init__(
        self, groups: Mapping[EdgeId, str], weights: Mapping[str, int]
    ) -> None:
        self._groups: Dict[int, str] = {}
        for eid, name in groups.items():
            if not isinstance(name, str) or not name:
                raise ObjectiveError(f"edge {eid} has invalid group name {name!r}")
            self._groups[int(eid)] = name
        referenced = {self._groups[eid] for eid in self._groups}
        for name in sorted(referenced):
            if name not in weights:
                raise ObjectiveError(f"group {name!r} has no weight")
        for name in sorted(weights):
            w = weights[name]
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise ObjectiveError(
                    f"group {name!r} weight must be a positive int, got {w!r}"
                )
            if name not in referenced:
                raise ObjectiveError(f"weight for unreferenced group {name!r}")
        self._weights: Dict[str, int] = {
            name: int(weights[name]) for name in sorted(referenced)
        }

    @property
    def groups(self) -> Dict[int, str]:
        return dict(self._groups)

    @property
    def weights(self) -> Dict[str, int]:
        return dict(self._weights)

    def group_of(self, eid: EdgeId) -> str:
        return self._groups[eid]

    def validate(self, instance: MigrationInstance) -> None:
        instance_eids = set(instance.graph.edge_ids())
        for eid in sorted(instance_eids):
            if eid not in self._groups:
                raise ObjectiveError(f"edge {eid} belongs to no group")
        for eid in sorted(self._groups):
            if eid not in instance_eids:
                raise ObjectiveError(f"group map refers to unknown edge {eid}")

    def check(self, instance: MigrationInstance, rounds: Rounds) -> None:
        for rnd in rounds:
            for eid in rnd:
                if eid not in self._groups:
                    raise ObjectiveError(f"edge {eid} belongs to no group")

    def completions(
        self, instance: MigrationInstance, rounds: Rounds
    ) -> Dict[str, int]:
        """1-based completion round per group (0 for an unscheduled group)."""
        done: Dict[str, int] = {name: 0 for name in self._weights}
        for index, rnd in enumerate(rounds):
            for eid in rnd:
                name = self._groups[eid]
                done[name] = max(done[name], index + 1)
        return done

    def value(self, instance: MigrationInstance, rounds: Rounds) -> int:
        done = self.completions(instance, rounds)
        return sum(self._weights[name] * done[name] for name in sorted(done))

    def payload(self) -> Dict[str, Any]:
        return {
            "groups": {str(eid): self._groups[eid] for eid in sorted(self._groups)},
            "weights": {name: self._weights[name] for name in sorted(self._weights)},
        }

    def __repr__(self) -> str:
        return (
            f"GroupCompletionObjective(edges={len(self._groups)}, "
            f"groups={len(self._weights)})"
        )


#: The default objective — the paper's makespan.
MAKESPAN = MakespanObjective()

#: Kind tags of every built-in objective, in registration order.
OBJECTIVE_KINDS: Tuple[str, ...] = (
    MakespanObjective.kind,
    BoundedColorObjective.kind,
    GroupCompletionObjective.kind,
)


def _edge_key(key: str) -> int:
    """An edge-id key of an objective payload, as :meth:`Objective.payload`
    writes it: a decimal integer without sign or leading zeros."""
    if re.fullmatch(r"0|[1-9][0-9]*", key) is None:
        raise ObjectiveError(f"edge key {key!r} is not an edge id")
    return int(key)


def objective_from_json(payload: str) -> Objective:
    """Inverse of :meth:`Objective.to_json`.

    Rounds, group names and weights reach the constructors as parsed,
    so they reject what is not an int or a name; nothing is coerced.

    Raises:
        ObjectiveError: on text that is not JSON, an unrecognized
            format, version or kind, a missing mapping, an edge key
            that is not an edge id, an ``allowed`` window that is not a
            list, or a round, group name or weight the objective's
            constructor rejects.
    """
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ObjectiveError(f"objective payload is not JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != "repro-objective":
        raise ObjectiveError(
            f"not an objective payload: {data.get('format') if isinstance(data, dict) else data!r}"
        )
    if data.get("version") != OBJECTIVE_FORMAT_VERSION:
        raise ObjectiveError(f"unsupported version {data.get('version')!r}")
    kind = data.get("kind")
    if kind == MakespanObjective.kind:
        return MakespanObjective()
    if kind == BoundedColorObjective.kind:
        raw = data.get("allowed")
        if not isinstance(raw, dict):
            raise ObjectiveError("bounded_color payload needs an 'allowed' mapping")
        allowed: Dict[int, List[Any]] = {}
        for key, windows in raw.items():
            if not isinstance(windows, list):
                raise ObjectiveError(
                    f"allowed rounds of edge {key!r} must be a list, got {windows!r}"
                )
            allowed[_edge_key(key)] = windows
        return BoundedColorObjective(allowed)
    if kind == GroupCompletionObjective.kind:
        raw_groups = data.get("groups")
        raw_weights = data.get("weights")
        if not isinstance(raw_groups, dict) or not isinstance(raw_weights, dict):
            raise ObjectiveError(
                "group_completion payload needs 'groups' and 'weights' mappings"
            )
        return GroupCompletionObjective(
            {_edge_key(key): name for key, name in raw_groups.items()}, raw_weights
        )
    raise ObjectiveError(f"unknown objective kind {kind!r}")


def load_objective(path: str) -> Objective:
    """Read an objective previously written with :meth:`Objective.to_json`.

    Raises:
        OSError: when the file cannot be read.
        UnicodeDecodeError: when it is not UTF-8 text.
        ObjectiveError: as :func:`objective_from_json` lists.
    """
    with open(path) as handle:
        return objective_from_json(handle.read())


def ensure_objective(objective: "Objective | None") -> Objective:
    """Normalize ``None`` to the default makespan objective."""
    return MAKESPAN if objective is None else objective


__all__ = [
    "MAKESPAN",
    "OBJECTIVE_FORMAT_VERSION",
    "OBJECTIVE_KINDS",
    "BoundedColorObjective",
    "GroupCompletionObjective",
    "MakespanObjective",
    "Objective",
    "ObjectiveError",
    "Rounds",
    "ensure_objective",
    "load_objective",
    "objective_from_json",
]
