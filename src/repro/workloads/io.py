"""Instance serialization: archive and replay migration workloads.

Real deployments capture the migration batches they ran; this module
gives instances a stable JSON wire format so workloads can be archived,
shared and replayed byte-identically (node names and parallel-edge
multiplicities survive the round trip; edge ids are regenerated).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.core.errors import InvalidInstanceError
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import EdgeId, Multigraph, Node

if TYPE_CHECKING:  # runtime keeps the lazy import in plan_from_json
    from repro.core.schedule import MigrationSchedule

FORMAT_VERSION = 1


def instance_to_json(instance: MigrationInstance, indent: int = 2) -> str:
    """Serialize an instance to JSON (nodes, capacities, moves)."""
    moves: List[Tuple[str, str]] = [
        (str(u), str(v)) for _eid, u, v in instance.graph.edges()
    ]
    payload = {
        "format": "repro-migration-instance",
        "version": FORMAT_VERSION,
        "nodes": sorted(str(v) for v in instance.graph.nodes),
        "capacities": {str(v): c for v, c in instance.capacities.items()},
        "moves": sorted(moves),
    }
    return json.dumps(payload, indent=indent)


def _field(data: Dict[str, Any], name: str, kind: type) -> Any:
    """``data[name]``, which must be present and of JSON type ``kind``."""
    if name not in data:
        raise InvalidInstanceError(f"missing field {name!r}")
    value = data[name]
    if not isinstance(value, kind):
        expected = "an array" if kind is list else "an object"
        raise InvalidInstanceError(
            f"field {name!r} must be {expected}, got {type(value).__name__}"
        )
    return value


def instance_from_json(payload: str) -> MigrationInstance:
    """Inverse of :func:`instance_to_json`.

    Raises:
        InvalidInstanceError: on text that is not JSON, a payload that
            is not an object, an unrecognized format or version, a
            missing or mistyped field (``nodes`` and ``moves`` arrays,
            ``capacities`` an object), a node name that is not a
            string, a move that is not two names, a capacity that is
            not an int, or an instance :class:`MigrationInstance`
            rejects.
    """
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"an instance payload is a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != "repro-migration-instance":
        raise InvalidInstanceError(
            f"not a migration instance payload: {data.get('format')!r}"
        )
    if data.get("version") != FORMAT_VERSION:
        raise InvalidInstanceError(f"unsupported version {data.get('version')!r}")
    return _instance_fields(data)[0]


def _instance_fields(data: Dict[str, Any]) -> Tuple[MigrationInstance, List[EdgeId]]:
    """The instance in a payload's ``nodes``/``moves``/``capacities``
    fields, with the edge id of each move in payload order.

    Raises:
        InvalidInstanceError: as :func:`instance_from_json` lists.
    """
    nodes = _field(data, "nodes", list)
    moves = _field(data, "moves", list)
    raw_capacities = _field(data, "capacities", dict)
    for node in nodes:
        if not isinstance(node, str):
            raise InvalidInstanceError(f"node names are strings, got {node!r}")
    graph = Multigraph(nodes=nodes)
    eids: List[EdgeId] = []
    for move in moves:
        if not (
            isinstance(move, list)
            and len(move) == 2
            and all(isinstance(name, str) for name in move)
        ):
            raise InvalidInstanceError(
                f"a move is a [src, dst] pair of disk names, got {move!r}"
            )
        eids.append(graph.add_edge(move[0], move[1]))
    capacities: Dict[Node, int] = {}
    for node, c in raw_capacities.items():
        if not isinstance(c, int) or isinstance(c, bool):
            raise InvalidInstanceError(f"capacity of {node!r} must be an int, got {c!r}")
        capacities[node] = c
    return MigrationInstance(graph, capacities), eids


def save_instance(instance: MigrationInstance, path: str) -> None:
    """Write an instance to ``path`` as JSON."""
    with open(path, "w") as handle:
        handle.write(instance_to_json(instance))


def load_instance(path: str) -> MigrationInstance:
    """Read an instance previously written by :func:`save_instance`."""
    with open(path) as handle:
        return instance_from_json(handle.read())


# ----------------------------------------------------------------------
# Plans: instance + schedule together (edge ids are internal, so the
# pair must travel as one payload to stay consistent).
# ----------------------------------------------------------------------

def plan_to_json(
    instance: MigrationInstance, schedule: "MigrationSchedule", indent: int = 2
) -> str:
    """Serialize an instance with a schedule for it.

    Edge ids are process-local, so rounds are stored as indices into an
    explicitly ordered move list; :func:`plan_from_json` rebuilds the
    graph in that order, making the round indices valid edge ids again.
    """
    ordered_eids = sorted(instance.graph.edge_ids())
    index_of = {eid: i for i, eid in enumerate(ordered_eids)}
    moves = [
        [str(u), str(v)]
        for eid in ordered_eids
        for (u, v) in [instance.graph.endpoints(eid)]
    ]
    payload = {
        "format": "repro-migration-plan",
        "version": FORMAT_VERSION,
        "nodes": sorted(str(v) for v in instance.graph.nodes),
        "capacities": {str(v): c for v, c in instance.capacities.items()},
        "moves": moves,
        "method": schedule.method,
        "rounds": [[index_of[eid] for eid in rnd] for rnd in schedule.rounds],
    }
    return json.dumps(payload, indent=indent)


def plan_from_json(
    payload: str,
) -> Tuple[MigrationInstance, "MigrationSchedule"]:
    """Inverse of :func:`plan_to_json`.

    Returns ``(instance, schedule)``; the schedule is validated against
    the rebuilt instance before returning.

    Raises:
        ValueError: on text that is not JSON, a payload that is not an
            object, a format/version mismatch, an instance field
            :func:`instance_from_json` would reject
            (:class:`InvalidInstanceError`, a ``ValueError``), a
            ``method`` that is not a string, or ``rounds`` that are not
            arrays of move indices.
        ScheduleValidationError: when the rounds are not a valid
            schedule of the instance.
    """
    from repro.core.schedule import MigrationSchedule

    data = json.loads(payload)
    if not isinstance(data, dict):
        raise ValueError(f"a plan payload is a JSON object, got {type(data).__name__}")
    if data.get("format") != "repro-migration-plan":
        raise ValueError(f"not a migration plan payload: {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {data.get('version')!r}")
    instance, eids = _instance_fields(data)
    method = data.get("method", "unknown")
    if not isinstance(method, str):
        raise ValueError(f"field 'method' must be a string, got {method!r}")
    rounds = data.get("rounds")
    if not isinstance(rounds, list) or not all(
        isinstance(rnd, list)
        and all(type(i) is int and 0 <= i < len(eids) for i in rnd)
        for rnd in rounds
    ):
        raise ValueError(
            f"field 'rounds' must be arrays of move indices below {len(eids)}"
        )
    schedule = MigrationSchedule([[eids[i] for i in rnd] for rnd in rounds], method=method)
    schedule.validate(instance)
    return instance, schedule


def merge_instances(
    first: MigrationInstance, second: MigrationInstance
) -> MigrationInstance:
    """Union of two move batches over a combined fleet.

    Disks present in both must agree on their transfer constraint; the
    merged instance carries every move of both (as parallel edges when
    they coincide).  Used when reconfiguration batches pile up and are
    scheduled as one (the offline alternative to
    :mod:`repro.extensions.online`).

    Raises:
        ValueError: on conflicting capacities for a shared disk.
    """
    caps = dict(first.capacities)
    for v, c in second.capacities.items():
        if v in caps and caps[v] != c:
            raise ValueError(
                f"disk {v!r} has conflicting capacities {caps[v]} vs {c}"
            )
        caps[v] = c
    graph = Multigraph(nodes=list(caps))
    for source in (first, second):
        for _eid, u, v in source.graph.edges():
            graph.add_edge(u, v)
    return MigrationInstance(graph, caps)
