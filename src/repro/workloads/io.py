"""Instance serialization: archive and replay migration workloads.

Real deployments capture the migration batches they ran; this module
gives instances a stable JSON wire format so workloads can be archived,
shared and replayed byte-identically (node names and parallel-edge
multiplicities survive the round trip; edge ids are regenerated).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.core.errors import InvalidInstanceError
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph, Node

FORMAT_VERSION = 1


def instance_payload(instance: MigrationInstance) -> Dict[str, Any]:
    """The instance's JSON payload as a dict (nodes, capacities, moves).

    Moves are ``[src, dst]`` lists, so the dict equals what
    ``json.loads`` returns for its encoding: the serve protocol embeds
    it in a request without a round trip through text.
    """
    return {
        "format": "repro-migration-instance",
        "version": FORMAT_VERSION,
        "nodes": sorted(str(v) for v in instance.graph.nodes),
        "capacities": {str(v): c for v, c in instance.capacities.items()},
        "moves": sorted([str(u), str(v)] for _eid, u, v in instance.graph.edges()),
    }


def instance_to_json(instance: MigrationInstance, indent: int = 2) -> str:
    """Serialize an instance to JSON: :func:`instance_payload`, encoded."""
    return json.dumps(instance_payload(instance), indent=indent)


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
        InvalidInstanceError: on text that is not JSON, or as
            :func:`instance_from_payload` lists.
    """
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"not valid JSON: {exc}") from exc
    return instance_from_payload(data)


def instance_from_payload(data: Any) -> MigrationInstance:
    """Inverse of :func:`instance_payload`: the instance a parsed JSON
    payload describes.

    Raises:
        InvalidInstanceError: on a payload that is not an object, an
            unrecognized format or version, a missing or mistyped field
            (``nodes`` and ``moves`` arrays, ``capacities`` an object),
            a node name that is not a string, a move that is not two
            names, a capacity that is not an int or names no disk, or
            an instance :class:`MigrationInstance` rejects.
    """
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"an instance payload is a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != "repro-migration-instance":
        raise InvalidInstanceError(
            f"not a migration instance payload: {data.get('format')!r}"
        )
    version = data.get("version")
    # ``True == 1`` and ``1.0 == 1``: only the int the writer puts passes.
    if type(version) is not int or version != FORMAT_VERSION:
        raise InvalidInstanceError(f"unsupported version {version!r}")
    nodes = _field(data, "nodes", list)
    moves = _field(data, "moves", list)
    raw_capacities = _field(data, "capacities", dict)
    for node in nodes:
        if not isinstance(node, str):
            raise InvalidInstanceError(f"node names are strings, got {node!r}")
    graph = Multigraph(nodes=nodes)
    for move in moves:
        if not (
            isinstance(move, list)
            and len(move) == 2
            and all(isinstance(name, str) for name in move)
        ):
            raise InvalidInstanceError(
                f"a move is a [src, dst] pair of disk names, got {move!r}"
            )
        graph.add_edge(move[0], move[1])
    capacities: Dict[Node, int] = {}
    for node, c in raw_capacities.items():
        if not isinstance(c, int) or isinstance(c, bool):
            raise InvalidInstanceError(f"capacity of {node!r} must be an int, got {c!r}")
        if node not in graph:
            # MigrationInstance keeps only its graph's capacities, so
            # this one would vanish without a word.
            raise InvalidInstanceError(f"capacity of {node!r} names no disk of the instance")
        capacities[node] = c
    return MigrationInstance(graph, capacities)


def save_instance(instance: MigrationInstance, path: str) -> None:
    """Write an instance to ``path`` as JSON."""
    with open(path, "w") as handle:
        handle.write(instance_to_json(instance))


def load_instance(path: str) -> MigrationInstance:
    """Read an instance previously written by :func:`save_instance`.

    Raises:
        OSError: when the file cannot be read.
        InvalidInstanceError: when it is not UTF-8 text, or as
            :func:`instance_from_json` lists.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError:
            raise InvalidInstanceError("not UTF-8 text") from None
    return instance_from_json(text)


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
