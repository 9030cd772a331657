"""Canonical instance forms: fingerprints, tokens, and derived seeds.

The plan cache (:mod:`repro.pipeline.cache`) must recognize a transfer
component *across replans*, even though every replan rebuilds the
transfer multigraph and therefore reassigns edge ids.  Two layers make
that possible:

* a **fingerprint** — a SHA-256 digest of a canonical JSON payload
  (nodes sorted by ``repr`` with their capacities; edges as a sorted
  ``(u, v, multiplicity)`` list).  Structurally identical components
  fingerprint identically no matter which edge ids they carry or what
  order their nodes were inserted in;
* **pair-slot tokens** — a schedule round is stored as
  ``(u_repr, v_repr, k)`` triples, meaning "the ``k``-th parallel edge
  between ``u`` and ``v`` in ascending edge-id order".  Items are
  unit-size, so parallel edges are interchangeable and a token list
  rehydrates against *any* instance with the same fingerprint.  A
  plan in token form has one JSON form, written by
  :func:`encode_token_plan` and read by :func:`decode_token_plan`; the
  plan store and the planning service both use it.

Canonicalize-then-rehydrate is applied even on cache misses, so a plan
is byte-identical whether it was solved fresh or served from cache —
the property the runtime's checkpoint/resume determinism contract
depends on.

Both layers come from one pass over an instance's edges, memoized on
the instance (``MigrationInstance.memo``): the fingerprint and the
edge id → token map are built by whichever call comes first, and every
later :func:`fingerprint`, :func:`canonicalize_rounds` or
:func:`rehydrate_rounds` on the same instance reads them.

Node ``repr`` collisions (two distinct nodes printing identically)
would make tokens ambiguous; :func:`fingerprint` returns ``None`` for
such instances and the pipeline simply skips caching them.

:func:`derive_component_seed` folds the base seed and the fingerprint
through SHA-256 so every component gets its own deterministic,
``PYTHONHASHSEED``-independent randomness stream.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ScheduleValidationError
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import EdgeId, Node

#: ``(u_repr, v_repr, slot)`` — one scheduled transfer, edge-id free.
PairToken = Tuple[str, str, int]

#: A full schedule in token form (tuple-of-tuples: hashable, immutable).
TokenRounds = Tuple[Tuple[PairToken, ...], ...]

#: The ``MigrationInstance.memo`` key of the canonical form.
_MEMO_KEY = "canonical"


def _canonical_form(
    instance: MigrationInstance,
) -> Tuple[Optional[str], Dict[EdgeId, PairToken]]:
    """``(fingerprint, edge id → token)``, built once per instance.

    One pass takes each node's ``repr`` once and counts the edges of
    each endpoint pair; the result lives in ``instance.memo``, so every
    later call on the same instance reads it instead.
    """
    form: Optional[Tuple[Optional[str], Dict[EdgeId, PairToken]]] = (
        instance.memo.get(_MEMO_KEY)
    )
    if form is not None:
        return form
    graph = instance.graph
    name = {v: repr(v) for v in graph.nodes}
    edges: Iterable[Tuple[EdgeId, Node, Node]] = graph.edges()
    ids = graph.edge_ids()
    if ids != sorted(ids):
        edges = sorted(edges)  # slot k is a pair's k-th edge by id
    count: Dict[Tuple[str, str], int] = {}
    token_of: Dict[EdgeId, PairToken] = {}
    for eid, u, v in edges:
        a, b = name[u], name[v]
        if b < a:
            a, b = b, a
        pair = (a, b)
        k = count.get(pair, 0)
        count[pair] = k + 1
        token_of[eid] = (a, b, k)
    fp: Optional[str] = None
    if len(set(name.values())) == len(name):  # else two nodes share a repr
        nodes = sorted((r, instance.capacity(v)) for v, r in name.items())
        payload = {
            "nodes": [[r, c] for r, c in nodes],
            "edges": [[a, b, n] for (a, b), n in sorted(count.items())],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        fp = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    form = instance.memo[_MEMO_KEY] = (fp, token_of)
    return form


def reprs_unambiguous(instance: MigrationInstance) -> bool:
    """True when no two distinct nodes share a ``repr``.

    The cheap prefix of :func:`fingerprint`'s ambiguity check —
    ``O(n log n)`` in the node count, no edge scan — for callers that
    only need to know whether pair-slot tokens are trustworthy (the
    delta planner asks this for both sides of every replan).
    """
    reprs = sorted(repr(v) for v in instance.graph.nodes)
    return all(a != b for a, b in zip(reprs, reprs[1:]))


def fingerprint(instance: MigrationInstance) -> Optional[str]:
    """SHA-256 hex digest of the canonical payload (``None`` if ambiguous)."""
    return _canonical_form(instance)[0]


def _pair_slots(instance: MigrationInstance) -> Mapping[EdgeId, PairToken]:
    """Map every edge id to its ``(u_repr, v_repr, slot)`` token.

    The map is the instance's memo: read it, never change it.
    """
    return _canonical_form(instance)[1]


def canonicalize_rounds(
    instance: MigrationInstance, rounds: Sequence[Sequence[EdgeId]]
) -> TokenRounds:
    """Convert rounds of edge ids into sorted token rounds.

    Tokens within a round are sorted, so the canonical form is
    independent of the solver's internal edge ordering; round
    boundaries (and hence the round count) are preserved exactly.
    """
    token_of = _pair_slots(instance)
    return tuple(
        tuple(sorted(token_of[eid] for eid in rnd)) for rnd in rounds if len(rnd) > 0
    )


def rehydrate_rounds(
    instance: MigrationInstance, rounds: TokenRounds
) -> List[List[EdgeId]]:
    """Resolve token rounds back to edge ids of ``instance``.

    Raises:
        ScheduleValidationError: if a token names a pair/slot the
            instance does not have — the rounds were planned for
            another instance (a mixed-up fingerprint or a corrupt
            stored plan).
    """
    eid_of: Dict[PairToken, EdgeId] = {
        token: eid for eid, token in _pair_slots(instance).items()
    }
    try:
        return [[eid_of[token] for token in rnd] for rnd in rounds]
    except KeyError as exc:
        raise ScheduleValidationError(
            f"token {exc.args[0]!r} names no pair slot of this instance"
        ) from None


def encode_token_plan(method: str, rounds: TokenRounds) -> Dict[str, Any]:
    """The JSON form of a token plan: ``{"method": method, "rounds":
    rounds}`` with every token a ``[u_repr, v_repr, slot]`` list."""
    return {
        "method": method,
        "rounds": [[list(token) for token in rnd] for rnd in rounds],
    }


def decode_token_plan(payload: object) -> Tuple[str, TokenRounds]:
    """Inverse of :func:`encode_token_plan`: ``(method, rounds)``.

    Accepts only the encoder's shape: every token a ``[str, str, int]``
    list whose slot is a non-negative ``int`` (not a ``bool``).

    Raises:
        ValueError: for any other payload.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"plan payload must be an object, got {type(payload).__name__}")
    method = payload.get("method")
    rounds = payload.get("rounds")
    if not isinstance(method, str) or not isinstance(rounds, list):
        raise ValueError("plan payload needs 'method' (str) and 'rounds' (list)")
    decoded: List[Tuple[PairToken, ...]] = []
    for i, rnd in enumerate(rounds):
        if not isinstance(rnd, list):
            raise ValueError(f"plan round {i} is not a list")
        tokens: List[PairToken] = []
        for token in rnd:
            if not (
                isinstance(token, list)
                and len(token) == 3
                and isinstance(token[0], str)
                and isinstance(token[1], str)
                and type(token[2]) is int
                and token[2] >= 0
            ):
                raise ValueError(f"plan round {i} has a malformed token {token!r}")
            tokens.append((token[0], token[1], token[2]))
        decoded.append(tuple(tokens))
    return method, tuple(decoded)


def derive_component_seed(seed: int, component_fingerprint: str) -> int:
    """A per-component seed from the base seed and the fingerprint.

    Deterministic across processes and ``PYTHONHASHSEED`` values (it
    never touches ``hash()``), and stable across replans: an unchanged
    component keeps its randomness stream, so its re-solve — cached or
    not — reproduces the same schedule.
    """
    blob = f"{seed}:{component_fingerprint}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def derive_patch_seed(seed: int, component_fingerprint: str) -> int:
    """The randomness stream of an incremental *patch* of a component.

    Deliberately distinct from :func:`derive_component_seed`: a patch
    recolors on top of a warm-started partial coloring, so sharing the
    solver's stream would correlate the flip shuffles with the solve
    that produced the prior plan.  Same guarantees otherwise —
    deterministic, process- and ``PYTHONHASHSEED``-independent.
    """
    blob = f"patch:{seed}:{component_fingerprint}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def derive_restart_seed(seed: int, attempt: int) -> int:
    """A fresh seed for restart ``attempt`` of a randomized solver.

    Same guarantees as :func:`derive_component_seed`: deterministic,
    process-independent, ``PYTHONHASHSEED``-independent.  Attempt 0 is
    reserved for the original seed and never derived.
    """
    blob = f"restart:{seed}:{attempt}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
