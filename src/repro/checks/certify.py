"""Independent schedule certification and lower-bound certificates.

The solvers in :mod:`repro.core` validate their own output — but a
validator that shares code (or authors' blind spots) with the solver is
a weak witness.  This module re-derives every claim from the instance
alone, the way Turner's bounded edge-coloring validator and Zerola's
constraint-programming movers cross-check their planners:

* :func:`verify_schedule` re-checks **edge conservation** (every item
  migrated exactly once, no phantom items) and every **per-node
  transfer constraint** ``c_v``, recounting loads from raw endpoint
  scans — no code shared with :meth:`MigrationSchedule.validate`.
* :class:`LowerBoundCertificate` makes ``LB = max(Δ', Γ')`` (Section
  III) *checkable*: a witness node proves ``LB1 = ⌈d_v/c_v⌉`` and a
  witness subset ``S`` proves ``LB2 = ⌈|E(S)|/⌊Σ_{v∈S} c_v/2⌋⌉``.
  :func:`verify_certificate` recomputes both from first principles, so
  tampering with a witness is detected, not trusted.
* :func:`certify` combines the two: a schedule whose verified round
  count equals a verified lower bound is **certifiably optimal**
  (e.g. Theorem 4.1's even-capacity ``Δ'``-round schedules).

Certificates round-trip through JSON (:func:`certificate_to_json` /
:func:`certificate_from_json`) so they can ride alongside checkpoints
and CI artifacts; nodes are serialized by ``repr`` and resolved back
against the instance on load.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import eq
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.lower_bounds import (
    EXACT_LB2_NODE_LIMIT,  # noqa: F401  (re-exported: the public name lives here too)
    lb1_witness,
    lb2_exact_witness,
    lb2_witness,
)
from repro.core.problem import MigrationInstance
from repro.core.schedule import MigrationSchedule
from repro.graphs.multigraph import EdgeId, Node

CERTIFICATE_SCHEMA_VERSION = 1

Rounds = Sequence[Sequence[EdgeId]]


class CertificationError(Exception):
    """A schedule or certificate failed independent verification."""


@dataclass(frozen=True)
class LB1Witness:
    """A node whose constrained degree proves ``LB1``."""

    node: Node
    degree: int
    capacity: int
    bound: int


@dataclass(frozen=True)
class LB2Witness:
    """A subset ``S`` whose edge density proves ``LB2`` (Lemma 3.1)."""

    nodes: Tuple[Node, ...]
    internal_edges: int
    capacity_sum: int
    bound: int


@dataclass(frozen=True)
class LowerBoundCertificate:
    """``max(Δ', Γ')`` with self-contained proofs of both terms."""

    bound: int
    lb1: Optional[LB1Witness]
    lb2: Optional[LB2Witness]
    exact: bool  # True when the LB2 witness came from exhaustive search


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of certifying one schedule against one instance."""

    rounds: int
    lower_bound: int
    certified_optimal: bool
    method: str

    @property
    def gap(self) -> int:
        return self.rounds - self.lower_bound


# ----------------------------------------------------------------------
# schedule verification (independent of repro.core.schedule.validate)
# ----------------------------------------------------------------------

def verify_schedule(instance: MigrationInstance, rounds: Rounds) -> int:
    """Re-validate a schedule from first principles; return its length.

    Checks, with no solver code reused:

    * every transfer-graph edge appears in exactly one round
      (conservation: each item migrates once, no item is dropped);
    * no unknown edge id appears;
    * in every round, every disk is an endpoint of at most ``c_v``
      scheduled transfers.

    Returns the number of non-empty rounds.

    Exactly-once is one count of every scheduled id and a set
    comparison with the instance's ids; the ids are listed only to
    name a violation.  Each round's loads are one ``Counter`` over its
    edges' endpoints, in first-touch order.

    Raises:
        CertificationError: on the first violation found.
    """
    occurrences = Counter(chain.from_iterable(rounds))
    table = instance.graph.edge_table
    if sum(map(len, rounds)) != len(table) or occurrences.keys() != table.keys():
        _raise_misplaced(instance, occurrences)

    capacity = instance.capacities
    nonempty = 0
    for index, rnd in enumerate(rounds):
        if len(rnd) == 0:
            continue
        nonempty += 1
        load = Counter(chain.from_iterable([table[eid] for eid in rnd]))
        for v, used in load.items():
            if used > capacity[v]:
                raise CertificationError(
                    f"round {index}: disk {v!r} performs {used} transfers "
                    f"but c_v = {capacity[v]}"
                )
    return nonempty


def _raise_misplaced(
    instance: MigrationInstance, occurrences: Mapping[EdgeId, int]
) -> NoReturn:
    """Name the unknown, then the repeated, then the missing edge ids
    of a schedule whose ids are not each edge exactly once."""
    known = set(instance.graph.edge_ids())
    unknown = sorted(eid for eid in occurrences if eid not in known)
    if unknown:
        raise CertificationError(f"unknown edge ids scheduled: {unknown[:5]}")
    duplicated = sorted(eid for eid, n in occurrences.items() if n > 1)
    if duplicated:
        raise CertificationError(
            f"edges scheduled more than once: {duplicated[:5]}"
        )
    missing = sorted(eid for eid in known if eid not in occurrences)
    raise CertificationError(
        f"{len(missing)} edges never scheduled, e.g. {missing[:5]}"
    )


# ----------------------------------------------------------------------
# certificate construction (solver side) and verification (checker side)
# ----------------------------------------------------------------------

def make_certificate(
    instance: MigrationInstance, exact_small: bool = True
) -> LowerBoundCertificate:
    """Build a lower-bound certificate with the best witnesses we know.

    The witnesses come from :mod:`repro.core.lower_bounds`; their
    *validity* never depends on that module being right, because
    :func:`verify_certificate` recomputes everything from the instance.

    When every ``c_v`` is even (Theorem 4.1's case) the certificate
    carries the LB1 witness alone (``lb2`` is ``None``), because LB2
    cannot exceed LB1 there: for any subset ``S``,
    ``2|E(S)| ≤ Σ_{v∈S} d_v ≤ Δ'·Σ_{v∈S} c_v``, and ``Σ_{v∈S} c_v`` is
    even, so ``⌈|E(S)| / ⌊Σ_{v∈S} c_v/2⌋⌉ = ⌈2|E(S)| / Σ_{v∈S} c_v⌉ ≤
    Δ' = LB1``.  ``bound`` and ``exact`` are what the LB2 search would
    have given.
    """
    node, delta = lb1_witness(instance)
    lb1_part: Optional[LB1Witness] = None
    if node is not None and delta > 0:
        lb1_part = LB1Witness(
            node=node,
            degree=instance.graph.degree(node),
            capacity=instance.capacity(node),
            bound=delta,
        )

    exact = exact_small and instance.graph.num_nodes <= EXACT_LB2_NODE_LIMIT
    subset: List[Node] = []
    gamma = 0
    if not instance.all_even():  # else LB2 ≤ LB1, proved above
        if exact:
            subset, gamma = lb2_exact_witness(instance, max_nodes=EXACT_LB2_NODE_LIMIT)
        else:
            subset, gamma = lb2_witness(instance)
    lb2_part: Optional[LB2Witness] = None
    if subset and gamma > 0:
        ordered = sorted(subset, key=repr)
        internal, cap_sum = _subset_stats(instance, ordered)
        lb2_part = LB2Witness(
            nodes=tuple(ordered),
            internal_edges=internal,
            capacity_sum=cap_sum,
            bound=gamma,
        )

    bound = max(
        lb1_part.bound if lb1_part else 0,
        lb2_part.bound if lb2_part else 0,
    )
    return LowerBoundCertificate(bound=bound, lb1=lb1_part, lb2=lb2_part, exact=exact)


def verify_certificate(
    instance: MigrationInstance, certificate: LowerBoundCertificate
) -> int:
    """Check every claim in the certificate; return the verified bound.

    Raises:
        CertificationError: if any witness fails to re-derive, or the
            stated bound disagrees with its witnesses.
    """
    witnessed = 0
    if certificate.lb1 is not None:
        witnessed = max(witnessed, _verify_lb1(instance, certificate.lb1))
    if certificate.lb2 is not None:
        witnessed = max(witnessed, _verify_lb2(instance, certificate.lb2))
    if certificate.bound > witnessed:
        raise CertificationError(
            f"certificate claims bound {certificate.bound} but witnesses "
            f"only prove {witnessed}"
        )
    return certificate.bound


def _verify_lb1(instance: MigrationInstance, witness: LB1Witness) -> int:
    if not instance.graph.has_node(witness.node):
        raise CertificationError(f"LB1 witness node {witness.node!r} not in instance")
    degree = _independent_degree(instance, witness.node)
    capacity = instance.capacity(witness.node)
    if degree != witness.degree:
        raise CertificationError(
            f"LB1 witness degree mismatch at {witness.node!r}: "
            f"claimed {witness.degree}, actual {degree}"
        )
    if capacity != witness.capacity:
        raise CertificationError(
            f"LB1 witness capacity mismatch at {witness.node!r}: "
            f"claimed {witness.capacity}, actual {capacity}"
        )
    bound = math.ceil(degree / capacity)
    if bound != witness.bound:
        raise CertificationError(
            f"LB1 witness bound mismatch: ceil({degree}/{capacity}) = {bound}, "
            f"claimed {witness.bound}"
        )
    return bound


def _verify_lb2(instance: MigrationInstance, witness: LB2Witness) -> int:
    nodes = list(witness.nodes)
    if len(set(map(repr, nodes))) != len(nodes):
        raise CertificationError("LB2 witness subset contains duplicate nodes")
    for v in nodes:
        if not instance.graph.has_node(v):
            raise CertificationError(f"LB2 witness node {v!r} not in instance")
    internal, cap_sum = _subset_stats(instance, nodes)
    if internal != witness.internal_edges:
        raise CertificationError(
            f"LB2 witness |E(S)| mismatch: claimed {witness.internal_edges}, "
            f"actual {internal}"
        )
    if cap_sum != witness.capacity_sum:
        raise CertificationError(
            f"LB2 witness capacity sum mismatch: claimed {witness.capacity_sum}, "
            f"actual {cap_sum}"
        )
    half = cap_sum // 2
    if half == 0:
        raise CertificationError(
            "LB2 witness subset has capacity sum < 2; no bound derivable"
        )
    bound = math.ceil(internal / half)
    if bound != witness.bound:
        raise CertificationError(
            f"LB2 witness bound mismatch: ceil({internal}/{half}) = {bound}, "
            f"claimed {witness.bound}"
        )
    return bound


def _independent_degree(instance: MigrationInstance, node: Node) -> int:
    """Degree by raw edge scan — no reliance on cached degree tables.

    One pass over every edge's two ends, counting each end equal to
    ``node`` (a self-loop's two).
    """
    ends = chain.from_iterable(instance.graph.edge_table.values())
    return sum(map(eq, ends, repeat(node)))


def _subset_stats(
    instance: MigrationInstance, nodes: Sequence[Node]
) -> Tuple[int, int]:
    """``(|E(S)|, Σ_{v∈S} c_v)`` by raw edge scan."""
    member = set(nodes)
    internal = sum(
        1 for _eid, u, v in instance.graph.edges() if u in member and v in member
    )
    cap_sum = sum(instance.capacity(v) for v in nodes)
    return internal, cap_sum


# ----------------------------------------------------------------------
# the one-call entry point
# ----------------------------------------------------------------------

def certify(
    instance: MigrationInstance,
    schedule: Union[MigrationSchedule, Rounds],
    certificate: Optional[LowerBoundCertificate] = None,
) -> CertificationReport:
    """Independently certify a schedule and a lower-bound claim.

    Args:
        instance: the migration instance.
        schedule: a :class:`MigrationSchedule` or a raw rounds list.
        certificate: optional pre-built certificate (e.g. loaded from
            JSON); built fresh from the instance when omitted.

    Returns:
        A report whose ``certified_optimal`` is True iff the verified
        round count equals the verified lower bound.

    Raises:
        CertificationError: if the schedule or certificate is invalid.
    """
    if isinstance(schedule, MigrationSchedule):
        rounds: Rounds = schedule.rounds
        method = schedule.method
    else:
        rounds = schedule
        method = "unknown"
    num_rounds = verify_schedule(instance, rounds)
    certificate = certificate if certificate is not None else make_certificate(instance)
    bound = verify_certificate(instance, certificate)
    return CertificationReport(
        rounds=num_rounds,
        lower_bound=bound,
        certified_optimal=num_rounds == bound,
        method=method,
    )


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------

def certificate_to_json(certificate: LowerBoundCertificate) -> Dict[str, Any]:
    """Serialize to a JSON-compatible dict (nodes by ``repr``)."""
    payload: Dict[str, Any] = {
        "schema_version": CERTIFICATE_SCHEMA_VERSION,
        "bound": certificate.bound,
        "exact": certificate.exact,
        "lb1": None,
        "lb2": None,
    }
    if certificate.lb1 is not None:
        payload["lb1"] = {
            "node": repr(certificate.lb1.node),
            "degree": certificate.lb1.degree,
            "capacity": certificate.lb1.capacity,
            "bound": certificate.lb1.bound,
        }
    if certificate.lb2 is not None:
        payload["lb2"] = {
            "nodes": [repr(v) for v in certificate.lb2.nodes],
            "internal_edges": certificate.lb2.internal_edges,
            "capacity_sum": certificate.lb2.capacity_sum,
            "bound": certificate.lb2.bound,
        }
    return payload


def certificate_from_json(
    data: Mapping[str, Any], instance: MigrationInstance
) -> LowerBoundCertificate:
    """Rebuild a certificate, resolving ``repr`` strings to real nodes.

    Raises:
        CertificationError: on a payload that is not a mapping, schema
            mismatch, a missing or mistyped field, unknown node reprs,
            or ambiguous reprs (two instance nodes sharing one repr).
    """
    decoded: object = data  # decoded JSON, which need not be a mapping
    if not isinstance(decoded, Mapping):
        raise CertificationError(
            f"a certificate is a JSON object, got {type(decoded).__name__}"
        )
    version = data.get("schema_version")
    if version != CERTIFICATE_SCHEMA_VERSION:
        raise CertificationError(
            f"certificate schema {version!r}; this build reads "
            f"{CERTIFICATE_SCHEMA_VERSION}"
        )
    by_repr: Dict[str, List[Node]] = {}
    for v in instance.graph.nodes:
        by_repr.setdefault(repr(v), []).append(v)

    def resolve(text: str) -> Node:
        candidates = by_repr.get(text, [])
        if not candidates:
            raise CertificationError(f"certificate references unknown node {text}")
        if len(candidates) > 1:
            raise CertificationError(f"node repr {text} is ambiguous in this instance")
        return candidates[0]

    try:
        lb1_part: Optional[LB1Witness] = None
        raw1 = data.get("lb1")
        if raw1 is not None:
            lb1_part = LB1Witness(
                node=resolve(raw1["node"]),
                degree=int(raw1["degree"]),
                capacity=int(raw1["capacity"]),
                bound=int(raw1["bound"]),
            )
        lb2_part: Optional[LB2Witness] = None
        raw2 = data.get("lb2")
        if raw2 is not None:
            lb2_part = LB2Witness(
                nodes=tuple(resolve(text) for text in raw2["nodes"]),
                internal_edges=int(raw2["internal_edges"]),
                capacity_sum=int(raw2["capacity_sum"]),
                bound=int(raw2["bound"]),
            )
        return LowerBoundCertificate(
            bound=int(data["bound"]),
            lb1=lb1_part,
            lb2=lb2_part,
            exact=bool(data.get("exact", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificationError(f"malformed certificate: {exc!r}") from exc


# ----------------------------------------------------------------------
# optimality certificates (repro.exact)
# ----------------------------------------------------------------------

def verify_optimality_certificate(
    instance: MigrationInstance,
    objective: Any,
    schedule: MigrationSchedule,
    certificate: Any,
) -> int:
    """Verify a :class:`repro.exact.OptimalityCertificate`; return its value.

    The lower-bound certificates above prove a schedule is *good*; an
    optimality certificate proves it is *best*.  This is the checks-side
    entry point: it re-establishes every claim via
    :func:`repro.exact.verify_optimality` (digest bindings, feasibility,
    value, and the proof — recomputed bound or deterministic replay) and
    translates rejection into the certification stack's usual
    :class:`CertificationError`.

    Raises:
        CertificationError: if any part of the certificate fails to
            re-derive from the instance, objective and schedule.
    """
    from repro.exact.search import verify_optimality

    try:
        verify_optimality(instance, objective, schedule, certificate)
    except ValueError as exc:
        raise CertificationError(f"optimality certificate rejected: {exc}") from exc
    return int(certificate.value)


# ----------------------------------------------------------------------
# patch certificates (incremental replanning)
# ----------------------------------------------------------------------

def rounds_digest(rounds: Rounds) -> str:
    """SHA-256 of the exact JSON form of a schedule's rounds.

    Deliberately *not* order-normalized — byte-identity is the
    contract, so the digest must see the rounds exactly as emitted.
    :func:`repro.checks.engine.schedule_digest` is this function.
    """
    blob = json.dumps([list(rnd) for rnd in rounds], separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def delta_digest(payload: Mapping[str, Any]) -> str:
    """SHA-256 of a delta's canonical payload.

    ``payload`` is :meth:`repro.core.delta.InstanceDelta.canonical_payload`;
    keys are sorted but list order is preserved — the order of a
    delta's edits is part of its identity.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PatchCertificate:
    """Binds one incremental replan to its inputs and its output.

    A lower-bound certificate proves a patched schedule is *good*; the
    patch certificate proves it is *the* schedule this (prior, delta)
    pair produced: SHA-256 digests of the prior rounds, the canonical
    delta payload and the result rounds, plus the per-component
    disposition record (``reused`` / ``patched`` / ``resolved`` keyed
    by component fingerprint).  Any replay of the same replan must
    reproduce it bit for bit; any tampering with prior, delta or
    result breaks verification.
    """

    prior_digest: str
    delta_digest: str
    result_digest: str
    #: ``(component fingerprint or "", disposition)`` per component,
    #: in canonical component order.
    dispositions: Tuple[Tuple[str, str], ...]


def make_patch_certificate(
    prior_rounds: Rounds,
    delta_payload: Mapping[str, Any],
    result_rounds: Rounds,
    dispositions: Sequence[Tuple[str, str]],
) -> PatchCertificate:
    """Certificate for one ``plan_delta`` outcome (see the class doc)."""
    return PatchCertificate(
        prior_digest=rounds_digest(prior_rounds),
        delta_digest=delta_digest(delta_payload),
        result_digest=rounds_digest(result_rounds),
        dispositions=tuple((fp, disp) for fp, disp in dispositions),
    )


def verify_patch_certificate(
    certificate: PatchCertificate,
    prior_rounds: Rounds,
    delta_payload: Mapping[str, Any],
    result_rounds: Rounds,
) -> None:
    """Re-derive every digest and compare.

    Raises:
        CertificationError: on the first digest mismatch or an unknown
            disposition label.
    """
    checks = (
        ("prior", certificate.prior_digest, rounds_digest(prior_rounds)),
        ("delta", certificate.delta_digest, delta_digest(delta_payload)),
        ("result", certificate.result_digest, rounds_digest(result_rounds)),
    )
    for part, claimed, actual in checks:
        if claimed != actual:
            raise CertificationError(
                f"patch certificate {part} digest mismatch: "
                f"claimed {claimed[:12]}…, actual {actual[:12]}…"
            )
    for fp, disp in certificate.dispositions:
        if disp not in ("reused", "patched", "resolved"):
            raise CertificationError(
                f"unknown disposition {disp!r} for component {fp[:12]}…"
            )
