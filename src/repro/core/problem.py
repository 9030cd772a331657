"""The heterogeneous data-migration problem (Section III).

A :class:`MigrationInstance` couples a *transfer graph* — a multigraph
whose nodes are disks and whose edges are unit-size data items to move
between their endpoints — with per-disk *transfer constraints*
``c_v >= 1``: how many simultaneous transfers disk ``v`` sustains.

A schedule partitions the edges into rounds such that each round uses
at most ``c_v`` edges at every node ``v``; the objective is to minimize
the number of rounds (see :mod:`repro.core.schedule`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple

from repro.core.errors import InvalidInstanceError
from repro.graphs.multigraph import Multigraph, Node


class MigrationInstance:
    """A transfer graph plus per-node transfer constraints.

    Args:
        graph: the transfer multigraph.  Self-loops are rejected: an
            item never migrates from a disk to itself.
        capacities: ``c_v`` for every node; every graph node must have
            a capacity and every capacity must be a positive integer.

    The instance is immutable by convention: algorithms copy the graph
    before augmenting it.  It carries no objective: ``plan`` and
    ``solve_exact`` take one as ``objective=``, and ``None`` there
    means the paper's makespan.

    Attributes:
        memo: facts derived from the instance alone, computed once by
            the module that owns them and read by every later caller.
            :mod:`repro.pipeline.canonical` keeps the fingerprint and
            the edge id → pair-slot token map there,
            :mod:`repro.core.lower_bounds` the LB2 witnesses and
            ``lower_bound``'s value, :mod:`repro.exact.search` the
            makespan optimum ``exact_bb`` proved,
            :mod:`repro.core.special_cases` whether the graph is
            bipartite.  A memo is only as
            true as that convention: never mutate an instance's graph
            or capacities once it has been used; copy it first, as
            ``apply_delta`` and the Theorem 4.1 augmentation do.  A
            pickled instance (a process-pool job) carries its memo, so
            a worker reads the canonical form its parent built.
    """

    def __init__(self, graph: Multigraph, capacities: Mapping[Node, int]) -> None:
        for eid, u, v in graph.edges():
            if u == v:
                raise InvalidInstanceError(f"edge {eid} is a self-loop at {u!r}")
        for v in graph.nodes:
            if v not in capacities:
                raise InvalidInstanceError(f"node {v!r} has no transfer constraint")
            c = capacities[v]
            if not isinstance(c, int) or c < 1:
                raise InvalidInstanceError(
                    f"transfer constraint of {v!r} must be a positive int, got {c!r}"
                )
        self._graph = graph
        self._capacities = {v: capacities[v] for v in graph.nodes}
        self.memo: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_checked(
        cls, graph: Multigraph, capacities: Dict[Node, int]
    ) -> "MigrationInstance":
        """An instance whose edges and capacities a parent instance
        has already checked: no self-loop or capacity scan.

        ``capacities`` must map exactly ``graph.nodes``, in that order;
        it is kept, not copied.  The pipeline builds its component
        instances this way (:func:`repro.pipeline.stages.decompose`).
        """
        instance = cls.__new__(cls)
        instance._graph = graph
        instance._capacities = capacities
        instance.memo = {}
        return instance

    @classmethod
    def from_moves(
        cls,
        moves: Sequence[Tuple[Node, Node]],
        capacities: Mapping[Node, int],
        extra_nodes: Iterable[Node] = (),
    ) -> "MigrationInstance":
        """Build an instance from ``(source_disk, target_disk)`` pairs.

        One edge is created per move; repeated pairs become parallel
        edges.  ``extra_nodes`` adds idle disks that appear in no move
        (they still need capacities).
        """
        graph = Multigraph()
        for v in extra_nodes:
            graph.add_node(v)
        for src, dst in moves:
            graph.add_edge(src, dst)
        return cls(graph, capacities)

    @classmethod
    def uniform(
        cls, moves: Sequence[Tuple[Node, Node]], capacity: int = 1
    ) -> "MigrationInstance":
        """Instance where every disk has the same transfer constraint."""
        graph = Multigraph()
        for src, dst in moves:
            graph.add_edge(src, dst)
        return cls(graph, {v: capacity for v in graph.nodes})

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Multigraph:
        return self._graph

    @property
    def capacities(self) -> Dict[Node, int]:
        return dict(self._capacities)

    def capacity(self, v: Node) -> int:
        return self._capacities[v]

    @property
    def num_disks(self) -> int:
        return self._graph.num_nodes

    @property
    def num_items(self) -> int:
        return self._graph.num_edges

    def all_even(self) -> bool:
        """True iff every transfer constraint is even (Section IV case)."""
        return all(c % 2 == 0 for c in self._capacities.values())

    def all_unit(self) -> bool:
        """True iff every constraint is 1 (the homogeneous classic case)."""
        return all(c == 1 for c in self._capacities.values())

    def constrained_degree(self, v: Node) -> int:
        """``ceil(d_v / c_v)`` — rounds node ``v`` needs at minimum."""
        return math.ceil(self._graph.degree(v) / self._capacities[v])

    def delta_prime(self) -> int:
        """``Δ' = max_v ceil(d_v / c_v)`` — lower bound LB1 (Section III)."""
        return max((self.constrained_degree(v) for v in self._graph.nodes), default=0)

    def restricted_to_unit_capacity(self) -> "MigrationInstance":
        """Same transfer graph with every ``c_v`` forced to 1."""
        return MigrationInstance(self._graph.copy(), {v: 1 for v in self._graph.nodes})

    def __repr__(self) -> str:
        caps = sorted(set(self._capacities.values()))
        return (
            f"MigrationInstance(disks={self.num_disks}, items={self.num_items}, "
            f"capacities={caps})"
        )
