"""Graph substrates used by the migration scheduler.

This subpackage is self-contained: it provides the multigraph data
structure, its CSR snapshot, Euler circuits and orientations over CSR
rows, the exact-quota bipartite split of Figure 3 (``b``-matchings by
max-flow), min-cost flow and a family of edge-coloring algorithms.
The scheduling algorithms in :mod:`repro.core` are built on top of it.
"""

from repro.graphs.multigraph import Multigraph

__all__ = [
    "Multigraph",
]
