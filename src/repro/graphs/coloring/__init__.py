"""Edge-coloring algorithms.

All colorers return a dict ``edge_id -> color`` (colors are ints
``0..q-1``).  ``proper`` colorings allow each color at most once per
node (the classic notion, i.e. ``c_v = 1``); *capacitated* colorings —
the paper's notion — allow color ``c`` up to ``c_v`` times at node
``v`` and live in :mod:`repro.core`.

Available colorers, by guarantee:

========================  =========================  ====================
algorithm                 applies to                 colors used
========================  =========================  ====================
:func:`vizing_coloring`   simple graphs              ``<= Δ + 1``
:func:`euler_split_coloring`  any multigraph         ``<= 3·2^(⌈log2 Δ⌉-1)``
:func:`kempe_coloring`    any multigraph             heuristic, hard cap
                                                     ``2Δ - 1``
========================  =========================  ====================

The optimal ``Δ``-color König colorer of bipartite multigraphs works
over int node indices and backs the bipartite scheduler; see
:func:`repro.graphs.coloring.bipartite.compact_konig_coloring`.
"""

from repro.graphs.coloring.base import (
    num_colors_used,
    validate_proper_coloring,
)
from repro.graphs.coloring.vizing import vizing_coloring
from repro.graphs.coloring.euler_split import euler_split_coloring
from repro.graphs.coloring.kempe import kempe_coloring

__all__ = [
    "num_colors_used",
    "validate_proper_coloring",
    "vizing_coloring",
    "euler_split_coloring",
    "kempe_coloring",
]
