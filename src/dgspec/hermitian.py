"""Bipartite doubling: every digraph G on n vertices has an undirected
bipartite double B(G) on copies {0-, .., (n-1)-} and {0+, .., (n-1)+} with
an edge {i-, j+} per arc (i, j).  Doubling transfers the invariants:

    2 E(G) = E(B(G))        2 R(G) = R(B(G))

which ``oracle.check_graph`` verifies through genuinely independent code
paths (the digraph side decomposes each component of B(G) on its own, by
closed form when it is complete and by one eigensolve of its smaller Gram
matrix otherwise; this module's side runs one full symmetric eigensolve of
the 2n x 2n adjacency).

``double`` returns B(G) as a plain ``UndirectedGraph`` on 2n vertices.  Its
layout: indices 0..n-1 are the minus copies and n..2n-1 the plus copies,
matching the block matrix [[0, M], [M^T, 0]], so vertex i- is i and vertex
i+ is n + i.  The double is a lazy attribute of G, and its energy a lazy
attribute of the double, each built once and freed with its graph.
``_energies`` computes the energies of many graphs with one stacked full
symmetric eigensolve per vertex count, each matrix checked on its own; the
sweep uses it to fill a batch of doubles at once.  Those matrices are whole
adjacencies, never Gram matrices or blocks, so this side stays independent
of the digraph side.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .densela import _eigen_stack
from .digraph import Digraph


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph: edges are sorted (low, high) pairs.  Its
    energy is a lazy attribute, built once and freed with the graph."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def _energy(self) -> float:
        return _energies((self,))[0]


def undirected_degrees(H: UndirectedGraph) -> tuple[int, ...]:
    deg = [0] * H.n
    for a, b in H.edges:
        deg[a] += 1
        deg[b] += 1
    return tuple(deg)


def double(G: Digraph) -> UndirectedGraph:
    """The bipartite double B(G): edge {i-, j+} for every arc (i, j).

    Vertex i- is index i and vertex i+ is index n + i.
    """
    return G._double


def _double(G: Digraph) -> UndirectedGraph:
    # G.arcs is strictly increasing, so the pairs arrive sorted
    return UndirectedGraph(2 * G.n, tuple((u, G.n + v) for u, v in G.arcs))


def undirected_energy(H: UndirectedGraph) -> float:
    """Sum of absolute adjacency eigenvalues of an undirected graph, kept on the graph."""
    return H._energy


def _energies(graphs: Sequence[UndirectedGraph]) -> list[float]:
    """The energies of several undirected graphs, in order: one stacked full
    symmetric eigensolve of the adjacency matrices per vertex count."""
    energies = [0.0] * len(graphs)
    groups: dict[int, list[int]] = {}
    for i, H in enumerate(graphs):
        groups.setdefault(H.n, []).append(i)
    for n, members in groups.items():
        A = np.zeros((len(members), n, n))
        for j, i in enumerate(members):
            for a, b in graphs[i].edges:
                A[j, a, b] = A[j, b, a] = 1.0
        totals = np.abs(_eigen_stack(A)[0]).sum(axis=1).tolist()
        for i, total in zip(members, totals):
            energies[i] = total
    return energies


def undirected_randic(H: UndirectedGraph) -> float:
    """Sum over edges of 1/sqrt(product of endpoint degrees)."""
    deg = undirected_degrees(H)
    return float(sum(1.0 / math.sqrt(deg[a] * deg[b]) for a, b in H.edges))
