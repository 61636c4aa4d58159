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
i+ is n + i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densela import sym_eigen
from .digraph import Digraph


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph: edges are sorted (low, high) pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]


def undirected_adjacency(H: UndirectedGraph) -> np.ndarray:
    A = np.zeros((H.n, H.n))
    for a, b in H.edges:
        A[a, b] = 1.0
        A[b, a] = 1.0
    return A


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
    # G.arcs is strictly increasing, so the pairs arrive sorted
    return UndirectedGraph(2 * G.n, tuple((u, G.n + v) for u, v in G.arcs))


def undirected_energy(H: UndirectedGraph) -> float:
    """Sum of absolute adjacency eigenvalues of an undirected graph."""
    eig = sym_eigen(undirected_adjacency(H))
    return float(np.sum(np.abs(eig.eigenvalues)))


def undirected_randic(H: UndirectedGraph) -> float:
    """Sum over edges of 1/sqrt(product of endpoint degrees)."""
    deg = undirected_degrees(H)
    return float(sum(1.0 / math.sqrt(deg[a] * deg[b]) for a, b in H.edges))
