"""Bipartite doubling: every digraph G on n vertices has an undirected
bipartite double B(G) on copies {0-, .., (n-1)-} and {0+, .., (n-1)+} with
an edge {i-, j+} per arc (i, j).  Doubling transfers the invariants:

    2 E(G) = E(B(G))        2 R(G) = R(B(G))

which this module verifies through genuinely independent code paths (the
digraph side decomposes each component of B(G) on its own, by closed form
when it is complete and by one eigensolve of its smaller Gram matrix
otherwise; the double side runs one full symmetric eigensolve of the
2n x 2n adjacency).

Vertex layout of the double: indices 0..n-1 are the minus copies, n..2n-1
the plus copies, matching the block matrix [[0, M], [M^T, 0]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densela import singular_values, sym_eigen
from .digraph import Digraph, degree_profile
from .energy import energy_report
from .errors import LoopArcError, OutOfRangeError
from .randic import randic_index


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph: edges are sorted (low, high) pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BipartiteDouble:
    """The bipartite double of a digraph, plus the copy-index maps."""

    graph: UndirectedGraph
    source_n: int

    def minus_of(self, i: int) -> int:
        self._check(i)
        return i

    def plus_of(self, i: int) -> int:
        self._check(i)
        return self.source_n + i

    def _check(self, i: int) -> None:
        if not 0 <= i < self.source_n:
            raise OutOfRangeError(f"vertex {i} outside 0..{self.source_n - 1}")


def new_undirected(n: int, edges) -> UndirectedGraph:
    """Build an undirected graph, normalizing and deduplicating edge pairs."""
    seen: set[tuple[int, int]] = set()
    for a, b in edges:
        if not (0 <= a < n) or not (0 <= b < n):
            raise OutOfRangeError(f"edge ({a}, {b}) has an endpoint outside 0..{n - 1}")
        if a == b:
            raise LoopArcError(f"loop edge ({a}, {b}) not allowed")
        seen.add((min(a, b), max(a, b)))
    return UndirectedGraph(n, tuple(sorted(seen)))


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


def double(G: Digraph) -> BipartiteDouble:
    """The bipartite double B(G): edge {i-, j+} for every arc (i, j)."""
    edges = tuple(sorted((u, G.n + v) for u, v in G.arcs))
    return BipartiteDouble(UndirectedGraph(2 * G.n, edges), G.n)


def double_degrees_check(G: Digraph) -> bool:
    """True iff deg(i-) = d+(i) and deg(i+) = d-(i) for every vertex.

    This is the degree correspondence forced by the edge convention
    arc (i, j) -> edge {i-, j+}.
    """
    deg = degree_profile(G)
    dd = undirected_degrees(double(G).graph)
    return all(
        dd[i] == deg.out_deg[i] and dd[G.n + i] == deg.in_deg[i] for i in range(G.n)
    )


def undirected_energy(H: UndirectedGraph) -> float:
    """Sum of absolute adjacency eigenvalues of an undirected graph."""
    eig = sym_eigen(undirected_adjacency(H))
    return float(np.sum(np.abs(eig.eigenvalues)))


def nikiforov_energy(M: np.ndarray) -> float:
    """Sum of singular values of an arbitrary rectangular real matrix.

    For M the upper-right block of a bipartite adjacency, the energy of
    the assembled bipartite graph is exactly twice this value.
    """
    return float(np.sum(singular_values(M)))


def undirected_randic(H: UndirectedGraph) -> float:
    """Sum over edges of 1/sqrt(product of endpoint degrees)."""
    deg = undirected_degrees(H)
    return float(sum(1.0 / math.sqrt(deg[a] * deg[b]) for a, b in H.edges))


def transfer_check(G: Digraph, tol: float = 1e-9) -> tuple[bool, bool]:
    """Verify 2E(G) = E(B(G)) and 2R(G) = R(B(G)) within ``tol``.

    The two sides travel independent code paths, so agreement certifies
    both pipelines at once.
    """
    H = double(G).graph
    energy_ok = abs(2.0 * energy_report(G).total - undirected_energy(H)) <= tol
    randic_ok = abs(2.0 * randic_index(G) - undirected_randic(H)) <= tol
    return energy_ok, randic_ok
