"""Core directed-graph model: construction, degrees, reversal, weak
connectivity, and the named generators used throughout the package.

Vertices are dense integers 0..n-1.  Arcs are a strictly increasing tuple of
loop-free pairs of plain ints, which the constructor checks (``new_digraph``
converts, collapses repeats and sorts first), so a ``Digraph`` is immutable,
hashable and cheap to compare; adjacency, degrees, the components of the
bipartite double and the energy report are lazy attributes, built once and
freed with the graph.  One union-find labelling gives the weak components of
G and the components of the double; each of the latter is one ``SplitPart``,
the record that energy, splitting and classify all read.
"""

from __future__ import annotations

import operator
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

from .errors import BadParameterError, LoopArcError, OutOfRangeError

if TYPE_CHECKING:
    from .energy import EnergyReport
    from .hermitian import UndirectedGraph


@dataclass(frozen=True)
class Digraph:
    """Simple digraph: no loops, no parallel arcs, vertices 0..n-1.  Any other form
    of ``n`` or ``arcs`` raises OutOfRangeError, LoopArcError or BadParameterError."""

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n, arcs = self.n, self.arcs
        if type(n) is not int:
            raise BadParameterError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise BadParameterError(f"vertex count must be nonnegative, got {n}")
        if n > sys.maxsize:  # no sequence of n entries could be built
            raise BadParameterError(f"vertex count {n} exceeds the largest supported {sys.maxsize}")
        if type(arcs) is not tuple:
            raise BadParameterError(f"arcs must be a tuple, got {type(arcs).__name__}")
        for arc in arcs:  # types first: the order test below compares the pairs
            if type(arc) is not tuple or len(arc) != 2 or type(arc[0]) is not int or type(arc[1]) is not int:
                raise BadParameterError(f"arc {arc!r} is not a pair of integers")
            u, v = arc
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRangeError(f"arc ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise LoopArcError(f"loop arc ({u}, {v}) not allowed")
        if not all(map(operator.lt, arcs, islice(arcs, 1, None))):
            raise BadParameterError("arcs must be sorted, with no repeats")

    @cached_property
    def _out_adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[u].append(v)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def _degrees(self) -> DegreeProfile:
        out_deg = [0] * self.n
        in_deg = [0] * self.n
        for u, v in self.arcs:
            out_deg[u] += 1
            in_deg[v] += 1
        max_deg = max(max(out_deg, default=0), max(in_deg, default=0))
        return DegreeProfile(tuple(out_deg), tuple(in_deg), max_deg, len(self.arcs))

    @cached_property
    def _double_components(self) -> tuple[SplitPart, ...]:
        """Arc-carrying components of the bipartite double B(G), ordered by first source.

        B(G) has an edge {u-, v+} per arc (u, v).  A vertex may be a source
        of one component and a sink of another (or of the same one).
        """
        n = self.n
        root = _component_roots(2 * n, ((u, n + v) for u, v in self.arcs))
        grouped: dict[int, list[tuple[int, int]]] = {}
        for arc in self.arcs:  # share the arc tuples rather than copy them
            grouped.setdefault(root[arc[0]], []).append(arc)
        # the arcs are sorted, so the groups arrive ordered by first source
        # and each group's sources arrive ascending
        return tuple(
            SplitPart(tuple(dict.fromkeys(u for u, _ in arcs)), tuple(sorted({v for _, v in arcs})), tuple(arcs))
            for arcs in grouped.values()
        )

    @cached_property
    def _energy(self) -> EnergyReport:
        from .energy import _decompose  # energy imports this module
        return _decompose((self,))[0]

    @cached_property
    def _double(self) -> UndirectedGraph:
        from .hermitian import _double  # hermitian imports this module
        return _double(self)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        """Vertices w with an arc v -> w, ascending."""
        return self._out_adj[self._vertex(v)]

    def _vertex(self, v) -> int:
        """A vertex label as a plain int in 0..n-1, converted as ``_count`` converts."""
        v = _count(v, "vertex")
        if not 0 <= v < self.n:
            raise OutOfRangeError(f"vertex {v} outside 0..{self.n - 1}")
        return v


@dataclass(frozen=True)
class DegreeProfile:
    """Out/in degree vectors plus the derived maximum degree and arc count."""

    out_deg: tuple[int, ...]
    in_deg: tuple[int, ...]
    max_deg: int
    arc_count: int


class SplitPart(NamedTuple):
    """One arc-carrying component of B(G): its minus copies are the sources
    and its plus copies the sinks, both ascending; its arcs stay sorted."""

    sources: tuple[int, ...]
    sinks: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]

    @property
    def complete(self) -> bool:
        """Every source joined to every sink: the part of a lower-equality splitting."""
        return len(self.arcs) == len(self.sources) * len(self.sinks)


def new_digraph(n: int, arcs) -> Digraph:
    """Build a digraph on n vertices from an iterable of ordered pairs.

    The count and the endpoints must be integers (anything ``operator.index``
    takes, numpy integers and bools too; 0.5 is refused, not truncated), and
    repeated pairs collapse (arcs form a set); ``Digraph`` checks the rest.
    """
    n = _count(n)
    seen: set[tuple[int, int]] = set()
    for arc in arcs:
        try:
            u, v = map(operator.index, arc)
        except (TypeError, ValueError):
            raise BadParameterError(f"arc {arc!r} is not a pair of integers") from None
        seen.add((u, v))
    return Digraph(n, tuple(sorted(seen)))


def _count(n, what: str = "vertex count") -> int:
    """A count as a plain int: anything ``operator.index`` takes, 2.5 refused."""
    try:
        return operator.index(n)
    except TypeError:
        raise BadParameterError(f"{what} must be an integer, got {n!r}") from None


def degree_profile(G: Digraph) -> DegreeProfile:
    """Per-vertex out/in degrees, the maximum over both, and the arc count.

    Built once per graph on first request and freed with it.
    """
    return G._degrees


def reverse(G: Digraph) -> Digraph:
    """The digraph with every arc direction flipped."""
    return Digraph(G.n, tuple(sorted((v, u) for u, v in G.arcs)))


def _component_roots(size: int, pairs) -> list[int]:
    """The root of each element of 0..size-1 once every pair is joined.

    Union-find with path halving (Tarjan and van Leeuwen, J. ACM 31, 1984):
    each step of a find points the element at its grandparent.  Elements
    share a root exactly when a chain of pairs connects them.
    """
    parent = list(range(size))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[b] = a
    roots = []
    for x in range(size):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        roots.append(x)
    return roots


def weak_components(G: Digraph) -> list[tuple[int, ...]]:
    """Partition the vertices into weakly connected components.

    Components are returned as sorted vertex tuples, ordered by their
    smallest vertex, so the output is deterministic.
    """
    groups: dict[int, list[int]] = {}
    # vertices arrive in increasing order, so each group and the order of
    # the groups come out sorted
    for v, root in enumerate(_component_roots(G.n, G.arcs)):
        groups.setdefault(root, []).append(v)
    return [tuple(g) for g in groups.values()]


def gen_cycle(n: int) -> Digraph:
    """Directed cycle: arcs i -> (i+1 mod n)."""
    n = _count(n)
    if n < 2:
        raise BadParameterError(f"cycle needs at least 2 vertices, got {n}")
    return Digraph(n, tuple(sorted((i, (i + 1) % n) for i in range(n))))


def gen_path(n: int) -> Digraph:
    """Directed path: arcs i -> i+1."""
    n = _count(n)
    if n < 1:
        raise BadParameterError(f"path needs at least 1 vertex, got {n}")
    return Digraph(n, tuple((i, i + 1) for i in range(n - 1)))


def gen_kbip(n: int, m: int) -> Digraph:
    """Complete source-to-sink bipartite digraph: n sources, m sinks, all n*m arcs."""
    n, m = _count(n), _count(m)
    if n < 1 or m < 1:
        raise BadParameterError(f"both parts must be nonempty, got ({n}, {m})")
    return Digraph(n + m, tuple((i, n + j) for i in range(n) for j in range(m)))


def gen_random(n: int, p: float, seed: int) -> Digraph:
    """Include each ordered pair (u, v), u != v, independently with probability p.

    Pairs are drawn in lexicographic order from ``random.Random(seed)``, so
    the result is bitwise reproducible for a fixed seed.
    """
    n = _count(n)
    if not 0.0 <= p <= 1.0:
        raise BadParameterError(f"arc probability must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    arcs = tuple(
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
    )
    return Digraph(n, arcs)


def disjoint_union(*graphs: Digraph) -> Digraph:
    """Place the given digraphs side by side on a shifted common vertex range."""
    arcs: list[tuple[int, int]] = []
    offset = 0
    for g in graphs:
        arcs.extend((u + offset, v + offset) for u, v in g.arcs)
        offset += g.n
    # shifted copies of sorted tuples, joined in order, are already sorted
    return Digraph(offset, tuple(arcs))
