"""Structural classifiers for the two bound-equality cases.

A *splitting* covers the arcs of G by arc-disjoint sink-source digraphs
(every vertex of a part only emits or only receives) such that a part using
any of a vertex's out-arcs uses all of them, and likewise for in-arcs.
Parts may share vertices.  A splitting is the graph's own ``SplitPart``
tuple, the components of the bipartite double B(G); ``()`` when edgeless.

The paper's two equality theorems: the lower bound 2R(G) is attained
exactly when G splits into parts that are each complete from their sources
to their sinks; the upper bound 2 sqrt(max_degree) R(G) exactly when every
in- and out-degree is at most 1, that is when G is a disjoint union of
directed paths, directed cycles and isolated vertices.  Both verdicts are
exact and O(m); ``bounds_certificate`` prints them as its equality flags.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .digraph import Digraph, SplitPart, degree_profile, weak_components
from .errors import BadParameterError


class ComponentTag(enum.Enum):
    ISOLATED_VERTEX = "isolated_vertex"
    DIRECTED_PATH = "directed_path"
    DIRECTED_CYCLE = "directed_cycle"
    OTHER = "other"


@dataclass(frozen=True)
class ComponentKind:
    """Shape of one weak component; vertices realize the path/cycle order."""

    tag: ComponentTag
    vertices: tuple[int, ...]


def find_splitting(G: Digraph) -> tuple[SplitPart, ...] | None:
    """The finest splitting of G into sink-source digraphs, or None.

    Any part containing an arc (u, v) must absorb u's whole out-star and
    v's whole in-star, so parts are forced to be the weakly connected
    components of the bipartite double pulled back to G: a component's
    minus copies become the part's sources, its plus copies the sinks.
    A splitting exists iff no component of the double contains both
    copies of one vertex (both non-isolated); it is then the graph's own
    ``SplitPart`` tuple, ``()`` for an edgeless graph: test with ``is None``.
    """
    parts = G._double_components
    if any(not set(part.sources).isdisjoint(part.sinks) for part in parts):
        return None
    return parts


def verify_splitting(G: Digraph, parts: tuple[SplitPart, ...]) -> bool:
    """Re-check the splitting invariants from scratch.

    Arc sets must partition the arcs of G; inside a part every arc must run
    from a labeled source to a labeled sink with no vertex both emitting
    and receiving; and a vertex with any out-arcs (in-arcs) in a part must
    have all of its out-arcs (in-arcs) there.
    """
    deg = degree_profile(G)
    covered: list[tuple[int, int]] = []
    for part in parts:
        sources, sinks = set(part.sources), set(part.sinks)
        out_here: dict[int, int] = {}
        in_here: dict[int, int] = {}
        for u, v in part.arcs:
            if u not in sources or v not in sinks:
                return False
            out_here[u] = out_here.get(u, 0) + 1
            in_here[v] = in_here.get(v, 0) + 1
        if set(out_here) & set(in_here):
            return False
        if any(deg.out_deg[u] != d for u, d in out_here.items()):
            return False
        if any(deg.in_deg[v] != d for v, d in in_here.items()):
            return False
        covered.extend(part.arcs)
    return len(covered) == len(set(covered)) and set(covered) == set(G.arcs)


def classify_lower_equality(G: Digraph) -> tuple[SplitPart, ...] | None:
    """Witness splitting when E(G) = 2R(G), else None.

    The witness is the B(G) components, when each is ``SplitPart.complete``.
    The edgeless graph's is ``()``, so test the result with ``is None``.
    """
    # a complete part whose sources and sinks shared a vertex v would hold
    # the loop (v, v), so complete parts are already a splitting
    parts = G._double_components
    return parts if all(part.complete for part in parts) else None


def classify_component(G: Digraph, vertices) -> ComponentKind:
    """Recognize one weak component as isolated vertex, path, cycle or other.

    With all in- and out-degrees at most 1 a weakly connected component is
    forced to be a directed path (walk from the unique in-degree-0 vertex)
    or a directed cycle (walk from any vertex until the start returns).
    """
    verts = sorted({G._vertex(v) for v in vertices})
    if not verts:
        raise BadParameterError("a component needs at least one vertex")
    vset = set(verts)
    arcs = [(u, v) for u in verts for v in G.out_neighbors(u) if v in vset]
    if len(verts) == 1 and not arcs:
        return ComponentKind(ComponentTag.ISOLATED_VERTEX, (verts[0],))
    succ: dict[int, list[int]] = {v: [] for v in verts}
    in_deg: dict[int, int] = {v: 0 for v in verts}
    for u, v in arcs:
        succ[u].append(v)
        in_deg[v] += 1
    if any(len(succ[v]) > 1 or in_deg[v] > 1 for v in verts):
        return ComponentKind(ComponentTag.OTHER, tuple(verts))
    starts = [v for v in verts if in_deg[v] == 0]
    order = [starts[0] if starts else verts[0]]
    while succ[order[-1]] and succ[order[-1]][0] != order[0]:
        order.append(succ[order[-1]][0])
    if len(order) == len(verts):
        if starts and len(arcs) == len(verts) - 1:
            return ComponentKind(ComponentTag.DIRECTED_PATH, tuple(order))
        if not starts and len(arcs) == len(verts):
            return ComponentKind(ComponentTag.DIRECTED_CYCLE, tuple(order))
    return ComponentKind(ComponentTag.OTHER, tuple(verts))


def classify_upper_equality(G: Digraph) -> list[ComponentKind] | None:
    """Per-component classification when E(G) = 2 sqrt(max_degree) R(G),
    into paths, cycles and isolated vertices, never Other; None when some
    degree is 2 or more.
    """
    if degree_profile(G).max_deg > 1:
        return None
    return [classify_component(G, comp) for comp in weak_components(G)]
