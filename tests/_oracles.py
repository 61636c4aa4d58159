"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (plain lists, closed forms, direct
counting) so the values it produces do not share a code path with the
package under test.  ``relabel`` and ``blow_up`` build test inputs, not
expected values.
"""

import json
import math

from dgspec import new_digraph


def relabel(G, perm):
    """G with vertex v renamed perm[v]; perm may hold numpy integers."""
    return new_digraph(G.n, ((perm[u], perm[v]) for u, v in G.arcs))


def blow_up(G, t):
    """G[t]: vertex v becomes the t twins v*t .. v*t + t-1, and every arc
    (u, v) the t*t arcs from each twin of u to each twin of v."""
    return new_digraph(
        G.n * t, ((u * t + i, v * t + j) for u, v in G.arcs for i in range(t) for j in range(t))
    )


def eig_2x2_sym(S):
    """Eigenvalues of a symmetric 2x2 matrix by the quadratic formula, descending."""
    tr = S[0][0] + S[1][1]
    det = S[0][0] * S[1][1] - S[0][1] * S[1][0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    return [(tr + disc) / 2.0, (tr - disc) / 2.0]


def sqrt_2x2_spd(S):
    """Closed-form square root of a symmetric PSD 2x2 matrix.

    sqrt(S) = (S + sqrt(det) I) / sqrt(trace + 2 sqrt(det)).
    """
    tr = S[0][0] + S[1][1]
    root_det = math.sqrt(S[0][0] * S[1][1] - S[0][1] * S[1][0])
    scale = math.sqrt(tr + 2.0 * root_det)
    return [
        [(S[0][0] + root_det) / scale, S[0][1] / scale],
        [S[1][0] / scale, (S[1][1] + root_det) / scale],
    ]


def bfs_components(size, pairs):
    """Connected components of the undirected graph on 0..size-1 whose edges
    are ``pairs``, by breadth-first search: sorted vertex lists, ordered by
    their smallest vertex."""
    adj = [[] for _ in range(size)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * size
    components = []
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for x in queue:  # the list grows as the search reaches new vertices
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        components.append(sorted(queue))
    return components


def round_reals(obj):
    """Every float rounded to 12 significant digits, tuples rebuilt as lists."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_reals(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_reals(v) for v in obj]
    return obj


def report_json(data):
    """A report as the standard library writes it: rounded, then indent-2 json."""
    return json.dumps(round_reals(data), indent=2)


def report_text(data):
    """``--format text``: one ``key: <compact json>`` line per top-level key."""
    return "\n".join(f"{key}: {json.dumps(round_reals(value))}" for key, value in data.items())
