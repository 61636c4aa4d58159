"""Digraph energy: total (trace-norm) energy, per-vertex outer/inner
energies, edge energy, and the adjacent-vertex and degree-bound checks.

The outer energy of vertex v is the v-th diagonal entry of (A A^T)^(1/2);
the inner energy comes from (A^T A)^(1/2).  Either diagonal sums to the
total energy, which also equals the sum of the singular values of A.

The report works per arc-carrying component of the bipartite double B(G):
its sources index the rows and its sinks the columns of one block of A.  A
complete block (every source joined to every sink: single arcs, stars,
K(a, b)) has the closed form sigma = sqrt(rc), E+ = sqrt(c/r) on each of its
r sources and E- = sqrt(r/c) on each of its c sinks.  Any other block runs
one checked eigensolve of its smaller Gram matrix (dimension min(r, c)) in
``densela``, which yields its singular values and both energy diagonals.
``_decompose`` reports on a sequence of graphs at once: it groups the
non-complete blocks of all of them by shape (r, c) and runs one stacked
solve per shape.  A graph's own report is the one-graph case, so its
same-shape blocks share a stack too; the sweep passes a batch of graphs.

Edge energy and the pair and degree-bound checks measure and never judge.
Edge energy returns one float array aligned with ``G.arcs``, the pair check
two aligned with ``G.arcs`` and the degree-bound check two aligned with the
vertices.  Rounding in an eigensolve grows with the block's conditioning, so
the verdict belongs to ``oracle.check_graph`` and the caller's tolerance.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .densela import _gram_energies
from .digraph import Digraph, SplitPart, degree_profile


@dataclass(frozen=True)
class EnergyReport:
    """Singular values, total energy, and both per-vertex energy vectors."""

    sigma: np.ndarray
    total: float
    vertex_out: np.ndarray
    vertex_in: np.ndarray


def energy_report(G: Digraph) -> EnergyReport:
    """Full energy report of a digraph, kept on the graph (arrays are read-only).

    Each block of A is decomposed on its own, in one stack with the graph's
    other blocks of its shape (see the module docstring), so no n x n
    matrix is built.
    """
    return G._energy


def _decompose(graphs: Sequence[Digraph]) -> list[EnergyReport]:
    """The energy reports of several graphs, in order.

    The non-complete blocks of all the graphs are grouped by shape (r, c),
    each group runs one stacked Gram solve, and the results are scattered
    back to their graphs.  Every block's numbers are the bits it gets when
    solved alone.
    """
    vertex_outs = [np.zeros(G.n) for G in graphs]
    vertex_ins = [np.zeros(G.n) for G in graphs]
    values: list[list[float]] = [[] for _ in graphs]
    groups: dict[tuple[int, int], list[tuple[int, SplitPart]]] = {}
    for g, G in enumerate(graphs):
        for part in G._double_components:
            r, c = len(part.sources), len(part.sinks)
            if part.complete:
                # an all-ones r x c block has rank 1: sigma = sqrt(rc) and
                # its Gram roots are sqrt(rc) J / r and sqrt(rc) J / c
                values[g].append(math.sqrt(r * c))
                vertex_outs[g][list(part.sources)] = math.sqrt(c / r)
                vertex_ins[g][list(part.sinks)] = math.sqrt(r / c)
            else:
                groups.setdefault((r, c), []).append((g, part))
    for (r, c), members in groups.items():
        # the flat index of every arc of the stack, so one store fills it
        index: list[int] = []
        for i, (_, (sources, sinks, arcs)) in enumerate(members):
            row = {v: (i * r + j) * c for j, v in enumerate(sources)}
            col = {v: j for j, v in enumerate(sinks)}
            index.extend([row[u] + col[v] for u, v in arcs])
        B = np.zeros((len(members), r, c))
        B.reshape(-1)[index] = 1.0
        for (g, part), sigma, out_e, in_e in zip(members, *_gram_energies(B)):
            values[g].extend(sigma.tolist())
            vertex_outs[g][list(part.sources)] = out_e
            vertex_ins[g][list(part.sinks)] = in_e
    reports = []
    for G, spectrum, vertex_out, vertex_in in zip(graphs, values, vertex_outs, vertex_ins):
        spectrum.sort(reverse=True)
        sigma = np.zeros(G.n)
        sigma[: len(spectrum)] = spectrum
        for arr in (sigma, vertex_out, vertex_in):
            arr.setflags(write=False)
        reports.append(EnergyReport(sigma, math.fsum(spectrum), vertex_out, vertex_in))
    return reports


def edge_energy(G: Digraph) -> np.ndarray:
    """Entry i is E+(v)/d+(v) + E-(w)/d-(w) for the arc G.arcs[i] = (v, w).

    Summed over all arcs this gives twice the total energy, up to rounding.
    """
    rep = energy_report(G)
    deg = degree_profile(G)
    # plain Python floats: numpy's per-call cost dominates on the small graphs
    out_e, in_e = rep.vertex_out.tolist(), rep.vertex_in.tolist()
    return np.array([out_e[v] / deg.out_deg[v] + in_e[w] / deg.in_deg[w] for v, w in G.arcs])


def adjacent_pair_check(G: Digraph) -> tuple[np.ndarray, np.ndarray]:
    """(products, sums): entry i is E+(v) * E-(w) and E+(v) + E-(w) for the
    arc G.arcs[i] = (v, w).

    For arcs of a simple digraph the product is at least 1 and the sum at
    least 2.
    """
    rep = energy_report(G)
    tails, heads = np.array(G.arcs, dtype=np.intp).reshape(-1, 2).T
    out_e, in_e = rep.vertex_out[tails], rep.vertex_in[heads]
    return out_e * in_e, out_e + in_e


def vertex_degree_bound_check(G: Digraph) -> tuple[np.ndarray, np.ndarray]:
    """(out_slack, in_slack): entry v is sqrt(d+(v)) - E+(v) and
    sqrt(d-(v)) - E-(v), which the theorem says are nonnegative."""
    rep = energy_report(G)
    deg = degree_profile(G)
    return np.sqrt(deg.out_deg) - rep.vertex_out, np.sqrt(deg.in_deg) - rep.vertex_in


def mcclelland_bound(G: Digraph) -> tuple[float, float, float]:
    """The chain bounds (sum sqrt d+, sum sqrt d-, sqrt(a*n)).

    The energy never exceeds either degree sum, and neither degree sum
    exceeds sqrt(arc_count * n).
    """
    deg = degree_profile(G)
    out_sum = float(sum(math.sqrt(d) for d in deg.out_deg))
    in_sum = float(sum(math.sqrt(d) for d in deg.in_deg))
    return out_sum, in_sum, math.sqrt(deg.arc_count * G.n)
