"""Metamorphic relations of the energy report on seeded random graphs with
n in the hundreds, where the exhaustive oracle cannot reach.

Each relation is an exact consequence of the definitions, so the two sides
may differ only by rounding, held here to 1e-12 relative:

- relabelling: the singular values are equal and the vertex energies move
  with their vertices;
- reversal: the singular values are equal and E+ swaps with E-;
- disjoint union: the singular values are the two multisets joined and the
  vertex energies are the two vectors concatenated.  Same-shape small
  blocks of the two graphs are solved in one stack;
- blow-up G[t], every vertex replaced by t twins and every arc by the t*t
  arcs between them: each block becomes B kron J_t, so sigma, E and R scale
  by t and every vertex energy is unchanged.  Its blocks have exactly
  repeated rows and columns, the rank-deficient case in which the Gram
  kernel drops zero roots from the other side's energies.
"""

import numpy as np
import pytest

from dgspec import disjoint_union, energy_report, gen_random, randic_index, reverse

from _oracles import blow_up, relabel

RTOL = 1e-12

# (n, p, seed): average out-degree 1.2 to 3, so each graph has one giant
# block (k = 52 to 121) and, bar the first, tens of small ones
CASES = [(100, 0.03, 1), (160, 0.008, 2), (220, 0.006, 3), (300, 0.004, 4)]


@pytest.fixture(scope="module", params=CASES, ids=lambda case: "n%d-p%g-s%d" % case)
def graph(request):
    return gen_random(*request.param)


def assert_close(got, want):
    """Equal within RTOL of the largest entry of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = float(np.max(np.abs(want), initial=1.0))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= RTOL * scale


def test_relabelling_permutes_vertex_energies(graph):
    rep = energy_report(graph)
    perm = np.random.default_rng(graph.n).permutation(graph.n)
    moved = energy_report(relabel(graph, perm))
    assert_close(moved.sigma, rep.sigma)
    # vertex v of G is vertex perm[v] of the relabelled graph
    assert_close(moved.vertex_out[perm], rep.vertex_out)
    assert_close(moved.vertex_in[perm], rep.vertex_in)


def test_reversal_swaps_outer_and_inner_energies(graph):
    rep = energy_report(graph)
    flipped = energy_report(reverse(graph))
    assert_close(flipped.sigma, rep.sigma)
    assert_close(flipped.vertex_out, rep.vertex_in)
    assert_close(flipped.vertex_in, rep.vertex_out)


def test_disjoint_union_joins_spectra_and_concatenates_vertex_energies(graph):
    other = gen_random(300, 0.004, 6)
    rep, rep_other = energy_report(graph), energy_report(other)
    union = energy_report(disjoint_union(graph, other))
    assert_close(union.sigma, np.sort(np.concatenate([rep.sigma, rep_other.sigma]))[::-1])
    assert_close(union.vertex_out, np.concatenate([rep.vertex_out, rep_other.vertex_out]))
    assert_close(union.vertex_in, np.concatenate([rep.vertex_in, rep_other.vertex_in]))


@pytest.mark.parametrize("t", [2, 3])
def test_blow_up_scales_energy_and_randic_by_t(graph, t):
    rep = energy_report(graph)
    big = blow_up(graph, t)
    grown = energy_report(big)
    assert_close(grown.total, t * rep.total)
    assert_close(randic_index(big), t * randic_index(graph))
    # rank is unchanged, so the spectrum past the first n values is zero
    assert_close(grown.sigma[: graph.n], t * rep.sigma)
    assert_close(grown.sigma[graph.n :], np.zeros((t - 1) * graph.n))
    # twin v*t + i carries the energies of v
    assert_close(grown.vertex_out, np.repeat(rep.vertex_out, t))
    assert_close(grown.vertex_in, np.repeat(rep.vertex_in, t))
