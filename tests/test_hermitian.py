import itertools
import math

import numpy as np
import pytest

from dgspec import (
    UndirectedGraph,
    degree_profile,
    double,
    energy_report,
    enumerate_digraphs,
    gen_cycle,
    gen_kbip,
    gen_path,
    new_digraph,
    randic_index,
    reverse,
    singular_values,
    undirected_energy,
    undirected_randic,
)
from dgspec.hermitian import undirected_degrees

ROOT5 = math.sqrt(5.0)


def test_double_digon_triangle(digon_triangle):
    H = double(digon_triangle)
    assert H.n == 6
    assert H.edges == ((0, 4), (0, 5), (1, 5), (2, 3))


def test_double_edgeless():
    H = double(new_digraph(3, []))
    assert H.n == 6
    assert H.edges == ()


def test_double_path2():
    assert double(gen_path(2)).edges == ((0, 3),)


def test_double_degrees_check_examples(digon_triangle):
    # hand count: the minus copy of vertex 0 carries its two out-arcs
    deg = undirected_degrees(double(digon_triangle))
    assert deg[0] == 2 == degree_profile(digon_triangle).out_deg[0]


def test_double_degrees_check_exhaustive():
    # deg(i-) = d+(i) and deg(i+) = d-(i), forced by arc (i, j) -> edge {i-, j+}
    for G in enumerate_digraphs(3):
        deg = degree_profile(G)
        assert undirected_degrees(double(G)) == deg.out_deg + deg.in_deg


def test_undirected_energy_single_edge():
    assert undirected_energy(UndirectedGraph(2, ((0, 1),))) == pytest.approx(2.0, abs=1e-12)


def test_undirected_energy_of_double(digon_triangle):
    assert undirected_energy(double(digon_triangle)) == pytest.approx(
        2 * (1 + ROOT5), abs=1e-9
    )


def test_undirected_energy_edgeless():
    assert undirected_energy(UndirectedGraph(4, ())) == 0.0


def test_nikiforov_block_assembly():
    """Energy of the assembled bipartite graph is twice the block energy."""
    rng = np.random.default_rng(3)
    for r, s in ((2, 3), (3, 3), (4, 2)):
        M = (rng.random((r, s)) < 0.5).astype(float)
        edges = tuple((i, r + j) for i in range(r) for j in range(s) if M[i, j])
        H = UndirectedGraph(r + s, edges)
        assert undirected_energy(H) == pytest.approx(2 * float(np.sum(singular_values(M))), abs=1e-9)


def test_undirected_randic_of_double(digon_triangle):
    H = double(digon_triangle)
    assert undirected_degrees(H) == (2, 1, 1, 1, 1, 2)
    assert undirected_randic(H) == pytest.approx(math.sqrt(2) + 1.5, abs=1e-12)
    assert undirected_randic(H) == pytest.approx(2 * randic_index(digon_triangle), abs=1e-12)


def test_undirected_randic_single_edge():
    assert undirected_randic(UndirectedGraph(2, ((0, 1),))) == 1.0


def test_undirected_randic_complete_bipartite():
    for n, m in ((2, 3), (3, 3)):
        edges = tuple((i, n + j) for i in range(n) for j in range(m))
        H = UndirectedGraph(n + m, edges)
        assert undirected_randic(H) == pytest.approx(math.sqrt(n * m), abs=1e-12)


def test_cycle_double_is_perfect_matching():
    # each double vertex of a directed cycle has degree exactly 1
    H = double(gen_cycle(4))
    assert undirected_degrees(H) == (1,) * 8
    assert undirected_energy(H) == pytest.approx(8.0, abs=1e-9)


def test_transfer_identities_exhaustive():
    for G in itertools.chain(enumerate_digraphs(3), [gen_kbip(2, 3), gen_cycle(5)]):
        H = double(G)
        assert abs(2 * energy_report(G).total - undirected_energy(H)) <= 1e-8
        assert abs(2 * randic_index(G) - undirected_randic(H)) <= 1e-10


def test_max_degree_transfers_to_double():
    for G in enumerate_digraphs(3):
        dd = undirected_degrees(double(G))
        assert degree_profile(G).max_deg == (max(dd) if dd else 0)


def test_double_of_reverse_swaps_sides():
    for G in enumerate_digraphs(3):
        n = G.n
        swapped = sorted(
            tuple(sorted(((a + n) % (2 * n), (b + n) % (2 * n))))
            for a, b in double(reverse(G)).edges
        )
        assert swapped == sorted(double(G).edges)
