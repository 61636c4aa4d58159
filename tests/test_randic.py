import math

import numpy as np
import pytest

from dgspec import (
    bounds_certificate,
    classify_lower_equality,
    classify_upper_equality,
    degree_profile,
    disjoint_union,
    enumerate_digraphs,
    gen_cycle,
    gen_kbip,
    gen_path,
    new_digraph,
    randic_index,
    reverse,
)
from dgspec.randic import DEFAULT_TOL

ROOT2 = math.sqrt(2.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_randic_cycle_and_path_are_half_arc_count(n):
    assert randic_index(gen_cycle(n)) == n / 2  # every arc term is exactly 1
    assert randic_index(gen_path(n)) == (n - 1) / 2


def test_randic_digon_triangle(digon_triangle):
    assert randic_index(digon_triangle) == pytest.approx(ROOT2 / 2 + 0.75, abs=1e-14)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 2), (3, 3)])
def test_randic_kbip(n, m):
    assert randic_index(gen_kbip(n, m)) == pytest.approx(math.sqrt(n * m) / 2, abs=1e-12)


def test_randic_edgeless():
    assert randic_index(new_digraph(4, [])) == 0.0


def test_randic_reverse_invariant():
    for G in enumerate_digraphs(3):
        assert abs(randic_index(G) - randic_index(reverse(G))) <= 1e-12


def test_bounds_kbip_2_3():
    cert = bounds_certificate(gen_kbip(2, 3))
    root6 = math.sqrt(6.0)
    assert cert.energy == pytest.approx(root6, abs=1e-9)
    assert cert.lower == pytest.approx(root6, abs=1e-9)
    assert cert.lower_equal
    assert cert.upper == pytest.approx(3 * ROOT2, abs=1e-9)
    assert not cert.upper_equal


def test_bounds_cycle_5_doubly_tight():
    cert = bounds_certificate(gen_cycle(5))
    assert cert.energy == pytest.approx(5.0, abs=1e-9)
    assert cert.lower == pytest.approx(5.0, abs=1e-12)
    assert cert.upper == pytest.approx(5.0, abs=1e-12)
    assert cert.lower_equal and cert.upper_equal


def test_bounds_digon_triangle_strict(digon_triangle):
    cert = bounds_certificate(digon_triangle)
    assert cert.lower == pytest.approx(ROOT2 + 1.5, abs=1e-12)
    assert cert.energy == pytest.approx(1 + math.sqrt(5), abs=1e-9)
    assert cert.upper == pytest.approx(2 * ROOT2 * (ROOT2 / 2 + 0.75), abs=1e-12)
    assert cert.lower < cert.energy < cert.upper
    assert not cert.lower_equal and not cert.upper_equal


def test_bounds_edgeless_convention():
    cert = bounds_certificate(new_digraph(3, []))
    assert cert.randic == cert.energy == cert.lower == cert.upper == 0.0
    assert degree_profile(new_digraph(3, [])).max_deg == 0
    assert cert.lower_equal and cert.upper_equal


def test_certificate_consistency_exhaustive():
    # the flags are the structural verdicts, and on small graphs the numeric
    # slacks agree with them within the fixed allowance
    for G in (G for n in range(1, 5) for G in enumerate_digraphs(n)):
        cert = bounds_certificate(G)
        assert cert.tolerance == DEFAULT_TOL
        assert cert.lower <= cert.energy + 1e-9
        assert cert.energy <= cert.upper + 1e-9
        assert cert.lower_slack == pytest.approx(cert.energy - cert.lower, abs=0)
        assert cert.upper_slack == pytest.approx(cert.upper - cert.energy, abs=0)
        assert cert.lower_equal == (classify_lower_equality(G) is not None)
        assert cert.upper_equal == (classify_upper_equality(G) is not None)
        assert cert.lower_equal == (abs(cert.lower_slack) <= DEFAULT_TOL)
        assert cert.upper_equal == (abs(cert.upper_slack) <= DEFAULT_TOL)


def test_lower_equality_is_exact_on_many_complete_pieces():
    # E sums 80 closed-form singular values sqrt(5 * 5) and 2R sums 2000
    # terms 1/5; with compensated sums the slack is exactly zero
    G = disjoint_union(*[gen_kbip(5, 5)] * 80)
    cert = bounds_certificate(G)
    assert cert.energy == 400.0 and cert.lower == 400.0
    assert cert.lower_slack == 0.0 and cert.lower_equal


def von_neumann_gap(A):
    """Sum of sigma_i(A) (1 - sigma_i(N)) for the directed Randic matrix
    N = D+^(-1/2) A D-^(-1/2), a lower bound on E - 2R since 2R = tr(N^T A)."""
    out_deg, in_deg = A.sum(axis=1), A.sum(axis=0)
    scale_out = np.divide(1.0, np.sqrt(out_deg), out=np.zeros_like(out_deg), where=out_deg > 0)
    scale_in = np.divide(1.0, np.sqrt(in_deg), out=np.zeros_like(in_deg), where=in_deg > 0)
    N = scale_out[:, None] * A * scale_in[None, :]
    sigma_a = np.linalg.svd(A, compute_uv=False)
    sigma_n = np.linalg.svd(N, compute_uv=False)
    return float(np.dot(sigma_a, 1.0 - sigma_n))


def test_lower_slack_exceeds_von_neumann_gap_exhaustive():
    for G in (G for n in range(1, 5) for G in enumerate_digraphs(n)):
        A = np.zeros((G.n, G.n))
        for u, v in G.arcs:
            A[u, v] = 1.0
        assert bounds_certificate(G).lower_slack >= von_neumann_gap(A) - 1e-12, G


@pytest.mark.parametrize("a", [1, 4, 16, 64, 256, 1024])
def test_two_star_gap_shrinks_but_stays_structural(a):
    # sinks 0 and 1 each receive from a sources of their own, and source
    # 2a + 2 feeds both: one (2a + 1) x 2 block, not complete, whose slack
    # goes to 0 like 0.58 / sqrt(a)
    arcs = [(s, 0) for s in range(2, a + 2)] + [(s, 1) for s in range(a + 2, 2 * a + 2)]
    arcs += [(2 * a + 2, 0), (2 * a + 2, 1)]
    cert = bounds_certificate(new_digraph(2 * a + 3, arcs))
    block = np.zeros((2 * a + 1, 2))
    for s, t in arcs:
        block[s - 2, t] = 1.0
    gap = von_neumann_gap(block)
    assert 0.0 < gap <= cert.lower_slack + 1e-12
    assert not cert.lower_equal
