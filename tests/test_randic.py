import math

import pytest

from dgspec import (
    bounds_certificate,
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
    for G in enumerate_digraphs(3):
        cert = bounds_certificate(G)
        assert cert.lower <= cert.energy + 1e-9
        assert cert.energy <= cert.upper + 1e-9
        assert cert.lower_slack == pytest.approx(cert.energy - cert.lower, abs=0)
        assert cert.upper_slack == pytest.approx(cert.upper - cert.energy, abs=0)
        assert cert.lower_equal == (abs(cert.lower_slack) <= cert.tolerance)
        assert cert.upper_equal == (abs(cert.upper_slack) <= cert.tolerance)


def test_lower_equality_is_exact_on_many_complete_pieces():
    # E sums 80 closed-form singular values sqrt(5 * 5) and 2R sums 2000
    # terms 1/5; with compensated sums the slack is exactly zero
    G = disjoint_union(*[gen_kbip(5, 5)] * 80)
    cert = bounds_certificate(G, tol=1e-12)
    assert cert.energy == 400.0 and cert.lower == 400.0
    assert cert.lower_slack == 0.0 and cert.lower_equal
