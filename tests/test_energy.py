import gc
import math
import weakref

import numpy as np
import pytest

import dgspec.densela
from dgspec import (
    adjacency,
    adjacent_pair_check,
    bounds_certificate,
    degree_profile,
    disjoint_union,
    edge_energy,
    energy_report,
    enumerate_digraphs,
    gen_cycle,
    gen_kbip,
    gen_path,
    gen_random,
    mcclelland_bound,
    new_digraph,
    reverse,
    vertex_degree_bound_check,
)

from _oracles import relabel, sqrt_2x2_spd

ROOT5 = math.sqrt(5.0)


@pytest.mark.parametrize("n", range(2, 11))
def test_cycle_energy_is_n(n):
    assert energy_report(gen_cycle(n)).total == pytest.approx(n, abs=1e-9)


@pytest.mark.parametrize("n", range(1, 11))
def test_path_energy_is_n_minus_1(n):
    assert energy_report(gen_path(n)).total == pytest.approx(n - 1, abs=1e-9)


def test_report_digon_triangle(digon_triangle):
    rep = energy_report(digon_triangle)
    assert rep.total == pytest.approx(1 + ROOT5, abs=1e-12)
    # vertex energies match the closed-form square roots of the 2x2 blocks
    out_block = sqrt_2x2_spd([[2.0, 1.0], [1.0, 1.0]])
    assert rep.vertex_out == pytest.approx([out_block[0][0], out_block[1][1], 1.0], abs=1e-12)
    assert rep.vertex_out == pytest.approx([3 / ROOT5, 2 / ROOT5, 1.0], abs=1e-12)
    assert rep.vertex_in == pytest.approx([1.0, 2 / ROOT5, 3 / ROOT5], abs=1e-12)


def test_report_totals_agree(digon_triangle):
    for G in (digon_triangle, gen_kbip(2, 3), gen_cycle(4), new_digraph(3, [])):
        rep = energy_report(G)
        assert rep.total == pytest.approx(float(rep.sigma.sum()), abs=1e-9)
        assert float(rep.vertex_out.sum()) == pytest.approx(rep.total, abs=1e-9)
        assert float(rep.vertex_in.sum()) == pytest.approx(rep.total, abs=1e-9)
        assert (rep.sigma >= 0).all()
        assert (rep.vertex_out >= 0).all() and (rep.vertex_in >= 0).all()


def test_edge_energy_path2():
    (value,) = edge_energy(gen_path(2))
    assert value == pytest.approx(2.0, abs=1e-12)


def test_edge_energy_return_arc(digon_triangle):
    value = edge_energy(digon_triangle)[digon_triangle.arcs.index((2, 0))]
    assert value == pytest.approx(2.0, abs=1e-12)


def test_edge_energy_sums_to_twice_total(digon_triangle):
    total = sum(edge_energy(digon_triangle).tolist())
    assert total == pytest.approx(2 * (1 + ROOT5), abs=1e-10)


def test_edge_energy_aligns_with_arcs(split_example):
    pieces = [gen_kbip(2, 3), gen_cycle(4), gen_path(5), split_example]
    perm = np.random.default_rng(7).permutation(sum(P.n for P in pieces))
    G = relabel(disjoint_union(*pieces), perm)
    rep = energy_report(G)
    deg = degree_profile(G)
    values = edge_energy(G)
    assert isinstance(values, np.ndarray) and values.dtype == float
    assert values.shape == (len(G.arcs),)
    for i, (v, w) in enumerate(G.arcs):
        expected = float(rep.vertex_out[v]) / deg.out_deg[v] + float(rep.vertex_in[w]) / deg.in_deg[w]
        assert values[i] == expected, (v, w)


def test_adjacent_pair_check_digon_triangle(digon_triangle):
    products, sums = adjacent_pair_check(digon_triangle)
    checks = dict(zip(digon_triangle.arcs, zip(products, sums)))
    assert len(products) == len(sums) == len(digon_triangle.arcs)
    assert checks[(0, 1)][0] == pytest.approx(6 / 5, abs=1e-12)
    assert checks[(0, 1)][1] == pytest.approx(ROOT5, abs=1e-12)
    assert checks[(2, 0)][0] == pytest.approx(1.0, abs=1e-12)  # equality case
    assert all(p >= 1 - 1e-9 and s >= 2 - 1e-9 for p, s in checks.values())


def test_adjacent_pair_check_path2():
    (product,), (pair_sum,) = adjacent_pair_check(gen_path(2))
    assert product == pytest.approx(1.0, abs=1e-12)
    assert pair_sum == pytest.approx(2.0, abs=1e-12)


def test_vertex_degree_bound_digon_triangle(digon_triangle):
    out_slack, in_slack = vertex_degree_bound_check(digon_triangle)
    assert energy_report(digon_triangle).vertex_out[0] == pytest.approx(3 / ROOT5, abs=1e-12)
    assert math.sqrt(degree_profile(digon_triangle).out_deg[0]) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert out_slack[0] == pytest.approx(math.sqrt(2) - 3 / ROOT5, abs=1e-12)
    assert all(np.minimum(out_slack, in_slack) >= -1e-9)


def test_vertex_degree_bound_isolated():
    G = new_digraph(1, [])
    (out_slack,), (in_slack,) = vertex_degree_bound_check(G)
    assert energy_report(G).vertex_out[0] == 0.0
    assert math.sqrt(degree_profile(G).out_deg[0]) == 0.0
    assert out_slack == in_slack == 0.0


def test_vertex_degree_bound_kbip_source():
    # rank-1 gram: sqrt(S) = S / sqrt(trace), so each source has E+ = 3/sqrt(6)
    G = gen_kbip(2, 3)
    out_slack, in_slack = vertex_degree_bound_check(G)
    assert energy_report(G).vertex_out[0] == pytest.approx(3 / math.sqrt(6), abs=1e-12)
    assert math.sqrt(degree_profile(G).out_deg[0]) == pytest.approx(math.sqrt(3), abs=1e-15)
    assert out_slack[0] == pytest.approx(math.sqrt(3) - 3 / math.sqrt(6), abs=1e-12)
    assert all(np.minimum(out_slack, in_slack) >= -1e-9)


def test_measurement_arrays_align_with_arcs_and_vertices(split_example):
    pieces = [gen_kbip(2, 3), gen_cycle(4), gen_path(5), split_example]
    perm = np.random.default_rng(5).permutation(sum(P.n for P in pieces))
    G = relabel(disjoint_union(*pieces), perm)
    rep = energy_report(G)
    deg = degree_profile(G)
    products, sums = adjacent_pair_check(G)
    assert products.shape == sums.shape == (len(G.arcs),)
    for i, (v, w) in enumerate(G.arcs):
        out_e, in_e = float(rep.vertex_out[v]), float(rep.vertex_in[w])
        assert products[i] == out_e * in_e, (v, w)
        assert sums[i] == out_e + in_e, (v, w)
    out_slack, in_slack = vertex_degree_bound_check(G)
    assert out_slack.shape == in_slack.shape == (G.n,)
    for v in range(G.n):
        assert out_slack[v] == math.sqrt(deg.out_deg[v]) - float(rep.vertex_out[v]), v
        assert in_slack[v] == math.sqrt(deg.in_deg[v]) - float(rep.vertex_in[v]), v


def test_mcclelland_digon_triangle(digon_triangle):
    out_sum, in_sum, root_an = mcclelland_bound(digon_triangle)
    assert out_sum == pytest.approx(math.sqrt(2) + 2, abs=1e-12)
    assert in_sum == pytest.approx(math.sqrt(2) + 2, abs=1e-12)
    assert root_an == pytest.approx(math.sqrt(12), abs=1e-12)
    assert energy_report(digon_triangle).total <= min(out_sum, in_sum) + 1e-9


def test_mcclelland_cycle_is_tight():
    out_sum, in_sum, root_an = mcclelland_bound(gen_cycle(5))
    assert out_sum == in_sum == 5.0
    assert energy_report(gen_cycle(5)).total == pytest.approx(5.0, abs=1e-9)
    assert root_an == pytest.approx(5.0, abs=1e-12)


def test_mcclelland_edgeless():
    assert mcclelland_bound(new_digraph(4, [])) == (0.0, 0.0, 0.0)


def assert_matches_svd(G, atol=1e-11):
    """The report against an independent SVD of the whole adjacency matrix."""
    rep = energy_report(G)
    U, s, Vt = np.linalg.svd(adjacency(G))
    assert np.allclose(rep.sigma, s, rtol=0.0, atol=atol)
    assert np.allclose(rep.vertex_out, (U**2) @ s, rtol=0.0, atol=atol)
    assert np.allclose(rep.vertex_in, ((Vt**2).T) @ s, rtol=0.0, atol=atol)


def test_exhaustive_small_graph_energy_invariants():
    for G in [gen_random(n, p, 7) for n in (9, 40) for p in (0.1, 0.5)]:
        assert_matches_svd(G)
    for n in range(1, 5):
        for G in enumerate_digraphs(n):
            rep = energy_report(G)
            assert_matches_svd(G)
            deg = degree_profile(G)
            assert abs(float(rep.vertex_out.sum() - rep.vertex_in.sum())) <= 1e-9
            for v in range(G.n):
                if deg.out_deg[v] == 0:
                    assert rep.vertex_out[v] <= 1e-9
                if deg.in_deg[v] == 0:
                    assert rep.vertex_in[v] <= 1e-9
            rev = energy_report(reverse(G))
            assert np.allclose(rev.vertex_out, rep.vertex_in, atol=1e-9)
            assert np.allclose(rev.vertex_in, rep.vertex_out, atol=1e-9)
            out_sum, in_sum, root_an = mcclelland_bound(G)
            assert rep.total <= min(out_sum, in_sum) + 1e-9
            assert max(out_sum, in_sum) <= root_an + 1e-9


def count_stacks(monkeypatch) -> list[tuple[int, ...]]:
    """Record the shape of every stack the checked eigensolver core runs."""
    calls = []
    real = dgspec.densela._eigen_stack

    def counting(S):
        calls.append(S.shape)
        return real(S)

    monkeypatch.setattr(dgspec.densela, "_eigen_stack", counting)
    return calls


def test_uncached_report_runs_one_eigensolve_per_block(monkeypatch):
    calls = count_stacks(monkeypatch)
    # a non-complete 3 x 5 block (sources 0-2, sinks 3-7), its 5 x 3 reverse
    # and a second 3 x 5 copy
    wide = new_digraph(8, [(0, 3), (0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (2, 7)])
    G = disjoint_union(wide, reverse(wide), wide)
    rep = energy_report(G)
    # one stack per block shape, first seen first; each block solves its
    # smaller Gram matrix, 3 x 3 on both sides
    assert calls == [(2, 3, 3), (1, 3, 3)]
    # later requests on the same graph reuse its decompositions
    energy_report(G)
    bounds_certificate(G)
    assert calls == [(2, 3, 3), (1, 3, 3)]
    assert np.allclose(rep.vertex_out[:8], rep.vertex_in[8:16], rtol=0.0, atol=1e-14)
    assert rep.vertex_out[16:].tolist() == rep.vertex_out[:8].tolist()
    assert_matches_svd(G)


def test_report_is_freed_with_its_graph():
    G = gen_random(30, 0.2, 11)
    energy_report(G)
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None


def test_permuted_union_reports_each_piece(split_example):
    pieces = [gen_kbip(2, 3), gen_cycle(4), gen_path(5), gen_kbip(1, 4), split_example, new_digraph(2, [])]
    perm = np.random.default_rng(3).permutation(sum(P.n for P in pieces))
    G = relabel(disjoint_union(*pieces), perm)
    rep = energy_report(G)
    offset = 0
    for P in pieces:
        part = energy_report(P)
        labels = perm[offset : offset + P.n]
        assert np.allclose(rep.vertex_out[labels], part.vertex_out, rtol=0.0, atol=1e-12)
        assert np.allclose(rep.vertex_in[labels], part.vertex_in, rtol=0.0, atol=1e-12)
        offset += P.n
    sigma = np.sort(np.concatenate([energy_report(P).sigma for P in pieces]))[::-1]
    assert np.allclose(rep.sigma, sigma, rtol=0.0, atol=1e-12)
    assert rep.total == pytest.approx(sum(energy_report(P).total for P in pieces), abs=1e-12)
    assert_matches_svd(G)


def test_complete_components_need_no_eigensolve(monkeypatch):
    calls = count_stacks(monkeypatch)
    G = disjoint_union(gen_kbip(2, 3), gen_cycle(7), gen_path(4), gen_kbip(1, 4), gen_kbip(3, 1), new_digraph(2, []))
    rep = energy_report(G)
    bounds_certificate(G)
    assert calls == []
    assert rep.total == math.fsum([math.sqrt(6), 7, 3, 2, math.sqrt(3)])
    # vertices that only receive (emit) get an exact zero outer (inner) energy
    deg = degree_profile(G)
    assert all(rep.vertex_out[v] == 0.0 for v in range(G.n) if deg.out_deg[v] == 0)
    assert all(rep.vertex_in[v] == 0.0 for v in range(G.n) if deg.in_deg[v] == 0)
    assert_matches_svd(G)
