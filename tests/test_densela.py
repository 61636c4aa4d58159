import math

import numpy as np
import pytest

import dgspec.densela
from dgspec import (
    adjacency,
    degree_profile,
    enumerate_digraphs,
    gen_cycle,
    gen_path,
    new_digraph,
    psd_sqrt,
    singular_values,
    sym_eigen,
)
from dgspec.densela import _eigen_stack, _gram_energies, _root_spectrum
from dgspec.errors import BadParameterError, DgspecError, NoConvergenceError, NotPSDError, NotSymmetricError

from _oracles import eig_2x2_sym, sqrt_2x2_spd

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def test_adjacency_digon_triangle(digon_triangle):
    expected = [[0, 1, 1], [0, 0, 1], [1, 0, 0]]
    assert adjacency(digon_triangle).tolist() == expected


def test_adjacency_edgeless():
    assert not adjacency(new_digraph(3, [])).any()


def test_adjacency_path2():
    assert adjacency(gen_path(2)).tolist() == [[0, 1], [0, 0]]


def test_sym_eigen_already_diagonal():
    eig = sym_eigen(np.diag([3.0, 1.0]))
    assert eig.eigenvalues.tolist() == [3.0, 1.0]
    assert np.allclose(np.abs(eig.basis), np.eye(2))


def test_sym_eigen_2x2_quadratic_formula():
    S = [[2.0, 1.0], [1.0, 1.0]]
    eig = sym_eigen(np.array(S))
    assert eig.eigenvalues == pytest.approx(eig_2x2_sym(S), abs=1e-12)
    assert eig.eigenvalues == pytest.approx(
        [(3 + math.sqrt(5)) / 2, (3 - math.sqrt(5)) / 2], abs=1e-12
    )


def test_sym_eigen_gram_of_digon_triangle(digon_triangle):
    A = adjacency(digon_triangle)
    eig = sym_eigen(A @ A.T)
    expected = [(3 + math.sqrt(5)) / 2, 1.0, (3 - math.sqrt(5)) / 2]
    assert eig.eigenvalues == pytest.approx(expected, abs=1e-12)


def test_sym_eigen_rejects_nonsymmetric():
    with pytest.raises(NotSymmetricError):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSymmetricError):
        sym_eigen(np.zeros((2, 3)))


def test_sym_eigen_unreachable_tolerance(monkeypatch):
    monkeypatch.setattr(dgspec.densela, "DEFAULT_EIG_TOL", 0.0)
    with pytest.raises(NoConvergenceError):
        sym_eigen(np.array([[2.0, 1.0], [1.0, 1.0]]))


def test_kernel_input_errors_are_package_errors():
    with pytest.raises(DgspecError):
        psd_sqrt(np.full((2, 2), np.nan))
    with pytest.raises(DgspecError):
        singular_values(np.ones(3))


def test_sym_eigen_contract_on_random_symmetric():
    rng = np.random.default_rng(42)
    for n in (2, 5, 9):
        M = rng.normal(size=(n, n))
        S = M + M.T
        eig = sym_eigen(S)
        assert eig.off_norm <= 1e-12
        assert np.max(np.abs(eig.basis.T @ eig.basis - np.eye(n))) < 1e-10
        recon = (eig.basis * eig.eigenvalues) @ eig.basis.T
        assert np.max(np.abs(recon - S)) < 1e-9
        assert all(x >= y for x, y in zip(eig.eigenvalues, eig.eigenvalues[1:]))


def test_psd_sqrt_2x2_closed_form():
    S = [[2.0, 1.0], [1.0, 1.0]]
    expected = sqrt_2x2_spd(S)
    root5 = math.sqrt(5.0)
    assert np.allclose(expected, np.array([[3, 1], [1, 2]]) / root5, atol=1e-15)
    assert np.allclose(psd_sqrt(np.array(S)), expected, atol=1e-12)


def test_psd_sqrt_identity_and_diagonal():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_sqrt_rejects_indefinite():
    # a wide roundoff window at scale 1e8 must not swallow a genuine -1
    for S in (np.diag([1.0, -1.0]), np.diag([1e8, -1.0])):
        with pytest.raises(NotPSDError):
            psd_sqrt(S)


def test_psd_sqrt_roundoff_floor_scales_with_spectrum():
    # the zero eigenvalues of 1e8 J come back near -1.5e-8: roundoff inside
    # the window n*eps*5e9, not indefiniteness
    n, c = 50, 1e8
    expected = math.sqrt(c / n) * np.ones((n, n))
    assert np.allclose(psd_sqrt(c * np.ones((n, n))), expected, rtol=1e-12, atol=0.0)


def test_singular_values_digon_triangle(digon_triangle):
    sv = singular_values(adjacency(digon_triangle))
    assert sv == pytest.approx([PHI, 1.0, 1.0 / PHI], abs=1e-12)


def test_singular_values_cycle_is_all_ones():
    for n in (2, 3, 6):
        A = adjacency(gen_cycle(n))
        assert np.allclose(A @ A.T, np.eye(n))  # circulant shift is orthogonal
        assert singular_values(A) == pytest.approx([1.0] * n, abs=1e-12)


def test_singular_values_all_ones_rank_one():
    for n, m in ((2, 3), (3, 2), (4, 4)):
        sv = singular_values(np.ones((n, m)))
        assert len(sv) == min(n, m)
        assert sv[0] == pytest.approx(math.sqrt(n * m), abs=1e-12)
        assert sv[1:] == pytest.approx([0.0] * (min(n, m) - 1), abs=1e-12)


def test_exhaustive_small_graph_invariants():
    """Shared spectrum, sqrt reconstruction, exact degree diagonals, zero rows."""
    for n in range(1, 5):
        for G in enumerate_digraphs(n):
            A = adjacency(G)
            assert np.allclose(
                singular_values(A), singular_values(A.T), atol=1e-9
            ), G
            deg = degree_profile(G)
            out_gram = A @ A.T
            assert np.diag(out_gram).tolist() == list(deg.out_deg)
            assert np.diag(A.T @ A).tolist() == list(deg.in_deg)
            root = psd_sqrt(out_gram)
            assert np.max(np.abs(root @ root - out_gram)) < 1e-8
            for v in range(n):
                if deg.out_deg[v] == 0:
                    assert np.max(np.abs(root[v, :])) < 1e-9
                    assert np.max(np.abs(root[:, v])) < 1e-9


GOOD = np.array([[2.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), BadParameterError),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), NotSymmetricError),
        (np.diag([1.0, -1.0]), NotPSDError),
    ],
)
def test_stack_with_one_bad_matrix_raises_its_error_alone(bad, error):
    with pytest.raises(error):
        psd_sqrt(bad)
    with pytest.raises(error):
        _root_spectrum(_eigen_stack(np.stack([GOOD, bad, GOOD]))[0])


def test_stack_reads_the_residual_tolerance_per_call(monkeypatch):
    # the diagonal matrix decomposes with an exact zero residual, GOOD does not
    stack = np.stack([np.diag([3.0, 1.0]), GOOD])
    assert _eigen_stack(stack)[2].max() <= 1e-12
    monkeypatch.setattr(dgspec.densela, "DEFAULT_EIG_TOL", 0.0)
    assert sym_eigen(np.diag([3.0, 1.0])).off_norm == 0.0
    with pytest.raises(NoConvergenceError):
        sym_eigen(GOOD)
    with pytest.raises(NoConvergenceError):
        _eigen_stack(stack)


def test_gram_stack_refuses_a_non_finite_matrix():
    B = np.ones((3, 2, 3))
    B[1, 0, 2] = np.inf
    with pytest.raises(BadParameterError):
        _gram_energies(B)


def test_empty_stacks():
    sigma, rows, cols = _gram_energies(np.zeros((0, 2, 3)))
    assert (sigma.shape, rows.shape, cols.shape) == ((0, 2), (0, 2), (0, 3))
    eigenvalues, basis, off_norm = _eigen_stack(np.zeros((0, 4, 4)))
    assert (eigenvalues.shape, basis.shape, off_norm.shape) == ((0, 4), (0, 4, 4), (0,))
    # k = 0: matrices with no rows have no singular values and zero column energies
    sigma, rows, cols = _gram_energies(np.zeros((2, 0, 3)))
    assert (sigma.shape, rows.shape) == ((2, 0), (2, 0))
    assert cols.tolist() == [[0.0] * 3] * 2
    assert sym_eigen(np.zeros((0, 0))).eigenvalues.shape == (0,)


def test_all_zero_matrices():
    sigma, rows, cols = _gram_energies(np.zeros((2, 3, 4)))
    assert not sigma.any() and not rows.any() and not cols.any()
    eigenvalues, _, off_norm = _eigen_stack(np.zeros((2, 3, 3)))
    assert not eigenvalues.any() and not off_norm.any()


def test_stacked_gram_energies_are_the_bits_of_one_matrix_at_a_time():
    # random 0/1 matrices of mixed rank, wide and tall, so the kept-root
    # count p differs across each stack and zero roots occur
    rng = np.random.default_rng(7)
    for shape in ((4, 2, 3), (5, 3, 3), (6, 4, 2), (3, 5, 7)):
        B = (rng.random(shape) < 0.4).astype(float)
        B[0] = 0.0
        B[1, :, 0] = B[1, :, 1]  # a repeated column drops the rank
        stacked = _gram_energies(B)
        for i in range(shape[0]):
            alone = _gram_energies(B[i : i + 1].copy())
            for got, want in zip(stacked, alone):
                assert got[i].tobytes() == want[0].tobytes()
        assert singular_values(B[2]).tobytes() == stacked[0][2].tobytes()


def test_residual_ties_each_eigenvalue_to_its_vector(monkeypatch):
    # eigh's eigenvalues reversed against its vectors: Q^T S Q is still
    # diagonal, so only a residual that pairs l_j with q_j can see it
    eigh = np.linalg.eigh

    def mispaired(S):
        eigenvalues, vectors = eigh(S)
        return eigenvalues[..., ::-1], vectors

    rng = np.random.default_rng(30)
    M = rng.normal(size=(3, 5, 5))
    stack = M + M.transpose(0, 2, 1)
    _, vectors = eigh(stack)
    rotated = vectors.transpose(0, 2, 1) @ stack @ vectors
    assert np.allclose(rotated, rotated * np.eye(5), atol=1e-12)
    monkeypatch.setattr(dgspec.densela.np.linalg, "eigh", mispaired)
    with pytest.raises(NoConvergenceError):
        _eigen_stack(stack)
    with pytest.raises(NoConvergenceError):
        sym_eigen(GOOD)
