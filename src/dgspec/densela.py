"""Dense real linear algebra: adjacency matrix, symmetric eigendecomposition,
PSD matrix square root, singular values and vertex energies.

The energy report decomposes each non-complete block of A (the r x c
submatrix of a component of the bipartite double) through one eigensolve of
the block's smaller Gram matrix, from which it reads the singular values and
both vertex-energy diagonals.  ``adjacency`` builds the whole n x n matrix;
only tests call it.

Matrices are plain float64 numpy arrays (row-major).  The eigensolver is
LAPACK's symmetric driver behind a checked contract: symmetry is validated on
entry and the relative eigenpair residual ||S Q - Q L||_F / ||S||_F is
validated against ``DEFAULT_EIG_TOL`` on exit.  That is one matrix product,
and it ties each eigenvalue to its own vector: S q_j - l_j q_j bounds the
distance from l_j to the spectrum of S (Parlett, The Symmetric Eigenvalue
Problem, SIAM 1998).  Eigenvector signs are left as LAPACK returns them;
they cancel exactly in ``Q f(L) Q^T``, in squared entries of ``Q`` and
``Q^T M``, and in the residual.

The private kernels work on stacks: ``_eigen_stack`` takes (N, k, k) and
``_gram_energies`` takes (N, r, c), and each applies the whole contract to
every matrix on its own, so one call serves all the same-shape blocks of
many graphs.  ``sym_eigen``, ``psd_sqrt`` and ``singular_values`` are the
one-matrix case.  A stack gives every matrix the bits it gets alone: numpy
runs one LAPACK and one BLAS call per matrix, and BLAS picks its summation
order from each operand's memory layout.  So each basis is kept F-ordered
(its columns contiguous), the layout the report bytes were fixed in; with
C-ordered bases the last bit of about 40 % of the n <= 4 reports changes.
One copy reverses LAPACK's ascending order and lays the basis out so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph
from .errors import BadParameterError, NoConvergenceError, NotPSDError, NotSymmetricError

# Matrices further from their transpose than this are refused.
SYMMETRY_TOL = 1e-12

# Eigenvalues below this, and below the roundoff window n*eps*max of the
# spectrum, are evidence of a genuinely indefinite matrix rather than
# Gram-matrix roundoff.
PSD_TOL = -1e-9

# Relative eigenpair residual ||S Q - Q L||_F / ||S||_F demanded of every
# decomposition.
DEFAULT_EIG_TOL = 1e-12


@dataclass(frozen=True)
class SymEigen:
    """Symmetric eigendecomposition: descending eigenvalues, orthogonal basis.

    ``basis`` holds eigenvectors as columns, with no normalization of their
    signs.  ``off_norm`` is the achieved relative eigenpair residual
    ||S Q - Q L||_F / ||S||_F, with Q the basis and L the eigenvalues.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    off_norm: float


def adjacency(G: Digraph) -> np.ndarray:
    """The n x n 0/1 adjacency matrix of a digraph (zero diagonal); O(n^2) memory."""
    A = np.zeros((G.n, G.n))
    for u, v in G.arcs:
        A[u, v] = 1.0
    return A


def _eigen_stack(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked eigendecompositions of a stack of symmetric matrices.

    ``S`` has shape (N, k, k).  Returns the descending eigenvalues (N, k),
    the bases (N, k, k) with each slice F-ordered (see the module
    docstring), and each matrix's relative eigenpair residual (N,).
    Every matrix meets the contract of ``sym_eigen`` on its own: a stack
    raises when one of its matrices would alone, with the same error.
    """
    count, k = S.shape[:2]
    if S.size == 0:
        return np.zeros((count, k)), np.zeros((count, k, k)), np.zeros(count)
    if not np.all(np.isfinite(S)):
        raise BadParameterError("matrix contains non-finite entries")
    if np.max(np.abs(S - S.transpose(0, 2, 1))) > SYMMETRY_TOL:
        raise NotSymmetricError("matrix is not symmetric within 1e-12")
    try:
        eigenvalues, vectors = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc

    # eigh ascends, so descending is its output reversed; one copy lays each
    # basis out F-ordered: row j of basis_t[i] is eigenvector j of S[i]
    eigenvalues = eigenvalues[:, ::-1]
    basis_t = vectors.transpose(0, 2, 1)[:, ::-1].copy()
    basis = basis_t.transpose(0, 2, 1)

    # column j of S Q - Q L is S q_j - l_j q_j, so each eigenvalue is
    # checked against its own vector
    residual = S @ basis - basis * eigenvalues[:, None, :]
    off = np.sqrt(np.einsum("nij,nij->n", residual, residual))
    fro = np.sqrt(np.einsum("nij,nij->n", S, S))
    off_norm = np.divide(off, fro, out=np.zeros(count), where=fro > 0.0)
    worst = float(off_norm.max())
    if worst > DEFAULT_EIG_TOL:
        raise NoConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds tolerance {DEFAULT_EIG_TOL:.3e}"
        )
    return eigenvalues, basis, off_norm


def sym_eigen(S: np.ndarray) -> SymEigen:
    """Eigendecompose a symmetric matrix, eigenvalues sorted descending.

    Raises BadParameterError on non-finite entries, NotSymmetricError when
    ``S`` is not square or not symmetric within 1e-12, and
    NoConvergenceError when the relative eigenpair residual of the
    decomposition exceeds ``DEFAULT_EIG_TOL``.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {S.shape}")
    eigenvalues, basis, off_norm = _eigen_stack(S[None])
    return SymEigen(eigenvalues[0], basis[0], float(off_norm[0]))


def _root_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    """Square roots of descending PSD spectra, one per row of a (..., k) array.

    Eigenvalues below min(-1e-9, -k*eps*max) raise NotPSDError: the floor
    widens with the spectrum's scale because Gram roundoff does.  Small
    negatives and tiny positives inside the roundoff window k*eps*max are
    clamped to zero: the first are roundoff, the second come from exact rank
    deficiency and would otherwise inflate to ~1e-7 noise under the root.
    """
    k = eigenvalues.shape[-1]
    window = np.maximum(eigenvalues[..., :1], 0.0) * k * np.finfo(float).eps
    floor = np.minimum(PSD_TOL, -window)
    lowest = eigenvalues[..., -1:]
    below = lowest < floor
    if below.any():
        raise NotPSDError(f"eigenvalue {lowest[below][0]:.3e} below PSD floor {floor[below][0]:.3e}")
    clamped = np.where(eigenvalues <= window, 0.0, eigenvalues)
    return np.sqrt(clamped)


def psd_sqrt(S: np.ndarray) -> np.ndarray:
    """The symmetric PSD square root Q sqrt(L) Q^T of a symmetric PSD matrix.

    Eigenvalues below min(-1e-9, -n*eps*max) raise NotPSDError; eigenvalues
    inside the roundoff window n*eps*max are clamped to zero before the
    square root.
    """
    eig = sym_eigen(S)
    return (eig.basis * _root_spectrum(eig.eigenvalues)) @ eig.basis.T


def _gram_energies(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma, row energies, column energies) of each r x c matrix of a stack.

    ``B`` has shape (N, r, c); the results have shapes (N, k), (N, r) and
    (N, c) with k = min(r, c).  The energies are the diagonals of
    (B B^T)^(1/2) and (B^T B)^(1/2), both read off one eigensolve of the
    smaller Gram matrix M M^T = Q L Q^T, where M is B or B^T, so the solve
    has dimension k.  With s = sqrt(L), the diagonal on M's side is
    (Q**2) @ s; on the other side diag((M^T M)^(1/2))_j = sum over s_i > 0
    of (q_i^T m_j)^2 / s_i, because the right singular vectors are
    M^T q_i / s_i.  No k x k root is built; a zero root gets a zero
    reciprocal, which drops its row of Q^T M from the sum.
    """
    wide = B.shape[1] <= B.shape[2]
    M = B if wide else B.transpose(0, 2, 1)
    eigenvalues, basis, _ = _eigen_stack(M @ M.transpose(0, 2, 1))
    s = _root_spectrum(eigenvalues)
    solved = ((basis**2) @ s[:, :, None])[:, :, 0]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)
    projected = basis.transpose(0, 2, 1) @ M
    other = ((projected**2).transpose(0, 2, 1) @ inverse[:, :, None])[:, :, 0]
    return (s, solved, other) if wide else (s, other, solved)


def singular_values(A: np.ndarray) -> np.ndarray:
    """Descending singular values of a (possibly rectangular) real matrix.

    Computed as square roots of the eigenvalues of the smaller Gram matrix
    (A A^T or A^T A), so the result has length min(rows, cols).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise BadParameterError(f"expected a 2-d matrix, got ndim={A.ndim}")
    return _gram_energies(A[None])[0][0]
