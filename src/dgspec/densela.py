"""Dense real linear algebra: adjacency matrix, symmetric eigendecomposition,
PSD matrix square root, singular values and vertex energies.

The energy report decomposes one block of A at a time (the r x c submatrix
of a non-complete component of the bipartite double) with one eigensolve of
the block's smaller Gram matrix, from which it reads the singular values and
both vertex-energy diagonals.  ``adjacency`` builds the whole n x n matrix;
only tests call it.

Matrices are plain float64 numpy arrays (row-major).  The eigensolver is
LAPACK's symmetric driver behind a checked contract: symmetry is validated on
entry and the achieved off-diagonal residual of ``Q^T S Q`` is validated
against ``DEFAULT_EIG_TOL`` on exit.  Eigenvector signs are left as
LAPACK returns them; they cancel exactly in ``Q f(L) Q^T``, in squared
entries of ``Q`` and ``Q^T M``, and in the residual.
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

# Relative off-diagonal residual demanded of every decomposition.
DEFAULT_EIG_TOL = 1e-12


@dataclass(frozen=True)
class SymEigen:
    """Symmetric eigendecomposition: descending eigenvalues, orthogonal basis.

    ``basis`` holds eigenvectors as columns, with no normalization of their
    signs.  ``off_norm`` is the achieved relative off-diagonal Frobenius
    residual of ``basis.T @ S @ basis``.
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


def sym_eigen(S: np.ndarray) -> SymEigen:
    """Eigendecompose a symmetric matrix, eigenvalues sorted descending.

    Raises BadParameterError on non-finite entries, NotSymmetricError when
    ``S`` is not square or not symmetric within 1e-12, and
    NoConvergenceError when the relative off-diagonal residual of the
    decomposition exceeds ``DEFAULT_EIG_TOL``.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {S.shape}")
    if S.size == 0:
        return SymEigen(np.zeros(0), np.zeros((0, 0)), 0.0)
    if not np.all(np.isfinite(S)):
        raise BadParameterError("matrix contains non-finite entries")
    if np.max(np.abs(S - S.T)) > SYMMETRY_TOL:
        raise NotSymmetricError("matrix is not symmetric within 1e-12")
    try:
        eigenvalues, basis = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc

    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    basis = basis[:, order]

    residual = basis.T @ S @ basis
    off = residual - np.diag(np.diag(residual))
    fro = float(np.linalg.norm(S))
    off_norm = float(np.linalg.norm(off) / fro) if fro > 0.0 else 0.0
    if off_norm > DEFAULT_EIG_TOL:
        raise NoConvergenceError(
            f"off-diagonal residual {off_norm:.3e} exceeds tolerance {DEFAULT_EIG_TOL:.3e}"
        )
    return SymEigen(eigenvalues, basis, off_norm)


def _root_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    """Square roots of the descending spectrum of a PSD matrix.

    Eigenvalues below min(-1e-9, -n*eps*max) raise NotPSDError: the floor
    widens with the spectrum's scale because Gram roundoff does.  Small
    negatives and tiny positives inside the roundoff window n*eps*max are
    clamped to zero: the first are roundoff, the second come from exact rank
    deficiency and would otherwise inflate to ~1e-7 noise under the root.
    """
    if eigenvalues.size == 0:
        return eigenvalues.copy()
    window = max(float(eigenvalues[0]), 0.0) * eigenvalues.size * np.finfo(float).eps
    floor = min(PSD_TOL, -window)
    if float(eigenvalues[-1]) < floor:
        raise NotPSDError(f"eigenvalue {eigenvalues[-1]:.3e} below PSD floor {floor:.3e}")
    clamped = eigenvalues.copy()
    clamped[clamped <= window] = 0.0
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
    """(sigma, row energies, column energies) of a real r x c matrix B.

    The energies are the diagonals of (B B^T)^(1/2) and (B^T B)^(1/2), both
    read off one eigensolve of the smaller Gram matrix M M^T = Q L Q^T, where
    M is B or B^T, so the solve has dimension k = min(r, c).  With
    s = sqrt(L), the diagonal on M's side is (Q**2) @ s; on the other side
    diag((M^T M)^(1/2))_j = sum over s_i > 0 of (q_i^T m_j)^2 / s_i, because
    the right singular vectors are M^T q_i / s_i.  No k x k root is built.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise BadParameterError(f"expected a 2-d matrix, got ndim={B.ndim}")
    wide = B.shape[0] <= B.shape[1]
    M = B if wide else B.T
    eig = sym_eigen(M @ M.T)
    s = _root_spectrum(eig.eigenvalues)
    kept = s > 0.0
    solved = (eig.basis**2) @ s
    other = ((eig.basis[:, kept].T @ M) ** 2).T @ (1.0 / s[kept])
    return (s, solved, other) if wide else (s, other, solved)


def singular_values(A: np.ndarray) -> np.ndarray:
    """Descending singular values of a (possibly rectangular) real matrix.

    Computed as square roots of the eigenvalues of the smaller Gram matrix
    (A A^T or A^T A), so the result has length min(rows, cols).
    """
    return _gram_energies(A)[0]
