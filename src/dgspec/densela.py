"""Dense real linear algebra: adjacency and Gram matrices, symmetric
eigendecomposition, PSD matrix square root, singular values.

The energy report runs the Gram roots on one block of A at a time: the
r x c submatrix of a non-complete component of the bipartite double.
``adjacency`` builds the whole n x n matrix; only tests call it.

Matrices are plain float64 numpy arrays (row-major).  The eigensolver is
LAPACK's symmetric driver behind a checked contract: symmetry is validated on
entry and the achieved off-diagonal residual of ``Q^T S Q`` is validated
against the requested tolerance on exit.  Eigenvector signs are left as
LAPACK returns them; they cancel exactly in ``Q f(L) Q^T`` and the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph
from .errors import NoConvergenceError, NotPSDError, NotSymmetricError

# Matrices further from their transpose than this are refused.
SYMMETRY_TOL = 1e-12

# Eigenvalues below this, and below the roundoff window n*eps*max of the
# spectrum, are evidence of a genuinely indefinite matrix rather than
# Gram-matrix roundoff.
PSD_TOL = -1e-9

# Default relative off-diagonal residual demanded of a decomposition.
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


def gram_out(A: np.ndarray) -> np.ndarray:
    """A @ A.T; for an adjacency matrix its diagonal is the out-degrees."""
    A = np.asarray(A, dtype=float)
    return A @ A.T


def gram_in(A: np.ndarray) -> np.ndarray:
    """A.T @ A; for an adjacency matrix its diagonal is the in-degrees."""
    A = np.asarray(A, dtype=float)
    return A.T @ A


def sym_eigen(S: np.ndarray, tol: float = DEFAULT_EIG_TOL) -> SymEigen:
    """Eigendecompose a symmetric matrix, eigenvalues sorted descending.

    Raises NotSymmetricError when ``S`` is not symmetric within 1e-12 and
    NoConvergenceError when the relative off-diagonal residual of the
    decomposition exceeds ``tol``.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {S.shape}")
    if S.size == 0:
        return SymEigen(np.zeros(0), np.zeros((0, 0)), 0.0)
    if not np.all(np.isfinite(S)):
        raise ValueError("matrix contains non-finite entries")
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
    if off_norm > tol:
        raise NoConvergenceError(
            f"off-diagonal residual {off_norm:.3e} exceeds tolerance {tol:.3e}"
        )
    return SymEigen(eigenvalues, basis, off_norm)


def _clamped_spectrum(eigenvalues: np.ndarray) -> tuple[np.ndarray, float]:
    """Zero out eigenvalues that are roundoff artifacts of a PSD matrix.

    Returns the clamped copy and the roundoff window n*eps*max.  Small
    negatives are Gram-matrix roundoff; tiny positives inside the window
    come from exact rank deficiency and would otherwise inflate to ~1e-7
    noise under the square root.
    """
    if eigenvalues.size == 0:
        return eigenvalues.copy(), 0.0
    window = max(float(eigenvalues[0]), 0.0) * eigenvalues.size * np.finfo(float).eps
    clamped = eigenvalues.copy()
    clamped[clamped <= window] = 0.0
    return clamped, window


def _psd_root(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(L), Q sqrt(L) Q^T) for S = Q L Q^T from one eigensolve; see psd_sqrt."""
    eig = sym_eigen(S)
    clamped, window = _clamped_spectrum(eig.eigenvalues)
    # roundoff grows with the spectrum's scale, so the floor widens with the window
    floor = min(PSD_TOL, -window)
    if eig.eigenvalues.size and float(eig.eigenvalues[-1]) < floor:
        raise NotPSDError(f"eigenvalue {eig.eigenvalues[-1]:.3e} below PSD floor {floor:.3e}")
    root = np.sqrt(clamped)
    return root, (eig.basis * root) @ eig.basis.T


def psd_sqrt(S: np.ndarray) -> np.ndarray:
    """The symmetric PSD square root Q sqrt(L) Q^T of a symmetric PSD matrix.

    Eigenvalues below min(-1e-9, -n*eps*max) raise NotPSDError; eigenvalues
    inside the roundoff window n*eps*max are clamped to zero before the
    square root.
    """
    return _psd_root(S)[1]


def singular_values(A: np.ndarray) -> np.ndarray:
    """Descending singular values of a (possibly rectangular) real matrix.

    Computed as square roots of the eigenvalues of the smaller Gram matrix
    (A A^T or A^T A), so the result has length min(rows, cols).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={A.ndim}")
    S = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    eig = sym_eigen(S)
    return np.sqrt(_clamped_spectrum(eig.eigenvalues)[0])
