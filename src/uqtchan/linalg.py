"""Dense complex linear algebra for one- and two-qubit operators.

Everything operates on plain numpy arrays of shape (2, 2) or (4, 4); the
Hermitian eigensolver also takes a stack of them, shape (..., n, n).
It is LAPACK's (np.linalg.eigh) followed by a pass that pins eigenvector
phases and picks a basis of every degenerate eigenspace from the eigenspace
alone, so Kraus reconstructions downstream do not depend on rounding or on
the LAPACK build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS_HERM = 1e-10
EPS_EIG = 1e-10
RANK_TOL = 1e-9

_CLUSTER_TOL = 1e-11
#: shortest projected basis vector kept by _eigenspace_basis; any value below
#: 1/sqrt(4) finds a full basis, since the squared lengths sum to its dimension
_SPAN_TOL = 0.1

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (I2, SX, SY, SZ)
I4 = np.eye(4, dtype=complex)
for _m in PAULIS + (I4,):
    _m.setflags(write=False)


def _as_square(m, dims=(2, 4), stack: bool = False) -> np.ndarray:
    """m as a complex square matrix, or with stack=True a stack (..., n, n)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] not in dims:
        raise ValueError(f"expected dimension in {dims}, got {a.shape[-1]}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix of a stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def herm_residual(m: np.ndarray) -> float:
    """Max-entry deviation from Hermiticity, ||M - M^dag||_max, over a
    matrix or a whole stack."""
    a = np.asarray(m)
    return float(np.abs(a - dagger(a)).max())


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two single-qubit operators (2x2 -> 4x4)."""
    am = _as_square(a, dims=(2,))
    bm = _as_square(b, dims=(2,))
    return np.kron(am, bm)


def partial_trace(m, keep: int) -> np.ndarray:
    """Trace a 4x4 two-qubit operator, or each operator of a stack
    (..., 4, 4), down to one qubit.

    keep=1 keeps the first (leftmost) tensor factor, keep=2 the second.
    """
    a = _as_square(m, dims=(4,), stack=True)
    a = a.reshape(a.shape[:-2] + (2, 2, 2, 2))
    if keep == 1:
        return np.einsum("...ikjk->...ij", a)
    if keep == 2:
        return np.einsum("...kikj->...ij", a)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


@dataclass(frozen=True)
class EigenDecomp:
    """Hermitian eigendecomposition, eigenvalues sorted descending.

    Eigenvectors are the columns of `eigenvectors`, orthonormal, with the
    first non-negligible component of each phase-fixed to be real positive.
    For a stack the arrays carry the stack axes in front: eigenvalues
    (..., n), eigenvectors (..., n, n).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def rank(self, tol: float = RANK_TOL) -> int:
        """Eigenvalue count above tol * (largest eigenvalue); 0 for the zero
        matrix. Defined for the decomposition of a single matrix."""
        lmax = float(self.eigenvalues[0])
        if lmax <= tol:
            return 0
        return int(np.sum(self.eigenvalues > tol * lmax))


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column of a (B, n, n) stack so that its first component
    above 1e-8 in magnitude is real positive. The columns are unit vectors
    of length <= 4, so each has a component of at least 1/2."""
    b, n, _ = vecs.shape
    first = np.argmax(np.abs(vecs) > 1e-8, axis=1)
    pivot = vecs[np.arange(b)[:, None], first, np.arange(n)][:, None, :]
    return vecs * (pivot.conj() / np.abs(pivot))


def _eigenspace_basis(q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of q that depends on the span
    only: the computational basis vectors projected onto it, orthonormalized
    by Gram-Schmidt in index order."""
    basis = []
    for col in (q @ q.conj().T).T:
        v = col - sum(np.vdot(b, col) * b for b in basis)
        norm = np.linalg.norm(v)
        if norm > _SPAN_TOL:
            basis.append(v / norm)
    return np.column_stack(basis)


def _fix_clusters(vals: np.ndarray, vecs: np.ndarray, tol: float) -> None:
    """Replace, in place, the eigenvectors of every run of eigenvalues within
    tol of the first of the run by the eigenspace-only basis."""
    n = vals.shape[0]
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and vals[start] - vals[stop] <= tol:
            stop += 1
        if stop - start > 1:
            vecs[:, start:stop] = _eigenspace_basis(vecs[:, start:stop])
        start = stop


def hermitian_eig(m) -> EigenDecomp:
    """Eigendecomposition of a Hermitian 2x2 or 4x4 matrix, or of every
    matrix of a stack (..., n, n) in one LAPACK call.

    Rejects non-finite entries and non-Hermitian input with ValueError; for
    a stack, one bad member rejects the whole stack. Eigenvalues within
    1e-11 (relative to the matrix scale) of the first of their run form a
    degenerate cluster, whose eigenvectors are replaced by the
    eigenspace-only basis of `_eigenspace_basis`, so the output is
    deterministic. A matrix gets the same decomposition, to rounding, alone
    as inside a stack.
    """
    a = _as_square(m, stack=True)
    shape = a.shape
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    res = herm_residual(a)
    if res > EPS_HERM:
        raise ValueError(f"matrix is not Hermitian within {EPS_HERM:g} (residual {res:.3e})")
    a = ((a + dagger(a)) / 2.0).reshape(-1, shape[-1], shape[-1])
    vals, vecs = np.linalg.eigh(a)
    vals = vals[:, ::-1].copy()
    vecs = vecs[:, :, ::-1].copy()

    # the matrix scale is the Frobenius norm, sqrt(sum of squared
    # eigenvalues); only matrices with two adjacent eigenvalues within the
    # cluster tolerance have a cluster, the rest skip the Python loop
    tol = _CLUSTER_TOL * np.maximum(1.0, np.sqrt((vals * vals).sum(axis=1)))
    close = ((vals[:, :-1] - vals[:, 1:]) <= tol[:, None]).any(axis=1)
    for i in close.nonzero()[0]:
        _fix_clusters(vals[i], vecs[i], float(tol[i]))

    vals = vals.reshape(shape[:-1])
    vecs = _phase_fix(vecs).reshape(shape)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigenDecomp(eigenvalues=vals, eigenvectors=vecs)


def numeric_rank(m, tol: float = RANK_TOL) -> int:
    """EigenDecomp.rank of a Hermitian PSD matrix (0 for the zero matrix)."""
    return hermitian_eig(m).rank(tol)
