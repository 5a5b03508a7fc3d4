"""Dense complex linear algebra for one- and two-qubit operators.

Everything operates on plain numpy arrays of shape (2, 2) or (4, 4); the
Hermitian eigensolvers also take a stack of them, shape (..., n, n): one finite
and Hermitian gate, `hermitian_part`, then np.linalg.eigh where an eigenbasis is read,
eigvalsh where a spectrum is, one Cholesky where only a lower bound is (`spectra_above`);
`canonical_eigenvectors` fixes the eigenbases of a stack where Kraus
operators are built from them, so they do not depend on the LAPACK build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS_HERM = 1e-10
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


def _as_square(m, dims=(2, 4)) -> np.ndarray:
    """m as a complex square matrix or a stack of them (..., n, n)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] not in dims:
        raise ValueError(f"expected dimension in {dims}, got {a.shape[-1]}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix of a stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def partial_trace(m, keep: int) -> np.ndarray:
    """Trace a 4x4 two-qubit operator, or each operator of a stack
    (..., 4, 4), down to one qubit.

    keep=1 keeps the first (leftmost) tensor factor, keep=2 the second.
    """
    a = _as_square(m, dims=(4,))
    a = a.reshape(a.shape[:-2] + (2, 2, 2, 2))
    if keep == 1:
        return np.einsum("...ikjk->...ij", a)
    if keep == 2:
        return np.einsum("...kikj->...ij", a)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


@dataclass(frozen=True)
class EigenDecomp:
    """Hermitian eigendecomposition, eigenvalues sorted descending, orthonormal
    eigenvectors as the columns of `eigenvectors` with LAPACK's phases and
    degenerate-eigenspace bases (see `canonical_eigenvectors`). For a stack
    the arrays carry the stack axes in front: (..., n) and (..., n, n)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def rank(eigenvalues) -> int | np.ndarray:
    """Eigenvalue count above RANK_TOL * (largest eigenvalue) of a descending
    spectrum (..., n), 0 for the zero matrix: an int, or an int array for a
    stack of spectra."""
    lmax = eigenvalues[..., :1]
    ranks = (eigenvalues > RANK_TOL * lmax).sum(axis=-1) * (lmax[..., 0] > RANK_TOL)
    return int(ranks) if ranks.ndim == 0 else ranks


def hermitian_part(m) -> np.ndarray:
    """(M + M^dag) / 2 of a 2x2 or 4x4 matrix or stack (..., n, n) that passes the gate: a
    non-finite entry or ||M - M^dag||_max > EPS_HERM raises ValueError, for a whole stack."""
    a = _as_square(m)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    adj = dagger(a)
    res = float(np.abs(a - adj).max(initial=0.0))  # 0 if empty
    if res > EPS_HERM:
        raise ValueError(f"matrix is not Hermitian within {EPS_HERM:g} (residual {res:.3e})")
    return (a + adj) / 2.0


def hermitian_eig(m) -> EigenDecomp:
    """Eigendecomposition of a Hermitian 2x2 or 4x4 matrix or stack by one eigh call on
    `hermitian_part`; a matrix gets the same decomposition alone as inside a stack."""
    vals, vecs = np.linalg.eigh(hermitian_part(m))
    vals = vals[..., ::-1].copy()
    vecs = vecs[..., ::-1].copy()
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigenDecomp(eigenvalues=vals, eigenvectors=vecs)


def spectra(h) -> np.ndarray:
    """Eigenvalues (..., n) of `hermitian_part`'s output h, descending and read-only, by
    one eigvalsh call, which computes no eigenvectors; the same alone as inside a stack."""
    vals = np.linalg.eigvalsh(h)[..., ::-1].copy()
    vals.setflags(write=False)
    return vals


def hermitian_eigenvalues(m) -> np.ndarray:
    """`hermitian_eig`'s eigenvalues alone: the `spectra` of `hermitian_part`."""
    return spectra(hermitian_part(m))


def spectra_above(h, floor) -> bool:
    """True if one np.linalg.cholesky factors h - floor I, h `hermitian_part`'s output
    (..., n, n) and floor (...,): a backward-stable certificate (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3) that every eigenvalue exceeds
    its floor to within about 1e-15 ||h||. numpy raises for the whole stack, so False
    means "not certified", not that a member fails."""
    try:
        np.linalg.cholesky(h - floor[..., None, None] * (I4 if h.shape[-1] == 4 else I2))
    except np.linalg.LinAlgError:
        return False
    return True


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


def canonical_eigenvectors(eigenvalues, eigenvectors) -> np.ndarray:
    """The eigenvectors (columns) of a Hermitian matrix or stack ((..., n),
    (..., n, n), eigenvalues descending) in a basis fixed by the matrix alone,
    not by rounding or the LAPACK build: each run of eigenvalues within 1e-11
    (relative to the Frobenius norm) of its first gets the eigenspace-only
    basis of `_eigenspace_basis`, then each column's first component above
    1e-8 in magnitude (a unit 4-vector has one of at least 1/2) is made real positive."""
    vecs = np.array(eigenvectors, dtype=complex)
    n = vecs.shape[-1]
    flat = vecs.reshape(-1, n, n)
    spectra = np.asarray(eigenvalues, dtype=float).reshape(-1, n)
    norms = np.maximum(1.0, np.linalg.norm(spectra, axis=1))[:, None]
    near = (spectra[:, :-1] - spectra[:, 1:] <= 2.0 * _CLUSTER_TOL * norms).any(axis=1)
    for i, spectrum in zip(np.flatnonzero(near).tolist(), spectra[near].tolist()):
        tol = _CLUSTER_TOL * max(1.0, math.hypot(*spectrum))
        start = 0
        while start < n:  # the exact runs; near, at twice tol, has every spectrum with one
            stop = start + 1
            while stop < n and spectrum[start] - spectrum[stop] <= tol:
                stop += 1
            if stop - start > 1:
                flat[i, :, start:stop] = _eigenspace_basis(flat[i, :, start:stop])
            start = stop
    pivot = flat[np.arange(len(flat))[:, None], (np.abs(flat) > 1e-8).argmax(axis=1), np.arange(n)]
    flat *= (pivot.conj() / np.abs(pivot))[:, None, :]
    return vecs


def numeric_rank(m) -> int:
    """`rank` of the spectrum of a Hermitian PSD matrix (0 for the zero matrix)."""
    return rank(hermitian_eigenvalues(m))
