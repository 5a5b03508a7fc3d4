"""Two-qubit states: Pauli-basis decomposition, concurrence, teleportation profile.

A state carries its density matrix together with the cached decomposition
rho = (1/4) [I + R.sigma x I + I x S.sigma + sum_ij T_ij sigma_i x sigma_j],
where R and S are the local Bloch vectors of qubit 1 (Alice) and qubit 2
(Bob) and T is the 3x3 correlation matrix. The teleportation figures of
merit depend on the state only through the magnitudes of the correlation
eigenvalues (equivalently the singular values of T) and sign(det T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import PAULIS

TRACE_TOL = 1e-10
PSD_TOL = 1e-9

#: classification tolerance for the strict inequalities F > 2/3 and |t| > 1/3
EPS_CLS = 1e-9
#: tolerance for the all-|t_ii|-equal universality test
EPS_UQT = 1e-9
#: a correlation magnitude at most this times max(1, largest) is zero, so
#: det T is exactly 0 and not the rounding noise around it
ZERO_CORR = 1e-14

# kron(sigma_i, sigma_j) for all 16 Pauli pairs, indexed [i, j].
_PP = np.array([[np.kron(si, sj) for sj in PAULIS] for si in PAULIS])
_PP.setflags(write=False)

_B = 1.0 / np.sqrt(2.0)
#: Bell basis kets: (|00>+|11>), (|01>+|10>), (|01>-|10>), (|00>-|11>), all /sqrt(2)
BELL_KETS = (
    np.array([_B, 0.0, 0.0, _B], dtype=complex),
    np.array([0.0, _B, _B, 0.0], dtype=complex),
    np.array([0.0, _B, -_B, 0.0], dtype=complex),
    np.array([_B, 0.0, 0.0, -_B], dtype=complex),
)
for _k in BELL_KETS:
    _k.setflags(write=False)

_YY = np.kron(PAULIS[2], PAULIS[2])
_YY.setflags(write=False)


@dataclass(frozen=True)
class HSDecomposition:
    r_vec: np.ndarray  # (3,) Alice local Bloch vector
    s_vec: np.ndarray  # (3,) Bob local Bloch vector
    t_mat: np.ndarray  # (3,3) correlation matrix


@dataclass(frozen=True)
class TwoQubitState:
    rho: np.ndarray  # (4,4) complex density matrix, trace 1
    hs: HSDecomposition
    eig: linalg.EigenDecomp  # spectrum of rho, computed once by from_density


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Correlation magnitudes |t_11| >= |t_22| >= |t_33|, det T, and signs.

    `signs` are the signs of the correlation eigenvalues matched to `abs_t`
    when T is symmetric; for a non-symmetric T only the magnitudes (singular
    values) and the determinant are meaningful and `signs` is None.
    """

    abs_t: np.ndarray
    det_t: float
    signs: tuple[int, int, int] | None


@dataclass(frozen=True)
class TeleportProfile:
    """Maximal average fidelity F, fidelity deviation, and verdicts.

    The closed forms F = (1 + sum|t_ii|/3)/2 and
    delta = sqrt(sum_{i<j}(|t_ii|-|t_jj|)^2) / (3 sqrt(10)) apply when
    det T <= 0 (`formula_valid`); for det T > 0 f_max and delta are None and
    the state is classified not useful (useful states all have det T < 0).
    """

    f_max: float | None
    delta: float | None
    det_t: float
    spectrum: CorrelationSpectrum
    useful: bool
    universal: bool
    uqt: bool
    formula_valid: bool


def _hs_decompose(rho: np.ndarray) -> HSDecomposition:
    r_vec = np.einsum("ab,iba->i", rho, _PP[1:, 0]).real
    s_vec = np.einsum("ab,iba->i", rho, _PP[0, 1:]).real
    t_mat = np.einsum("ab,ijba->ij", rho, _PP[1:, 1:]).real
    for arr in (r_vec, s_vec, t_mat):
        arr.setflags(write=False)
    return HSDecomposition(r_vec=r_vec, s_vec=s_vec, t_mat=t_mat)


def hs_recompose(hs: HSDecomposition) -> np.ndarray:
    """Rebuild the density matrix from (R, S, T)."""
    rho = np.array(_PP[0, 0], dtype=complex)
    rho += np.einsum("i,iab->ab", hs.r_vec, _PP[1:, 0])
    rho += np.einsum("i,iab->ab", hs.s_vec, _PP[0, 1:])
    rho += np.einsum("ij,ijab->ab", hs.t_mat, _PP[1:, 1:])
    return rho / 4.0


def from_density(m) -> TwoQubitState:
    """Validate a 4x4 density matrix; attach its Pauli and eigen decompositions.

    hermitian_eig rejects non-finite and non-Hermitian input; the stored rho
    is the Hermitian part scaled to trace 1, its spectrum scaled with it."""
    rho = np.asarray(m, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    eig = linalg.hermitian_eig(rho)
    tr = complex(np.trace(rho)).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr!r} differs from 1 beyond {TRACE_TOL:g}")
    vals = eig.eigenvalues / tr
    if vals[-1] < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {vals[-1]:.3e}")
    vals.setflags(write=False)
    rho = (rho + rho.conj().T) / (2.0 * tr)
    rho.setflags(write=False)
    return TwoQubitState(rho=rho, hs=_hs_decompose(rho),
                         eig=linalg.EigenDecomp(vals, eig.eigenvectors))


def from_ket(psi) -> TwoQubitState:
    """Two-qubit pure state from a 4-component ket (normalized internally)."""
    v = np.asarray(psi, dtype=complex).reshape(4)
    v = v / np.sqrt(np.vdot(v, v).real)
    return from_density(np.outer(v, v.conj()))


def pure_state(a: float) -> TwoQubitState:
    """|Psi_a> = sqrt(a)|00> + sqrt(1-a)|11> with 1/2 <= a < 1.

    a = 1/2 gives the first Bell state; concurrence is 2 sqrt(a(1-a)).
    """
    if not 0.5 <= a < 1.0:
        raise ValueError(f"a must lie in [1/2, 1), got {a!r}")
    ket = np.array([np.sqrt(a), 0.0, 0.0, np.sqrt(1.0 - a)], dtype=complex)
    return from_ket(ket)


def pure_state_from_concurrence(c: float) -> TwoQubitState:
    """|Psi_a> with the larger Schmidt weight chosen so that C(|Psi_a>) = c."""
    if not 0.0 < c <= 1.0:
        raise ValueError(f"concurrence must lie in (0, 1], got {c!r}")
    a = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
    return pure_state(min(a, np.nextafter(1.0, 0.0)))


def bell_state(k: int) -> TwoQubitState:
    """Projector onto the k-th Bell state, k in 1..4."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"Bell index must be 1..4, got {k!r}")
    return from_ket(BELL_KETS[k - 1])


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence: max(0, l1 - l2 - l3 - l4) with l_k the sorted
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).

    Computed as the singular values of sqrt(rho) (sy x sy) sqrt(rho)^T, which
    carry the same spectrum without the precision loss of a non-Hermitian
    eigenvalue problem (rank-deficient states stay accurate to ~1e-14)."""
    dec = state.eig
    root = (dec.eigenvectors * np.sqrt(np.clip(dec.eigenvalues, 0.0, None))) \
        @ dec.eigenvectors.conj().T
    lam = np.linalg.svd(root @ _YY @ root.T, compute_uv=False)
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


def nonzero_magnitudes(abs_t: np.ndarray) -> np.ndarray:
    """Mask of the correlation magnitudes (sorted descending) that are not
    zero: above ZERO_CORR * max(1, largest)."""
    return abs_t > ZERO_CORR * max(1.0, float(abs_t[0]))


def correlation_spectrum(state: TwoQubitState) -> CorrelationSpectrum:
    """Correlation magnitudes and det T; det T is exactly 0.0 when the
    smallest magnitude is zero by `nonzero_magnitudes`, so its sign, and
    with it `formula_valid`, does not follow rounding."""
    t = state.hs.t_mat
    det_t = float(np.linalg.det(t))
    if np.max(np.abs(t - t.T)) <= 1e-10:
        eigs = np.linalg.eigvalsh((t + t.T) / 2.0)
        order = np.argsort(-np.abs(eigs), kind="stable")
        eigs = eigs[order]
        abs_t = np.abs(eigs)
        signs = tuple(1 if e >= 0.0 else -1 for e in eigs)
    else:
        abs_t = np.linalg.svd(t, compute_uv=False)
        signs = None
    abs_t = np.asarray(abs_t, dtype=float)
    if not nonzero_magnitudes(abs_t)[-1]:
        det_t = 0.0
    abs_t.setflags(write=False)
    return CorrelationSpectrum(abs_t=abs_t, det_t=det_t, signs=signs)


def profile(state: TwoQubitState) -> TeleportProfile:
    """Classify a state for quantum teleportation.

    When det T <= 0: F = (1 + sum|t_ii|/3)/2 with |t_ii| the singular values
    of T, delta per the spread of the |t_ii|, useful iff F > 2/3, universal
    iff the |t_ii| are all equal (zero deviation), and useful for universal
    teleportation iff additionally min|t_ii| > 1/3. When det T > 0 the
    closed forms do not apply and the state is not useful.
    """
    spec = correlation_spectrum(state)
    a1, a2, a3 = (float(x) for x in spec.abs_t)
    if spec.det_t <= 0.0:
        f_max = (1.0 + (a1 + a2 + a3) / 3.0) / 2.0
        spread = (a1 - a2) ** 2 + (a1 - a3) ** 2 + (a2 - a3) ** 2
        delta = float(np.sqrt(spread) / (3.0 * np.sqrt(10.0)))
        useful = bool(f_max > 2.0 / 3.0 + EPS_CLS)
        universal = bool(a1 - a3 <= EPS_UQT and delta <= EPS_UQT)
        uqt = bool(useful and universal and a3 > 1.0 / 3.0 + EPS_CLS)
        return TeleportProfile(
            f_max=float(f_max), delta=float(delta), det_t=spec.det_t, spectrum=spec,
            useful=useful, universal=universal, uqt=uqt, formula_valid=True,
        )
    return TeleportProfile(
        f_max=None, delta=None, det_t=spec.det_t, spectrum=spec,
        useful=False, universal=False, uqt=False, formula_valid=False,
    )
