"""Two-qubit states: Pauli-basis decomposition, concurrence, teleportation profile.

A state carries its density matrix together with the cached decomposition
rho = (1/4) [I + R.sigma x I + I x S.sigma + sum_ij T_ij sigma_i x sigma_j],
where R and S are the local Bloch vectors of qubit 1 (Alice) and qubit 2
(Bob) and T is the 3x3 correlation matrix. The teleportation figures of
merit depend on the state only through the singular values of T (the
correlation magnitudes) and sign(det T).
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
    """Correlation magnitudes |t_11| >= |t_22| >= |t_33| (the singular
    values of T) and det T."""

    abs_t: np.ndarray
    det_t: float


@dataclass(frozen=True)
class TeleportProfile:
    """Maximal average fidelity F, fidelity deviation, and verdicts of one
    state, as `verdicts` defines them; f_max and delta are None where the
    closed forms do not apply (det T > 0, formula_valid False)."""

    f_max: float | None
    delta: float | None
    det_t: float
    spectrum: CorrelationSpectrum
    useful: bool
    universal: bool
    uqt: bool
    formula_valid: bool


def hs_decompose(rho: np.ndarray) -> HSDecomposition:
    """(R, S, T) of a density matrix, or of each matrix of a stack, read off
    its coefficients Tr(rho sigma_i x sigma_j) on all 16 Pauli pairs."""
    coef = np.einsum("...ab,ijba->...ij", rho, _PP).real
    coef.setflags(write=False)
    return HSDecomposition(r_vec=coef[..., 1:, 0], s_vec=coef[..., 0, 1:], t_mat=coef[..., 1:, 1:])


def hs_recompose(hs: HSDecomposition) -> np.ndarray:
    """Rebuild the density matrix from (R, S, T)."""
    rho = np.array(_PP[0, 0], dtype=complex)
    rho += np.einsum("i,iab->ab", hs.r_vec, _PP[1:, 0])
    rho += np.einsum("i,iab->ab", hs.s_vec, _PP[0, 1:])
    rho += np.einsum("ij,ijab->ab", hs.t_mat, _PP[1:, 1:])
    return rho / 4.0


def _unit_trace(rho: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """Hermitian part of each matrix of a stack divided by its trace tr."""
    rho = (rho + rho.conj().swapaxes(1, 2)) / (2.0 * tr)[:, None, None]
    rho.setflags(write=False)
    return rho


@dataclass(frozen=True)
class DensityStack:
    """`density_stack` of N matrices: per member the rho and spectrum
    from_density stores, and the message from_density raises for it or None
    if it is accepted; a rejected member's rho and spectrum mean nothing."""

    rho: np.ndarray  # (N, 4, 4)
    eig: linalg.EigenDecomp  # (N, 4), (N, 4, 4)
    errors: tuple[str | None, ...]


def density_stack(m) -> DensityStack:
    """Check a stack (N, 4, 4) of density matrices with one hermitian_eig
    call and scale each to trace 1.

    hermitian_eig rejects the whole stack if a member is non-finite or
    non-Hermitian; callers stack matrices that are both by construction.
    A member's trace must be 1 within TRACE_TOL and its spectrum, scaled to
    trace 1, non-negative within PSD_TOL. The stored rho is the Hermitian
    part scaled to trace 1, its spectrum scaled with it.
    """
    rho = np.asarray(m, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {rho.shape}")
    eig = linalg.hermitian_eig(rho)
    traces = rho.trace(axis1=1, axis2=2).real
    bad_trace = np.abs(traces - 1.0) > TRACE_TOL
    tr = np.where(bad_trace, 1.0, traces)  # never divide by a rejected, possibly zero, trace
    vals = eig.eigenvalues / tr[:, None]
    vals.setflags(write=False)
    errors = tuple(
        f"density matrix trace {t!r} differs from 1 beyond {TRACE_TOL:g}" if bad
        else f"density matrix has negative eigenvalue {low:.3e}" if low < -PSD_TOL else None
        for t, bad, low in zip(traces.tolist(), bad_trace.tolist(), vals[:, -1].tolist()))
    return DensityStack(rho=_unit_trace(rho, tr), eig=linalg.EigenDecomp(vals, eig.eigenvectors),
                        errors=errors)


def from_density(m) -> TwoQubitState:
    """Validate a 4x4 density matrix; attach its Pauli and eigen decompositions.

    The one-member view of `density_stack`: hermitian_eig rejects
    non-finite and non-Hermitian input, and the trace and PSD checks raise
    ValueError; the stored rho is the Hermitian part scaled to trace 1, its
    spectrum scaled with it."""
    rho = np.asarray(m, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    dens = density_stack(rho[None])
    if dens.errors[0] is not None:
        raise ValueError(dens.errors[0])
    rho = dens.rho[0]
    return TwoQubitState(rho=rho, hs=hs_decompose(rho),
                         eig=linalg.EigenDecomp(dens.eig.eigenvalues[0], dens.eig.eigenvectors[0]))


def _ket_density(psi) -> np.ndarray:
    """|v><v| of the ket psi normalized to v, before from_density's checks."""
    v = np.asarray(psi, dtype=complex).reshape(4)
    v = v / np.sqrt(np.vdot(v, v).real)
    return np.outer(v, v.conj())


def from_ket(psi) -> TwoQubitState:
    """Two-qubit pure state from a 4-component ket (normalized internally)."""
    return from_density(_ket_density(psi))


def _psi_a_ket(a: float) -> np.ndarray:
    """The ket sqrt(a)|00> + sqrt(1-a)|11>, a checked to lie in [1/2, 1)."""
    if not 0.5 <= a < 1.0:
        raise ValueError(f"a must lie in [1/2, 1), got {a!r}")
    return np.array([np.sqrt(a), 0.0, 0.0, np.sqrt(1.0 - a)], dtype=complex)


def pure_state(a: float) -> TwoQubitState:
    """|Psi_a> = sqrt(a)|00> + sqrt(1-a)|11> with 1/2 <= a < 1.

    a = 1/2 gives the first Bell state; concurrence is 2 sqrt(a(1-a)).
    """
    return from_ket(_psi_a_ket(a))


def _a_of_concurrence(c: float) -> float:
    """The larger Schmidt weight a of the |Psi_a> with concurrence c."""
    if not 0.0 < c <= 1.0:
        raise ValueError(f"concurrence must lie in (0, 1], got {c!r}")
    return min((1.0 + np.sqrt(1.0 - c * c)) / 2.0, np.nextafter(1.0, 0.0))


def pure_state_from_concurrence(c: float) -> TwoQubitState:
    """|Psi_a> with the larger Schmidt weight chosen so that C(|Psi_a>) = c."""
    return pure_state(_a_of_concurrence(c))


def pure_densities_from_concurrence(cs) -> np.ndarray:
    """The rho of pure_state_from_concurrence(c) for each c of a sequence,
    as one (N, 4, 4) stack, without their eigendecompositions."""
    raw = np.array([_ket_density(_psi_a_ket(_a_of_concurrence(c))) for c in cs],
                   dtype=complex).reshape(-1, 4, 4)
    return _unit_trace(raw, raw.trace(axis1=1, axis2=2).real)


_BELL_STATES = tuple(from_ket(k) for k in BELL_KETS)


def bell_state(k: int) -> TwoQubitState:
    """Projector onto the k-th Bell state, k in 1..4; one immutable state
    per k, built at import."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"Bell index must be 1..4, got {k!r}")
    return _BELL_STATES[k - 1]


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
    """Mask of the correlation magnitudes (sorted descending, along the last
    axis) that are not zero: above ZERO_CORR * max(1, largest)."""
    return abs_t > ZERO_CORR * np.maximum(1.0, abs_t[..., :1])


@dataclass(frozen=True)
class Verdicts:
    """`verdicts` of a stack, one entry per matrix; f_max and delta are
    meaningful only where formula_valid."""

    abs_t: np.ndarray  # (..., 3) singular values of T, descending
    det_t: np.ndarray
    f_max: np.ndarray
    delta: np.ndarray
    formula_valid: np.ndarray
    useful: np.ndarray
    universal: np.ndarray
    uqt: np.ndarray


def verdicts(t_mat: np.ndarray) -> Verdicts:
    """Classify correlation matrices of shape (..., 3, 3) for teleportation.

    F = (1 + sum|t_ii|/3)/2 and delta = sqrt(sum_{i<j}(|t_ii|-|t_jj|)^2) /
    (3 sqrt(10)) with |t_ii| the singular values of T; they apply when
    det T <= 0 (formula_valid). det T is exactly 0.0 when the smallest
    magnitude is zero by `nonzero_magnitudes`, so its sign does not follow
    rounding. Useful iff F > 2/3, universal iff the |t_ii| are all equal
    (zero deviation), useful for universal teleportation (uqt) iff both and
    min|t_ii| > 1/3; a state with det T > 0 is none of these.
    """
    abs_t = np.linalg.svd(t_mat, compute_uv=False)
    abs_t.setflags(write=False)
    # a masked negative det is -0.0; adding 0.0 makes it 0.0 (np.where would
    # turn one state's scalars into slower 0-d arrays)
    det_t = np.linalg.det(t_mat) * nonzero_magnitudes(abs_t)[..., -1] + 0.0
    a1, a2, a3 = abs_t[..., 0], abs_t[..., 1], abs_t[..., 2]
    f_max = (1.0 + (a1 + a2 + a3) / 3.0) / 2.0
    delta = np.sqrt((a1 - a2) ** 2 + (a1 - a3) ** 2 + (a2 - a3) ** 2) / (3.0 * np.sqrt(10.0))
    valid = det_t <= 0.0
    useful = valid & (f_max > 2.0 / 3.0 + EPS_CLS)
    universal = valid & (a1 - a3 <= EPS_UQT) & (delta <= EPS_UQT)
    return Verdicts(abs_t=abs_t, det_t=det_t, f_max=f_max, delta=delta,
                    formula_valid=valid, useful=useful, universal=universal,
                    uqt=useful & universal & (a3 > 1.0 / 3.0 + EPS_CLS))


def correlation_spectrum(state: TwoQubitState) -> CorrelationSpectrum:
    """Correlation magnitudes and det T of one state, as `verdicts` finds them."""
    return profile(state).spectrum


def profile(state: TwoQubitState) -> TeleportProfile:
    """Classify one state for quantum teleportation: `verdicts` of its
    correlation matrix, with f_max and delta None where det T > 0."""
    v = verdicts(state.hs.t_mat)
    valid = bool(v.formula_valid)
    spec = CorrelationSpectrum(abs_t=v.abs_t, det_t=float(v.det_t))
    return TeleportProfile(
        f_max=float(v.f_max) if valid else None, delta=float(v.delta) if valid else None,
        det_t=spec.det_t, spectrum=spec, useful=bool(v.useful),
        universal=bool(v.universal), uqt=bool(v.uqt), formula_valid=valid,
    )
