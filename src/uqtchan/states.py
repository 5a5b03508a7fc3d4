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


@dataclass(frozen=True)
class TeleportProfile:
    """Maximal average fidelity F, fidelity deviation, det T, the correlation
    magnitudes |t_11| >= |t_22| >= |t_33| (the singular values of T) and the
    verdicts, as `verdicts` defines them: arrays with one entry per matrix
    of a stack from `verdicts`, Python values of one state from `profiles`
    and `profile`, where f_max and delta are None if the closed forms do not
    apply (det T > 0, formula_valid False)."""

    f_max: float | None
    delta: float | None
    det_t: float
    abs_t: np.ndarray  # (..., 3), descending
    useful: bool
    universal: bool
    uqt: bool
    formula_valid: bool


def pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """Real Tr(rho sigma_i x sigma_j), i, j = 0..3 with sigma_0 = I, of a 4x4 matrix or stack."""
    return np.einsum("...ab,ijba->...ij", rho, _PP).real


def hs_decompose(rho: np.ndarray) -> HSDecomposition:
    """(R, S, T) of a density matrix, or of each matrix of a stack, read off
    its `pauli_coefficients`."""
    coef = pauli_coefficients(rho)
    coef.setflags(write=False)
    return HSDecomposition(r_vec=coef[..., 1:, 0], s_vec=coef[..., 0, 1:], t_mat=coef[..., 1:, 1:])


@dataclass(frozen=True)
class DensityStack:
    """`density_stack` of N matrices: per member the rho from_density stores
    and the message from_density raises for it or None if it is accepted; a
    rejected member's rho and eigenvalues mean nothing."""

    rho: np.ndarray  # (N, 4, 4)
    errors: tuple[str | None, ...]
    eigenvalues: np.ndarray | None  # (N, 4) the check read, scaled with rho; None if certified


def density_stack(m, floor: float | None = -PSD_TOL / 2) -> DensityStack:
    """Check a stack (N, 4, 4) of density matrices and scale each to trace 1.

    linalg.hermitian_part rejects the whole stack if a member is non-finite
    or non-Hermitian; callers stack matrices that are both by construction.
    A member's trace must be 1 within TRACE_TOL and its spectrum, scaled to
    trace 1, non-negative within PSD_TOL: read only if `linalg.spectra_above`
    does not certify every scaled spectrum above floor (None: no try; a floor
    >= -PSD_TOL/2 keeps a 5e-10 margin). The stored rho is the gate's Hermitian part
    over the trace: halving is exact, so the bits are those of (M + M^dag) / (2 tr).
    """
    rho = np.ascontiguousarray(m, dtype=complex)  # the trace sums in memory order
    if rho.ndim != 3 or rho.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {rho.shape}")
    herm = linalg.hermitian_part(rho)
    traces = rho.diagonal(0, 1, 2).sum(axis=1).real  # the trace, without its dispatch
    bad_trace = np.abs(traces - 1.0) > TRACE_TOL
    tr = np.where(bad_trace, 1.0, traces)  # never divide by a rejected, possibly zero, trace
    vals = None if floor is not None and linalg.spectra_above(herm, floor * tr) \
        else linalg.spectra(herm) / tr[:, None]
    low = np.zeros(len(rho)) if vals is None else vals[:, -1]  # certified: none low
    errors = [None] * len(rho)
    for i in (bad_trace | (low < -PSD_TOL)).nonzero()[0].tolist():  # the rejected members only
        errors[i] = f"density matrix trace {traces[i].item()!r} differs from 1 beyond {TRACE_TOL:g}" \
            if bad_trace[i] else f"density matrix has negative eigenvalue {low[i].item():.3e}"
    rho = herm / tr[:, None, None]
    rho.setflags(write=False)
    return DensityStack(rho=rho, errors=tuple(errors), eigenvalues=vals)


def from_density(m) -> TwoQubitState:
    """Validate a 4x4 density matrix; attach its Pauli decomposition.

    The one-member view of `density_stack`, whose certificate spares the
    eigenvalues: its gate rejects non-finite and non-Hermitian input, and the trace and
    PSD checks raise ValueError; the stored rho is the Hermitian part scaled to trace 1."""
    rho = np.asarray(m, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    dens = density_stack(rho[None])
    if dens.errors[0] is not None:
        raise ValueError(dens.errors[0])
    rho = dens.rho[0]
    return TwoQubitState(rho=rho, hs=hs_decompose(rho))


def _ket_densities(kets) -> np.ndarray:
    """|v><v| of each ket of an (N, 4) stack normalized to v, before
    from_density's checks: each norm by one stacked @, the bits of np.vdot."""
    v = np.asarray(kets, dtype=complex)
    v = v / np.sqrt((v.conj()[:, None, :] @ v[:, :, None])[:, :, 0].real)
    return v[:, :, None] * v.conj()[:, None, :]


def from_ket(psi) -> TwoQubitState:
    """Two-qubit pure state from a 4-component ket (normalized internally):
    the one-member view of `_ket_densities`."""
    return from_density(_ket_densities(np.reshape(psi, (1, 4)))[0])


def pure_densities(a_values) -> np.ndarray:
    """|Psi_a><Psi_a| of |Psi_a> = sqrt(a)|00> + sqrt(1-a)|11> for each a in
    [1/2, 1), one (N, 4, 4) stack without from_density's checks and scaling;
    a ValueError names the first other a."""
    a = np.asarray(a_values, dtype=float).reshape(-1)
    bad = ~((0.5 <= a) & (a < 1.0))  # NaN is bad
    if bad.any():
        raise ValueError(f"a must lie in [1/2, 1), got {a[bad][0].tolist()!r}")
    weights = np.stack([a, 0.0 * a, 0.0 * a, 1.0 - a], axis=1)  # of |00>, |01>, |10>, |11>
    return _ket_densities(np.sqrt(weights))


def pure_densities_from_concurrence(cs) -> np.ndarray:
    """`pure_densities` of the |Psi_a> of concurrence c and the larger Schmidt
    weight a for each c in (0, 1]; a ValueError names the first other c."""
    c = np.asarray(cs, dtype=float).reshape(-1)
    bad = ~((0.0 < c) & (c <= 1.0))
    if bad.any():
        raise ValueError(f"concurrence must lie in (0, 1], got {c[bad][0].tolist()!r}")
    return pure_densities(np.minimum((1.0 + np.sqrt(1.0 - c * c)) / 2.0, np.nextafter(1.0, 0.0)))


def pure_state(a: float) -> TwoQubitState:
    """|Psi_a> for one a in [1/2, 1): the one-member view of `pure_densities`;
    a = 1/2 gives the first Bell state, and the concurrence is 2 sqrt(a(1-a))."""
    return from_density(pure_densities([a])[0])


def pure_state_from_concurrence(c: float) -> TwoQubitState:
    """|Psi_a> with the larger Schmidt weight chosen so that C(|Psi_a>) = c:
    the one-member view of `pure_densities_from_concurrence`."""
    return from_density(pure_densities_from_concurrence([c])[0])


_BELL_STATES = tuple(from_ket(k) for k in BELL_KETS)


def bell_state(k: int) -> TwoQubitState:
    """Projector onto the k-th Bell state, k in 1..4; one immutable state
    per k, built at import."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"Bell index must be 1..4, got {k!r}")
    return _BELL_STATES[k - 1]


def concurrences(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each density matrix of a stack (N, 4, 4):
    max(0, l1 - l2 - l3 - l4) with l_k the sorted square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy), by one hermitian_eig.

    Computed as the singular values of sqrt(rho) (sy x sy) sqrt(rho)^T, which
    carry the same spectrum without the precision loss of a non-Hermitian
    eigenvalue problem (rank-deficient states stay accurate to ~1e-14). A
    state gets the same concurrence alone as inside a stack."""
    dec = linalg.hermitian_eig(rho)
    vecs = dec.eigenvectors
    root = (vecs * np.sqrt(np.clip(dec.eigenvalues, 0.0, None))[:, None, :]) @ linalg.dagger(vecs)
    lam = np.linalg.svd(root @ _YY @ root.swapaxes(1, 2), compute_uv=False)
    return np.clip(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0, 1.0)


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence of one state: the one-member view of `concurrences`."""
    return float(concurrences(state.rho[None])[0])


_DELTA_SCALE = 3.0 * np.sqrt(10.0)
#: an exactly diagonal T whose largest |t_ii| lies in this range gets its
#: singular values without LAPACK; dgesdd rescales only below ~1e-138 and
#: above ~1e138, where its bits can differ from the sorted |t_ii|
_DIAG_RANGE = (1e-100, 1e100)


def _singular_values(t_mat: np.ndarray) -> np.ndarray:
    """np.linalg.svd(t_mat, compute_uv=False) of a stack (..., 3, 3), bit for bit.

    A member whose six off-diagonal entries are zero (either sign) and whose
    largest |t_ii| lies in _DIAG_RANGE gets its |t_ii| sorted descending:
    on such a matrix dgesdd's bidiagonal reduction changes nothing (every
    reflector is the identity) and dlasq1, with all off-diagonals zero,
    returns |d| sorted by dlasrt. Every other member, NaN and inf ones too,
    goes to LAPACK; a stack whose members all take one path is not split.
    """
    nonzero = np.count_nonzero(t_mat)  # NaN counts
    # a member with six zero off-diagonals leaves at most size - 6 nonzero entries
    if nonzero > t_mat.size - 6 or t_mat.dtype != np.float64:
        return np.linalg.svd(t_mat, compute_uv=False)
    mags = np.abs(t_mat.diagonal(0, -2, -1))
    mags.sort()  # NaN sorts last: a NaN member's largest is NaN
    largest = mags[..., -1]
    lo, hi = _DIAG_RANGE
    if nonzero == np.count_nonzero(mags) and lo <= largest.min() and largest.max() <= hi:
        return mags[..., ::-1]
    fast = (np.count_nonzero(t_mat, axis=(-2, -1)) == np.count_nonzero(mags, axis=-1)) \
        & (lo <= largest) & (largest <= hi)
    if not fast.any():
        return np.linalg.svd(t_mat, compute_uv=False)
    mags = mags[..., ::-1]
    slow = ~fast
    mags[slow] = np.linalg.svd(t_mat[slow], compute_uv=False)
    return mags


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def verdicts(t_mat: np.ndarray) -> TeleportProfile:
    """Classify correlation matrices (..., 3, 3) into one TeleportProfile of arrays.

    F = (1 + sum|t_ii|/3)/2 and delta = sqrt(sum_{i<j}(|t_ii|-|t_jj|)^2) /
    (3 sqrt(10)) with |t_ii| the singular values of T; they apply when
    det T <= 0 (formula_valid). det T is exactly 0.0 when the smallest
    magnitude is zero by ZERO_CORR, so its sign does not follow
    rounding. Useful iff F > 2/3, universal iff the |t_ii| are all equal
    (zero deviation), useful for universal teleportation (uqt) iff both and
    min|t_ii| > 1/3; a state with det T > 0 is none of these. A NaN member raises
    LinAlgError; inf reads NaN and an overflow inf, and neither, nor a subnormal det pivot, warns.
    """
    abs_t = _singular_values(np.asarray(t_mat))
    abs_t.setflags(write=False)
    a1, a2, a3 = abs_t[..., 0], abs_t[..., 1], abs_t[..., 2]
    # a masked negative det is -0.0; adding 0.0 makes it 0.0 (np.where would
    # turn one state's scalars into slower 0-d arrays)
    det_t = np.linalg.det(t_mat) * (a3 > ZERO_CORR * np.maximum(1.0, a1)) + 0.0
    f_max = (1.0 + (a1 + a2 + a3) / 3.0) / 2.0
    spread = a1 - a3
    # np.square, not ** 2: a float64 scalar's ** 2 is libm pow, which can
    # round differently from the x * x of an array, so a state alone would
    # get another last digit than inside a stack
    delta = np.sqrt(np.square(a1 - a2) + np.square(spread) + np.square(a2 - a3)) / _DELTA_SCALE
    valid = det_t <= 0.0
    useful = valid & (f_max > 2.0 / 3.0 + EPS_CLS)
    # each difference is at most the spread, so delta <= spread / sqrt(30),
    # rounding included: a spread within EPS_UQT is also a zero deviation
    universal = valid & (spread <= EPS_UQT)
    return TeleportProfile(f_max=f_max, delta=delta, det_t=det_t, abs_t=abs_t, useful=useful,
                           universal=universal, uqt=useful & universal & (a3 > 1.0 / 3.0 + EPS_CLS),
                           formula_valid=valid)


def profile_columns(prof: TeleportProfile) -> dict:
    """The fields of an array-field TeleportProfile (of `verdicts`) as
    columns of Python values, one tolist() per field but abs_t, which stays
    an (N, 3) array; f_max and delta are None where det T > 0."""
    cols = {name: col if name == "abs_t" else col.tolist() for name, col in vars(prof).items()}
    for name in ("f_max", "delta"):
        cols[name] = [x if ok else None for x, ok in zip(cols[name], cols["formula_valid"])]
    return cols


def profiles(t_mat: np.ndarray) -> list[TeleportProfile]:
    """The TeleportProfile of each correlation matrix of a stack (N, 3, 3) in
    Python values: the rows of the `profile_columns` of one `verdicts` call."""
    return [TeleportProfile(*row) for row in zip(*profile_columns(verdicts(t_mat)).values())]


def profile(state: TwoQubitState) -> TeleportProfile:
    """Classify one state for quantum teleportation: the one-member view of
    `profiles`."""
    return profiles(state.hs.t_mat[None])[0]
