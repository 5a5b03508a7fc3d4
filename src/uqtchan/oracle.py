"""Independent numerical verification of the teleportation figures of merit.

Three pieces:

* a literal 3-qubit simulation of the standard teleportation protocol
  (Bell measurement on the input qubit and Alice's half, Pauli correction
  on Bob's half),
* Haar quadrature of the fidelity moments over all pure input states,
* canonicalization by local rotations so that the standard protocol
  achieves the maximal average fidelity.

The correction for outcome k is the Pauli relating the k-th Bell state to
the first one, so the protocol teleports perfectly through |Phi_1>. In this
gauge the protocol's mean fidelity through a state with diagonal correlation
matrix diag(d1, d2, d3) is (1 + (d1 - d2 + d3)/3) / 2; the canonical sign
pattern below maximizes it, reproducing the closed forms of states.profile.
The quadrature reads the protocol off a state's Pauli coefficients C, which
the sweep oracle rotates by the canonical SO(3) pair; only `canonicalize`,
which returns the local unitaries, lifts the pair to SU(2).

Each piece takes a stack of N shared states; teleport_output, numeric_moments
and canonicalize are one-member views. All computations are pure functions of
their inputs; quadrature sums use a fixed node order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import I2, PAULIS, SX, SZ, dagger
from .states import BELL_KETS, TwoQubitState, hs_decompose, pauli_coefficients

#: corrections for Bell outcomes 1..4: the Pauli m_k with |Phi_k> = (m_k x I)|Phi_1>
CORRECTIONS = (I2, SX, SZ @ SX, SZ)

_PAULI_STACK = np.array(PAULIS)
#: The protocol with the shared state and the input left open, summed over the
#: outcomes k: R[i, i', c, c', r] = sum_k P_k[(i' a'), (i a)] m_k[c, b] m_k*[c', b']
#: for rho's entry r = (a b, a' b'), P_k the Bell projector on (input, Alice)
_PROJ = np.array([np.outer(k, k.conj()) for k in BELL_KETS]).reshape(4, 2, 2, 2, 2)
_REGISTER = np.einsum("kyzia,kcb,kde->iycdabze", _PROJ, np.array(CORRECTIONS),
                      np.array(CORRECTIONS).conj()).reshape(2, 2, 2, 2, 16)
#: the protocol's response Tr(sigma_i L[sigma_j]) per entry r = (a b, z e) of rho, read in the
#: Pauli basis rho = sum_kl C_kl sigma_k x sigma_l / 4: P[(k l), (i j)] (16, 16), G = C P
_RESPONSE = (np.einsum("kaz,lbe->klabze", _PAULI_STACK, _PAULI_STACK).reshape(16, 16) @ np.einsum(
    "icd,jxy,xydcr->rij", _PAULI_STACK, _PAULI_STACK, _REGISTER).reshape(16, 16)).real / 4.0
#: (sigma_i sigma_x sigma_j)[a, d], i, j = 1..3, as (9, 16): the SU(2) lift with O left open
_LIFT = np.einsum("iab,xbc,jcd->ijxad", _PAULI_STACK[1:], _PAULI_STACK,
                  _PAULI_STACK[1:]).reshape(9, 16)


def _bloch_to_rho(n_vec) -> np.ndarray:
    """(I + n.sigma)/2 of a Bloch vector, or of each vector of a stack (..., 3)."""
    n = np.asarray(n_vec, dtype=float)
    return 0.5 * (I2 + np.einsum("...i,iab->...ab", n, _PAULI_STACK[1:]))


def _protocol(rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Outputs (N, M, 2, 2) of the protocol through shared states (N, 4, 4) on
    input operators (M, 2, 2): the register (input, Alice, Bob) x (x) rho,
    Bell-projected on (input, Alice), traced over them and corrected on Bob.
    The state-independent factors go first: no intermediate exceeds M * 64."""
    ops = np.einsum("mij,ijcdr->mcdr", x, _REGISTER)
    return np.einsum("nr,mcdr->nmcd", rho.reshape(len(rho), 16), ops)


def teleport_output(shared: TwoQubitState, input_bloch) -> np.ndarray:
    """Output density matrix of the standard protocol for one pure input."""
    return _protocol(shared.rho[None], _bloch_to_rho(input_bloch)[None])[0, 0]


@dataclass(frozen=True)
class QuadratureSpec:
    """Bloch-sphere averaging rule under normalized Haar weight: Gauss-Legendre
    nodes in cos(theta) and a uniform periodic grid in phi."""

    n_theta: int = 64
    n_phi: int = 64

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(weights, bloch_vectors) with weights summing to 1."""
        if self.n_theta < 2:
            raise ValueError(f"n_theta must be >= 2, got {self.n_theta}")
        if self.n_phi < 4:
            raise ValueError(f"n_phi must be >= 4, got {self.n_phi}")
        x, wx = np.polynomial.legendre.leggauss(self.n_theta)
        phi_grid = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        cos_t = np.repeat(x, self.n_phi)
        phi = np.tile(phi_grid, self.n_theta)
        weights = np.repeat(wx / 2.0, self.n_phi) / self.n_phi
        sin_t = np.sqrt(np.clip(1.0 - cos_t**2, 0.0, None))
        bloch = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=1)
        return weights, bloch


#: exact, built once: f^2 has degree 4 in the Bloch vector, and 3 Gauss-Legendre
#: nodes (exact to degree 5) times 5 phi points (to harmonic 4) integrate it
EXACT_RULE = QuadratureSpec(3, 5).nodes()
for _m in (_PAULI_STACK, _REGISTER, _RESPONSE, _LIFT, *EXACT_RULE):
    _m.setflags(write=False)


@dataclass(frozen=True)
class NumericMoments:
    mean_f: float
    delta: float


def fidelities(coef: np.ndarray, bloch: np.ndarray) -> np.ndarray:
    """Protocol fidelities (N, Q) through shared states of `pauli_coefficients` C
    (N, 4, 4) for input Bloch vectors (Q, 3): (1, n) G (1, n)^T / 4, G = C P by one
    product per member."""
    g = (coef.reshape(len(coef), 1, 16) @ _RESPONSE).reshape(len(coef), 4, 4)
    v = np.column_stack([np.ones(len(bloch)), bloch])
    return 0.25 * np.einsum("qi,nij,qj->nq", v, g, v)


def moments(coef: np.ndarray, rule: tuple[np.ndarray, np.ndarray] = EXACT_RULE
            ) -> tuple[np.ndarray, np.ndarray]:
    """Haar mean of the protocol fidelity and its spread through shared states of
    Pauli coefficients (N, 4, 4) by a (weights, bloch) rule; the spread is the root
    of the centered moment, as second moment - mean**2 cancels to ~1e-8 at zero spread."""
    weights, bloch = rule
    f = fidelities(coef, bloch)
    # row sums: numpy's pairwise summation, the same for a row alone or in a stack
    mean = (f * weights).sum(axis=-1)
    return mean, np.sqrt((np.square(f - mean[:, None]) * weights).sum(axis=-1))


def numeric_moments(shared: TwoQubitState, quad: QuadratureSpec | None = None) -> NumericMoments:
    """`moments` of one shared state by `quad` (64 x 64 by default)."""
    mean, delta = moments(pauli_coefficients(shared.rho[None]), (quad or QuadratureSpec()).nodes())
    return NumericMoments(mean_f=float(mean[0]), delta=float(delta[0]))


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def _su2_from_rotation(o: np.ndarray) -> np.ndarray:
    """Lift proper rotations O (..., 3, 3) to SU(2): with sigma'_j = sum_i O_ij
    sigma_i and sigma'_0 = I, sum_j sigma'_j X sigma_j = 2 Tr(U^dag X) U for
    every X; the Pauli X with the largest sum, scaled to det 1, is U up to sign.
    One product per member: BLAS would spread a large stack's 2-D product over threads."""
    sums = _PAULI_STACK + (o.reshape(o.shape[:-2] + (1, 9)) @ _LIFT).reshape(o.shape[:-2] + (4, 2, 2))
    best = np.argmax(np.linalg.norm(sums, axis=(-2, -1)), axis=-1)
    m = np.take_along_axis(sums, best[..., None, None, None], axis=-3)[..., 0, :, :]
    return m / np.sqrt(np.linalg.det(m))[..., None, None]


def _canonical_rotations(t_mat: np.ndarray) -> np.ndarray:
    """The proper rotations O_A, O_B (2, N, 3, 3), by one batched SVD, that take
    correlation matrices T (N, 3, 3) to T_C = O_A T O_B^T: diagonal, magnitudes
    descending, signs maximizing the protocol mean (1 + (d1 - d2 + d3)/3)/2 over
    rotations, i.e. the printed all-negative (det <= 0) / two-largest-negative
    (det > 0) pattern conjugated by diag(-1, 1, -1) (sigma_2 on one side)."""
    u_svd, _, vt_svd = np.linalg.svd(t_mat)
    # T = U diag(s) V^T: the proper rotations diag(f) U^T and diag(g) V^T give
    # T_C = diag(s1, -s2, -det(U) det(V) s3), whose exact factor parities are
    # sign(det T) where s3 > 0, also when det T underflows
    uv = np.stack((u_svd.swapaxes(-1, -2), vt_svd))  # U^T and V^T, (2, N, 3, 3)
    a, b, c, d, e, f, g, h, i = uv.reshape(2, -1, 9).transpose(2, 0, 1)
    # det U and det V, exactly +-1: the rounded triple product of the rows
    det = np.round(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    signs = np.ones(uv.shape[:-1])  # rows f = (1, 1, det U) and g = (1, -1, -det V) above
    signs[1, :, 1:] = -1.0
    signs[..., 2] *= det
    return signs[..., None] * uv


def canonical_densities(rho: np.ndarray, t_mat: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotate density matrices (N, 4, 4), as from_density stores them, with
    correlation matrices T (N, 3, 3) by local unitaries: the read-only rho_C
    and U1, U2 (N, 2, 2), rho_C = (U1 x U2) rho (U1 x U2)^dag, the SU(2) lifts
    of the `_canonical_rotations` of T."""
    u1, u2 = _su2_from_rotation(_canonical_rotations(t_mat))
    # np.kron(u1, u2) of each member, by broadcasting: the same bits as np.kron
    big = (u1[:, :, None, :, None] * u2[:, None, :, None, :]).reshape(-1, 4, 4)
    out = big @ rho @ dagger(big)
    # from_density's rho and arithmetic, not its spectrum check: a rotation keeps the spectrum
    out = (out + dagger(out)) / (2.0 * out.trace(axis1=1, axis2=2).real)[:, None, None]
    out.setflags(write=False)
    return out, u1, u2


def canonical_moments(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The oracle of shared states of `pauli_coefficients` C (N, 4, 4): the exact
    `moments` of C_C = diag(1, O_A) C diag(1, O_B)^T by the `_canonical_rotations`
    of T = C[:, 1:, 1:], which equal f_max and delta where det T <= 0."""
    rot = np.zeros((2, len(coef), 4, 4))
    rot[:, :, 0, 0] = 1.0
    rot[:, :, 1:, 1:] = _canonical_rotations(coef[:, 1:, 1:])
    return moments(rot[0] @ coef @ rot[1].swapaxes(-1, -2))


def canonicalize(state: TwoQubitState) -> tuple[TwoQubitState, tuple[np.ndarray, np.ndarray]]:
    """(rho_C, (U1, U2)) of one state by `canonical_densities`;
    numeric_moments(rho_C).mean_f equals profile(state).f_max if det T < 0."""
    rho, u1, u2 = canonical_densities(state.rho[None], state.hs.t_mat[None])
    return TwoQubitState(rho=rho[0], hs=hs_decompose(rho[0])), (u1[0], u2[0])
