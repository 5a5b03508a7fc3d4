"""Independent numerical verification of the teleportation figures of merit.

Three pieces:

* a literal 3-qubit simulation of the standard teleportation protocol
  (Bell measurement on the input qubit and Alice's half, Pauli correction
  on Bob's half),
* Haar quadrature of the fidelity moments over all pure input states,
* canonicalization of a two-qubit state by local unitaries so that the
  standard protocol achieves the maximal average fidelity.

The correction for outcome k is the Pauli relating the k-th Bell state to
the first one, so the protocol teleports perfectly through |Phi_1>. In this
gauge the protocol's mean fidelity through a state with diagonal correlation
matrix diag(d1, d2, d3) is (1 + (d1 - d2 + d3)/3) / 2; the canonical sign
pattern below maximizes it, reproducing the closed forms computed by
states.profile.

All computations are pure functions of their inputs; quadrature sums use a
fixed node order, so results do not depend on any execution schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import I2, PAULIS, SX, SZ, dagger
from .states import BELL_KETS, TwoQubitState, hs_decompose, nonzero_magnitudes

#: corrections for Bell outcomes 1..4: the Pauli m_k with |Phi_k> = (m_k x I)|Phi_1>
CORRECTIONS = (I2, SX, SZ @ SX, SZ)

_BELL_PROJ = tuple(np.outer(k, k.conj()) for k in BELL_KETS)
_PAULI_STACK = np.array(PAULIS)


def _bloch_to_rho(n_vec) -> np.ndarray:
    n1, n2, n3 = (float(x) for x in n_vec)
    return 0.5 * np.array([[1.0 + n3, n1 - 1j * n2], [n1 + 1j * n2, 1.0 - n3]], dtype=complex)


def _protocol(shared: TwoQubitState, x: np.ndarray) -> np.ndarray:
    """Output of the standard protocol on a 2x2 input operator x.

    The 3-qubit register is (input, Alice, Bob); the input-Alice pair is
    projected onto each Bell state, the matching correction is applied on
    Bob, and the four outcome branches are summed with their probabilities.
    """
    total = np.kron(x, shared.rho)  # qubits (0, 1, 2)
    out = np.zeros((2, 2), dtype=complex)
    for proj, corr in zip(_BELL_PROJ, CORRECTIONS):
        big = np.kron(proj, I2) @ total
        # trace out qubits 0 and 1
        bob = np.einsum("aiaj->ij", big.reshape(4, 2, 4, 2))
        out += corr @ bob @ dagger(corr)
    return out


def teleport_output(shared: TwoQubitState, input_bloch) -> np.ndarray:
    """Output density matrix of the standard protocol for one pure input."""
    return _protocol(shared, _bloch_to_rho(input_bloch))


def _transfer_operators(shared: TwoQubitState) -> list[np.ndarray]:
    """Action of the protocol on the input-operator basis {I, sx, sy, sz}.

    The output is linear in the input operator, so these four matrices
    determine the protocol exactly; teleport_output is recovered as
    (L[I] + sum_i n_i L[sigma_i]) / 2.
    """
    return [_protocol(shared, s) for s in PAULIS]


@dataclass(frozen=True)
class QuadratureSpec:
    """Bloch-sphere averaging rule under normalized Haar weight.

    Gauss-Legendre nodes in cos(theta) and a uniform periodic grid in phi;
    the fidelity is a degree-2 polynomial in the Bloch vector, so the
    defaults are exact to rounding."""

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


@dataclass(frozen=True)
class NumericMoments:
    mean_f: float
    delta: float


def fidelity_on_bloch(shared: TwoQubitState, bloch: np.ndarray) -> np.ndarray:
    """Vectorized protocol fidelity for an (N, 3) array of input Bloch vectors:
    (1, n) G (1, n)^T / 4 with G_ij = Tr(sigma_i L[sigma_j])."""
    g = np.einsum("iab,jba->ij", _PAULI_STACK, np.array(_transfer_operators(shared))).real
    v = np.column_stack([np.ones(len(bloch)), bloch])
    return 0.25 * np.einsum("ni,ij,nj->n", v, g, v)


def numeric_moments(shared: TwoQubitState, quad: QuadratureSpec | None = None) -> NumericMoments:
    """Haar mean of the protocol fidelity and its spread.

    The spread is the root of the centered moment, not of the second moment
    minus mean**2, which cancels to ~1e-8 noise when the true spread is zero."""
    quad = quad or QuadratureSpec()
    weights, bloch = quad.nodes()
    f = fidelity_on_bloch(shared, bloch)
    mean = float(weights @ f)
    return NumericMoments(mean_f=mean, delta=float(np.sqrt(weights @ (f - mean) ** 2)))


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def _su2_from_rotation(o: np.ndarray) -> np.ndarray:
    """Lift a proper rotation O to SU(2). With sigma'_j = sum_i O_ij sigma_i
    and sigma'_0 = I, sum_j sigma'_j X sigma_j = 2 Tr(U^dag X) U for every X;
    the Pauli X with the largest sum, scaled to det 1, is U up to sign."""
    rotated = np.concatenate([_PAULI_STACK[:1], np.einsum("ij,iab->jab", o, _PAULI_STACK[1:])])
    sums = np.einsum("jab,xbc,jcd->xad", rotated, _PAULI_STACK, _PAULI_STACK)
    m = sums[np.argmax(np.linalg.norm(sums, axis=(1, 2)))]
    return m / np.sqrt(np.linalg.det(m))


def rotation_of_unitary(u: np.ndarray) -> np.ndarray:
    """SO(3) image of a single-qubit unitary: U sigma_j U^dag = sum_i R_ij sigma_i."""
    r = np.empty((3, 3))
    for j in range(3):
        conj = u @ PAULIS[j + 1] @ dagger(u)
        for i in range(3):
            r[i, j] = 0.5 * np.trace(PAULIS[i + 1] @ conj).real
    return r


def _canonical_signs(det_t: float) -> np.ndarray:
    # Sign pattern maximizing the protocol mean (1 + (d1 - d2 + d3)/3)/2 over
    # proper rotations, for magnitudes sorted descending. It is the printed
    # all-negative (det <= 0) / two-largest-negative (det > 0) convention
    # conjugated by the fixed rotation diag(-1, 1, -1), i.e. by sigma_2 on
    # one side, matching the |Phi_1>-anchored correction set.
    if det_t > 0.0:
        return np.array([1.0, -1.0, -1.0])
    return np.array([1.0, -1.0, 1.0])


def canonicalize(state: TwoQubitState) -> tuple[TwoQubitState, tuple[np.ndarray, np.ndarray]]:
    """Rotate a state by local unitaries into the canonical diagonal form.

    Returns (rho_C, (U1, U2)) with rho_C = (U1 x U2) rho (U1 x U2)^dag. The
    correlation matrix of rho_C is diagonal with magnitudes sorted descending
    and the det-dependent sign pattern that makes the standard protocol
    optimal: numeric_moments(rho_C).mean_f equals profile(state).f_max
    whenever det T < 0.
    """
    t = state.hs.t_mat
    u_svd, sigma, vt_svd = np.linalg.svd(t)
    det_a = round(float(np.linalg.det(u_svd)))
    det_b = round(float(np.linalg.det(vt_svd)))
    nonzero = nonzero_magnitudes(sigma)
    # sign(det T) taken from the exact orthogonal-factor parities, which stays
    # correct when det T underflows; zero singular directions mean det T = 0
    eps = _canonical_signs(float(det_a * det_b) if bool(np.all(nonzero)) else 0.0)

    # Need diagonal signs with f_i g_i = eps_i on supported directions and
    # prod(f) = det(U), prod(g) = det(V) so both rotations are proper: f_i = 1,
    # g_i = eps_i, then one parity fix on the first zero singular direction
    # (free slack) or, with none, on the last, where prod(eps) = sign(det T)
    # = det_a det_b keeps f_2 g_2 = eps_2.
    f = np.ones(3)
    g = np.where(nonzero, eps, 1.0)
    j = min(int(nonzero.sum()), 2)  # zero magnitudes come last
    f[j] = det_a
    g[j] *= det_b * np.prod(g)

    u1 = _su2_from_rotation(f[:, None] * u_svd.T)
    u2 = _su2_from_rotation(g[:, None] * vt_svd)
    big = np.kron(u1, u2)
    rho = big @ state.rho @ dagger(big)
    # from_density's rho and arithmetic, not its spectrum check: a rotation keeps the spectrum
    rho = (rho + rho.conj().T) / (2.0 * rho.trace().real)
    rho.setflags(write=False)
    return TwoQubitState(rho=rho, hs=hs_decompose(rho)), (u1, u2)
