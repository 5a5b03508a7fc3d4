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


def _bloch_to_rho(n_vec) -> np.ndarray:
    n1, n2, n3 = (float(x) for x in n_vec)
    return 0.5 * np.array([[1.0 + n3, n1 - 1j * n2], [n1 + 1j * n2, 1.0 - n3]], dtype=complex)


def teleport_output(shared: TwoQubitState, input_bloch) -> np.ndarray:
    """Output density matrix of the standard protocol for one pure input.

    The 3-qubit register is (input, Alice, Bob); the input-Alice pair is
    projected onto each Bell state, the matching correction is applied on
    Bob, and the four outcome branches are summed with their probabilities.
    """
    rho_in = _bloch_to_rho(input_bloch)
    total = np.kron(rho_in, shared.rho)  # qubits (0, 1, 2)
    out = np.zeros((2, 2), dtype=complex)
    for proj, corr in zip(_BELL_PROJ, CORRECTIONS):
        big = np.kron(proj, I2) @ total
        # trace out qubits 0 and 1
        bob = np.einsum("aiaj->ij", big.reshape(4, 2, 4, 2))
        out += corr @ bob @ dagger(corr)
    return out


def _transfer_operators(shared: TwoQubitState) -> list[np.ndarray]:
    """Action of the protocol on the input-operator basis {I, sx, sy, sz}.

    The output is linear in the input state, so these four matrices determine
    the protocol exactly; teleport_output is recovered as
    (L[I] + sum_i n_i L[sigma_i]) / 2.
    """
    plus = [teleport_output(shared, e) for e in np.eye(3)]
    minus = [teleport_output(shared, -e) for e in np.eye(3)]
    l_id = plus[0] + minus[0]
    return [l_id] + [plus[i] - minus[i] for i in range(3)]


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
    """Vectorized protocol fidelity for an (N, 3) array of input Bloch vectors."""
    ops = _transfer_operators(shared)
    a0 = float(np.trace(ops[0]).real)
    b = np.array([float(np.trace(ops[j + 1]).real) for j in range(3)])
    s = np.array([float(np.trace(PAULIS[i + 1] @ ops[0]).real) for i in range(3)])
    m = np.array([[float(np.trace(PAULIS[i + 1] @ ops[j + 1]).real) for j in range(3)]
                  for i in range(3)])
    lin = bloch @ (b + s)
    quad = np.einsum("ni,ij,nj->n", bloch, m, bloch)
    return 0.25 * (a0 + lin + quad)


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
    """Lift a proper rotation to SU(2) via its quaternion (Shepperd's method)."""
    t = np.trace(o)
    cand = np.array([1.0 + t, 1.0 + 2.0 * o[0, 0] - t, 1.0 + 2.0 * o[1, 1] - t,
                     1.0 + 2.0 * o[2, 2] - t])
    k = int(np.argmax(cand))
    q = np.empty(4)
    if k == 0:
        r = np.sqrt(cand[0])
        q[:] = (r / 2.0, (o[2, 1] - o[1, 2]) / (2.0 * r), (o[0, 2] - o[2, 0]) / (2.0 * r),
                (o[1, 0] - o[0, 1]) / (2.0 * r))
    elif k == 1:
        r = np.sqrt(cand[1])
        q[:] = ((o[2, 1] - o[1, 2]) / (2.0 * r), r / 2.0, (o[0, 1] + o[1, 0]) / (2.0 * r),
                (o[0, 2] + o[2, 0]) / (2.0 * r))
    elif k == 2:
        r = np.sqrt(cand[2])
        q[:] = ((o[0, 2] - o[2, 0]) / (2.0 * r), (o[0, 1] + o[1, 0]) / (2.0 * r), r / 2.0,
                (o[1, 2] + o[2, 1]) / (2.0 * r))
    else:
        r = np.sqrt(cand[3])
        q[:] = ((o[1, 0] - o[0, 1]) / (2.0 * r), (o[0, 2] + o[2, 0]) / (2.0 * r),
                (o[1, 2] + o[2, 1]) / (2.0 * r), r / 2.0)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]], dtype=complex)


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
    # prod(f) = det(U), prod(g) = det(V) so both rotations are proper. The
    # sign products are consistent because prod(eps) = sign(det T); zero
    # singular directions give free slack for the parities.
    f = np.ones(3)
    g = np.ones(3)
    for i in range(3):
        if nonzero[i]:
            g[i] = eps[i]  # f_i = 1, g_i = eps_i on supported directions
    slack = [i for i in range(3) if not nonzero[i]]
    if slack:
        j = slack[0]
        f[j] = det_a / (f[0] * f[1] * f[2] / f[j])
        g[j] = det_b / (g[0] * g[1] * g[2] / g[j])
    else:
        f[2] = det_a
        g[2] = eps[2] * det_a  # keeps f_2 g_2 = eps_2; prod(g) = det_b follows

    o1 = np.diag(f) @ u_svd.T
    o2 = np.diag(g) @ vt_svd
    u1 = _su2_from_rotation(o1)
    u2 = _su2_from_rotation(o2)
    big = np.kron(u1, u2)
    rho = big @ state.rho @ dagger(big)
    # from_density's rho and arithmetic, not its spectrum check: a rotation keeps the spectrum
    rho = (rho + rho.conj().T) / (2.0 * rho.trace().real)
    rho.setflags(write=False)
    return TwoQubitState(rho=rho, hs=hs_decompose(rho)), (u1, u2)
