"""Parametric qubit-channel generators: Pauli mixtures, the physical noise
catalog, and the non-unital constructions that keep shared entanglement
useful for universal quantum teleportation (UQT).

Every public constructor returns a validated QubitChannel. Out-of-range
parameters raise ValueError naming the documented range. Time-parameterized
noise families take their raw constants plus a time t and record the derived
mixing probability p(t) in the channel's params.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import channels
from .channels import ChannelValidationError, QubitChannel
from .linalg import I2, PAULIS, SX, SY, SZ

_P_CLAMP = 1e-12


# ---------------------------------------------------------------------------
# Pauli mixtures and the unital constructions
# ---------------------------------------------------------------------------

def pauli_mixture(p0: float, p1: float, p2: float, p3: float,
                  name: str = "pauli_mixture") -> QubitChannel:
    """Convex mixture of the four Pauli channels, Kraus {sqrt(p_i) sigma_i}.

    Zero-weight operators are dropped, so (1,0,0,0) is the identity channel.
    """
    probs = (p0, p1, p2, p3)
    if min(probs) < -1e-12:
        raise ValueError(f"probabilities must be non-negative, got {probs}")
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1 within 1e-12, got sum {sum(probs)!r}")
    kraus = [np.sqrt(max(p, 0.0)) * sig for p, sig in zip(probs, PAULIS) if p > 0.0]
    return channels.validate(kraus, name=name,
                             params={"p0": p0, "p1": p1, "p2": p2, "p3": p3})


def werner(p: float) -> QubitChannel:
    """Pauli mixture (p, (1-p)/3, (1-p)/3, (1-p)/3); its Choi state is the
    Werner state with Bell weight p. UQT-preserving iff 1/2 < p < 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    q = (1.0 - p) / 3.0
    return pauli_mixture(p, q, q, q, name="werner")


def dephasing(p: float) -> QubitChannel:
    """Dephasing with weight p on the identity: Kraus {sqrt(p) I, sqrt(1-p) sigma_3}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    return pauli_mixture(p, 0.0, 0.0, 1.0 - p, name="dephasing")


def lambda_u4_weights(p: float) -> tuple[float, float, float, float]:
    """Pauli weights (2/3, w, w, (2p-1)/(3(2+p))) of the one-parameter unital
    family; the last weight is negative for p < 1/2, where the set stops
    describing any CPTP map (its would-be Choi matrix has a negative
    eigenvalue). Defined for all p in (0, 1) so that the invalid region can
    be examined."""
    w12 = (3.0 - p) / (6.0 * (2.0 + p))
    w3 = (2.0 * p - 1.0) / (3.0 * (2.0 + p))
    return (2.0 / 3.0, w12, w12, w3)


def lambda_u4(p: float) -> QubitChannel:
    """Rank-four unital channel with weights lambda_u4_weights(p), 1/2 <= p < 1.

    Applied to |Psi_a> with matched concurrence C = p it yields a state with
    all correlation magnitudes equal and F = (3 + 4C)/(6 + 3C)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    w = lambda_u4_weights(p)
    if w[3] < 0.0:
        raise ChannelValidationError(
            f"no CPTP map for p < 1/2: Choi weight {w[3]:.6g} is negative")
    return replace(pauli_mixture(*w, name="lambda_u4"), params={"p": p})


def uqt_unital_for_pure(c: float, p0: float) -> QubitChannel:
    """Pauli mixture that makes |Psi_a> with concurrence c useful for UQT.

    Requires 1/2 < c < 1 and (1+2c)/(6c) < p0 <= 1/(2-c); then
    p1 = p2 = (1 + (1-2 p0) c)/(4 + 2c) and the final state has all
    correlation magnitudes equal to (4 p0 - 1) c / (2 + c) > 1/3.
    """
    if not 0.5 < c < 1.0:
        raise ValueError(f"concurrence must lie in (1/2, 1), got {c!r}")
    lo = (1.0 + 2.0 * c) / (6.0 * c)
    hi = 1.0 / (2.0 - c)
    if not lo < p0 <= hi:
        raise ValueError(f"p0 must lie in ({lo:.6g}, {hi:.6g}] for c={c!r}, got {p0!r}")
    p12 = (1.0 + (1.0 - 2.0 * p0) * c) / (4.0 + 2.0 * c)
    p3 = 1.0 - p0 - 2.0 * p12
    ch = pauli_mixture(p0, p12, p12, max(p3, 0.0), name="uqt_unital_for_pure")
    return replace(ch, params={"c": c, "p0": p0, "p1": p12, "p2": p12, "p3": p3})


# ---------------------------------------------------------------------------
# Non-unital UQT-preserving families (canonical Choi construction)
# ---------------------------------------------------------------------------

def canonical_nonunital_choi(s_vec, t: float) -> np.ndarray:
    """Trace-1 canonical Choi matrix with correlation diag(-t, -t, -t) and
    Bob local vector s, written in the computational basis."""
    s1, s2, s3 = (float(x) for x in s_vec)
    off = s1 - 1j * s2
    return 0.25 * np.array(
        [
            [1 + s3 - t, off, 0, 0],
            [np.conj(off), 1 - s3 + t, -2 * t, 0],
            [0, -2 * t, 1 + s3 + t, off],
            [0, 0, np.conj(off), 1 - s3 - t],
        ],
        dtype=complex,
    )


def canonical_choi_eigenvalues(s_norm: float, t: float) -> tuple[float, float, float, float]:
    """Closed-form spectrum (q0 > q1 > q2 > q3) of the canonical Choi matrix."""
    root = np.sqrt(s_norm * s_norm + 4.0 * t * t)
    return (
        (1.0 + t + root) / 4.0,
        (1.0 + s_norm - t) / 4.0,
        (1.0 + t - root) / 4.0,
        (1.0 - s_norm - t) / 4.0,
    )


def _kraus_from_canonical_choi(s_vec, t: float, rank: int, name: str, params: dict) -> QubitChannel:
    rho = canonical_nonunital_choi(s_vec, t)
    ops = channels.kraus_from_choi(rho, rank=rank)
    return channels.validate(ops, name=name, params=params)


def uqt_nonunital_rank4(s1: float, s2: float, s3: float, t: float) -> QubitChannel:
    """Non-unital channel with rank-4 Choi state preserving UQT on a Bell input.

    Requires 1/3 < t < 1 and 0 < |s| < 1 - t. The Choi state has all
    correlation magnitudes equal to t, so F = (1+t)/2 and zero deviation.
    The four orthogonal Kraus operators are rebuilt from the Choi eigenpairs,
    which stays well defined on the s1 = s2 = 0 axis where the printed
    component formulas have removable singularities.
    """
    if not 1.0 / 3.0 < t < 1.0:
        raise ValueError(f"t must lie in (1/3, 1), got {t!r}")
    s_norm = float(np.sqrt(s1 * s1 + s2 * s2 + s3 * s3))
    if not 0.0 < s_norm < 1.0 - t:
        raise ValueError(
            f"|s| must lie in (0, 1 - t) = (0, {1.0 - t:.6g}) for rank 4, got {s_norm!r}")
    return _kraus_from_canonical_choi(
        (s1, s2, s3), t, rank=4, name="uqt_nonunital_rank4",
        params={"s1": s1, "s2": s2, "s3": s3, "t": t})


def uqt_nonunital_rank3(theta: float, phi: float, t: float) -> QubitChannel:
    """Non-unital channel with rank-3 Choi state preserving UQT on a Bell input.

    Requires 1/3 < t < 1; the Bob vector has |s| = 1 - t with direction
    (theta, phi), which pins the Choi rank to three. Same Choi profile as
    the rank-4 family: magnitudes (t, t, t), F = (1+t)/2, zero deviation.
    """
    if not 1.0 / 3.0 < t < 1.0:
        raise ValueError(f"t must lie in (1/3, 1), got {t!r}")
    r = 1.0 - t
    s_vec = (r * np.sin(theta) * np.cos(phi), r * np.sin(theta) * np.sin(phi), r * np.cos(theta))
    return _kraus_from_canonical_choi(
        s_vec, t, rank=3, name="uqt_nonunital_rank3",
        params={"theta": theta, "phi": phi, "t": t})


# ---------------------------------------------------------------------------
# Named non-unital examples
# ---------------------------------------------------------------------------

def example_rank3(p: float) -> QubitChannel:
    """Rank-3 non-unital channel {sqrt(1-p)|0><0|, sqrt(1-p)|0><1|, sqrt(p) I}.

    On a Bell input the final state is p |Phi_1><Phi_1| + (1-p) I/2 x |0><0|,
    with F = (1+p)/2 and zero deviation: useful for UQT iff p > 1/3.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    r = np.sqrt(1.0 - p)
    kraus = [
        np.array([[r, 0.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, r], [0.0, 0.0]], dtype=complex),
        np.sqrt(p) * I2,
    ]
    return channels.validate(kraus, name="example_rank3", params={"p": p})


def example_rank4_uqt() -> QubitChannel:
    """Fixed four-operator non-unital channel whose Bell output has F = 3/4
    and zero fidelity deviation (useful for UQT)."""
    s17 = np.sqrt(17.0)
    k0 = np.sqrt((6.0 + s17) / (17.0 - s17)) * np.array(
        [[0.0, 1.0], [(1.0 - s17) / 4.0, 0.0]], dtype=complex)
    k1 = np.array([[np.sqrt(3.0) / (2.0 * np.sqrt(2.0)), 0.0], [0.0, 0.0]], dtype=complex)
    k2 = np.sqrt((6.0 - s17) / (17.0 + s17)) * np.array(
        [[0.0, 1.0], [(1.0 + s17) / 4.0, 0.0]], dtype=complex)
    k3 = np.array([[0.0, 0.0], [0.0, 1.0 / (2.0 * np.sqrt(2.0))]], dtype=complex)
    return channels.validate([k0, k1, k2, k3], name="example_rank4_uqt", params={})


def example_rank3_universal_only() -> QubitChannel:
    """Fixed three-operator non-unital channel whose Bell output has F = 11/20
    and zero deviation: universal but not useful for teleportation."""
    r = np.sqrt(5.0 / 17.0)
    a = 3.0 / 20.0 * np.sqrt(5.0 + 7.0 * r)
    b = 1.0 / 20.0 * np.sqrt(65.0 + 107.0 * r)
    c = 3.0 / 20.0 * np.sqrt(5.0 - 7.0 * r)
    d = 1.0 / 20.0 * np.sqrt(65.0 - 107.0 * r)
    e = 3.0 / (2.0 * np.sqrt(10.0))
    k0 = 1j * np.array([[-a, b], [-b, a]], dtype=complex)
    k1 = -1j * e * np.ones((2, 2), dtype=complex)
    k2 = 1j * np.array([[c, d], [-d, -c]], dtype=complex)
    return channels.validate([k0, k1, k2], name="example_rank3_universal_only", params={})


def lambda_tilde_p2_max(p1: float) -> float:
    """Upper end of the valid p2 range for lambda_tilde_nu."""
    return (1.0 + p1) / (1.0 + p1 + np.sqrt(1.0 - p1 * p1))


def lambda_tilde_nu(p1: float, p2: float) -> QubitChannel:
    """Four-operator non-unital channel that removes fidelity deviation.

    Valid for 0 < p1 < 1 and 0 < p2 < (1+p1)/(1+p1+sqrt(1-p1^2)). Applied
    to |Psi_a> with matched concurrence C = p1 the final state has
    F = (1 + p2 C)/2 and zero deviation, hence useful for UQT iff
    p2 > 1/(3C), which is attainable iff C > (sqrt(17)-1)/6.
    """
    if not 0.0 < p1 < 1.0:
        raise ValueError(f"p1 must lie in (0, 1), got {p1!r}")
    hi = lambda_tilde_p2_max(p1)
    if not 0.0 < p2 < hi:
        raise ValueError(f"p2 must lie in (0, {hi:.6g}) for p1={p1!r}, got {p2!r}")
    u = np.sqrt(1.0 - p1) / np.sqrt(1.0 + p1)
    root = np.sqrt(5.0 + 3.0 * p1)
    sm = np.sqrt(1.0 - p1)
    k0 = (1.0 / np.sqrt(2.0)) * np.sqrt(1.0 - p2 - p2 * u) * np.array(
        [[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    k1 = (1.0 / np.sqrt(2.0)) * np.sqrt(1.0 - p2 + p2 * u) * np.array(
        [[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    k2 = np.sqrt(
        (1.0 + p1 + p2 + p1 * p2 - p2 * np.sqrt(1.0 + p1) * root)
        / (5.0 + 3.0 * p1 + sm * root)
    ) * np.array([[0.0, 1.0], [(sm + root) / (2.0 * np.sqrt(1.0 + p1)), 0.0]], dtype=complex)
    k3 = np.sqrt(
        (1.0 + p1 + p2 + p1 * p2 + p2 * np.sqrt(1.0 + p1) * root)
        / (5.0 + 3.0 * p1 - sm * root)
    ) * np.array([[0.0, 1.0], [(sm - root) / (2.0 * np.sqrt(1.0 + p1)), 0.0]], dtype=complex)
    return channels.validate([k0, k1, k2, k3], name="lambda_tilde_nu",
                             params={"p1": p1, "p2": p2})


def lambda_star_gamma(p1: float) -> float:
    """Damping strength gamma(p1) of lambda_star_nu."""
    u = np.sqrt(1.0 - p1 * p1)
    rad = max(3.0 * p1 * p1 - 2.0 + 2.0 * u, 0.0)
    return (1.0 + u - np.sqrt(rad)) / (2.0 + 2.0 * u)


def lambda_star_nu(p1: float) -> QubitChannel:
    """Amplitude damping toward |1> with strength gamma(p1) (the N=1 limit of
    the generalized amplitude-damping channel).

    Applied to |Psi_a> with matched concurrence C = p1 the final state has
    zero deviation for every C and is useful for UQT iff
    C > sqrt(5 - 2 sqrt(3))/3, approximately 0.4131.
    """
    if not 0.0 < p1 < 1.0:
        raise ValueError(f"p1 must lie in (0, 1), got {p1!r}")
    g = lambda_star_gamma(p1)
    k0 = np.array([[np.sqrt(1.0 - g), 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [np.sqrt(g), 0.0]], dtype=complex)
    return channels.validate([k0, k1], name="lambda_star_nu",
                             params={"p1": p1, "gamma": g})


def gadc(gamma: float, N: float) -> QubitChannel:
    """Generalized amplitude-damping channel with loss gamma and bath
    excitation n, both in [0, 1]. Non-unital iff gamma (2n - 1) != 0."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma!r}")
    if not 0.0 <= N <= 1.0:
        raise ValueError(f"N must lie in [0, 1], got {N!r}")
    rg = np.sqrt(1.0 - gamma)
    sg = np.sqrt(gamma)
    k0 = np.sqrt(1.0 - N) * np.array([[1.0, 0.0], [0.0, rg]], dtype=complex)
    k1 = np.sqrt(1.0 - N) * np.array([[0.0, sg], [0.0, 0.0]], dtype=complex)
    k2 = np.sqrt(N) * np.array([[rg, 0.0], [0.0, 1.0]], dtype=complex)
    k3 = np.sqrt(N) * np.array([[0.0, 0.0], [sg, 0.0]], dtype=complex)
    return channels.validate([k0, k1, k2, k3], name="gadc", params={"gamma": gamma, "N": N})


# ---------------------------------------------------------------------------
# Physical noise catalog
# ---------------------------------------------------------------------------

def _clamp_probability(p: float, context: str) -> float:
    if p < -_P_CLAMP or p > 1.0 + _P_CLAMP:
        raise ValueError(f"{context}: derived p(t) = {p!r} lies outside [0, 1]; "
                         "the parameter regime is unphysical")
    return min(max(p, 0.0), 1.0)


def _depolarizing_kraus(w0: float, wi: float):
    return [np.sqrt(w0) * I2, np.sqrt(wi) * SX, np.sqrt(wi) * SY, np.sqrt(wi) * SZ]


def _dephasing_kraus(p: float):
    # identity-weight first: M0 = sqrt(1-p) I, M1 = sqrt(p) sigma_3
    return [np.sqrt(1.0 - p) * I2, np.sqrt(p) * SZ]


def _adc_kraus(p: float):
    return [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex),
        np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex),
    ]


def _build_depolarizing_m(p: float) -> QubitChannel:
    return channels.validate(_depolarizing_kraus(1.0 - p, p / 3.0),
                             name="depolarizing_m", params={"p": p})


def _build_dephasing_m(p: float) -> QubitChannel:
    return channels.validate(_dephasing_kraus(p), name="dephasing_m", params={"p": p})


def _build_adc_m(gamma: float, t: float) -> QubitChannel:
    p = _clamp_probability(1.0 - np.exp(-gamma * t), "adc_m")
    return channels.validate(_adc_kraus(p), name="adc_m",
                             params={"gamma": gamma, "t": t, "p": p})


def _build_pln_m(G: float, t: float) -> QubitChannel:
    p = _clamp_probability(np.exp(-G * t), "pln_m")
    return channels.validate(_dephasing_kraus(p), name="pln_m",
                             params={"G": G, "t": t, "p": p})


def _build_oun_m(G: float, t: float) -> QubitChannel:
    p = _clamp_probability(np.exp(-G * t / 2.0), "oun_m")
    return channels.validate(_dephasing_kraus(p), name="oun_m",
                             params={"G": G, "t": t, "p": p})


def _build_unruh(r: float) -> QubitChannel:
    if not 0.0 < r <= np.pi / 4.0:
        raise ValueError(f"r must lie in (0, pi/4], got {r!r}")
    kraus = [
        np.array([[np.cos(r), 0.0], [0.0, 1.0]], dtype=complex),
        np.array([[0.0, 0.0], [np.sin(r), 0.0]], dtype=complex),
    ]
    return channels.validate(kraus, name="unruh", params={"r": r})


def _build_depolarizing_nm(alpha: float, p: float) -> QubitChannel:
    if 3.0 * alpha * p > 1.0 + 1e-12:
        raise ValueError(
            f"need 3 alpha p <= 1 for a CPTP map (identity weight stays non-negative); "
            f"got alpha={alpha!r}, p={p!r}")
    w0 = max((1.0 - 3.0 * alpha * p) * (1.0 - p), 0.0)
    wi = (1.0 + 3.0 * alpha * (1.0 - p)) * p / 3.0
    return channels.validate(_depolarizing_kraus(w0, wi), name="depolarizing_nm",
                             params={"alpha": alpha, "p": p})


def _build_dephasing_nm(alpha: float, p: float) -> QubitChannel:
    w0 = (1.0 - alpha * p) * (1.0 - p)
    w3 = p * (1.0 + alpha * (1.0 - p))
    kraus = [np.sqrt(w0) * I2, np.sqrt(w3) * SZ]
    return channels.validate(kraus, name="dephasing_nm", params={"alpha": alpha, "p": p})


def _build_adc_nm(R: float, gamma: float, omega0: float, g: float, t: float) -> QubitChannel:
    with np.errstate(divide="ignore"):
        coth = 1.0 / np.tanh(g * omega0 * t / 2.0) if t > 0.0 else np.inf
    p = _clamp_probability(1.0 - np.exp(-2.0 * R * gamma / (omega0 * coth + 1.0)), "adc_nm")
    return channels.validate(_adc_kraus(p), name="adc_nm",
                             params={"R": R, "gamma": gamma, "omega0": omega0,
                                     "g": g, "t": t, "p": p})


def _build_pln_nm(G: float, g: float, t: float) -> QubitChannel:
    # decaying form: p(t) = exp(-G t (g t + 2) / (2 (g t + 1)^2)), whose
    # g -> 0 limit reproduces the Markovian law exp(-G t)
    p = _clamp_probability(
        np.exp(-G * t * (g * t + 2.0) / (2.0 * (g * t + 1.0) ** 2)), "pln_nm")
    return channels.validate(_dephasing_kraus(p), name="pln_nm",
                             params={"G": G, "g": g, "t": t, "p": p})


def _build_oun_nm(G: float, g: float, t: float) -> QubitChannel:
    p = _clamp_probability(
        np.exp(-G * ((np.exp(-g * t) - 1.0) / g + t) / 2.0), "oun_nm")
    return channels.validate(_dephasing_kraus(p), name="oun_nm",
                             params={"G": G, "g": g, "t": t, "p": p})


def rtn_probability(g: float, omega: float, t: float) -> float:
    """Random-telegraph-noise mixing law e^{-g t}(cos(g w t) + sin(g w t)/w)."""
    theta = g * omega * t
    return float(np.exp(-g * t) * (np.cos(theta) + np.sin(theta) / omega))


def _build_rtn_nm(g: float, omega: float, t: float) -> QubitChannel:
    p = _clamp_probability(rtn_probability(g, omega, t), "rtn_nm")
    return channels.validate(_dephasing_kraus(p), name="rtn_nm",
                             params={"g": g, "omega": omega, "t": t, "p": p})


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    name: str
    low: float | None
    high: float | None
    low_open: bool = False
    high_open: bool = False
    sample_low: float | None = None
    sample_high: float | None = None

    def range_text(self) -> str:
        lo = "-inf" if self.low is None else f"{self.low:g}"
        hi = "inf" if self.high is None else f"{self.high:g}"
        return f"{'(' if self.low_open or self.low is None else '['}{lo}, {hi}" \
               f"{')' if self.high_open or self.high is None else ']'}"

    def check(self, value: float, family_id: str) -> None:
        if self.low is not None and (value < self.low or (self.low_open and value == self.low)):
            raise ValueError(f"{family_id}: {self.name} must lie in {self.range_text()}, got {value!r}")
        if self.high is not None and (value > self.high or (self.high_open and value == self.high)):
            raise ValueError(f"{family_id}: {self.name} must lie in {self.range_text()}, got {value!r}")


@dataclass(frozen=True)
class Family:
    family_id: str
    params: tuple[ParamSpec, ...]
    build: Callable[..., QubitChannel]
    doc: str
    expected_unital: bool | None = None
    expected_rank: int | None = None
    sampler: Callable | None = None

    def sample_params(self, rng: np.random.Generator) -> dict:
        if self.sampler is not None:
            return self.sampler(rng)
        out = {}
        for spec in self.params:
            lo = spec.sample_low if spec.sample_low is not None else spec.low
            hi = spec.sample_high if spec.sample_high is not None else spec.high
            if lo is None or hi is None:
                raise ValueError(f"{self.family_id}: parameter {spec.name} has no sampling range")
            margin = 1e-3 * (hi - lo)
            out[spec.name] = float(rng.uniform(lo + margin, hi - margin))
        return out


@dataclass(frozen=True)
class FamilySpec:
    """A family id plus a full parameter assignment."""

    family_id: str
    params: dict = field(default_factory=dict)


def _sample_rank4(rng: np.random.Generator) -> dict:
    t = float(rng.uniform(1.0 / 3.0 + 1e-3, 1.0 - 1e-3))
    s_norm = float(rng.uniform(1e-3, (1.0 - t) * (1.0 - 1e-3)))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    s = s_norm * direction
    return {"s1": float(s[0]), "s2": float(s[1]), "s3": float(s[2]), "t": t}


def _sample_tilde(rng: np.random.Generator) -> dict:
    p1 = float(rng.uniform(1e-3, 1.0 - 1e-3))
    hi = lambda_tilde_p2_max(p1)
    return {"p1": p1, "p2": float(rng.uniform(1e-3 * hi, hi * (1.0 - 1e-3)))}


def _sample_depolarizing_nm(rng: np.random.Generator) -> dict:
    alpha = float(rng.uniform(0.05, 1.0))
    p_hi = min(0.5, 1.0 / (3.0 * alpha))
    return {"alpha": alpha, "p": float(rng.uniform(0.0, p_hi * (1.0 - 1e-3)))}


def _sample_uqt_unital(rng: np.random.Generator) -> dict:
    c = float(rng.uniform(0.5 + 1e-3, 1.0 - 1e-3))
    lo = (1.0 + 2.0 * c) / (6.0 * c)
    hi = 1.0 / (2.0 - c)
    return {"c": c, "p0": float(rng.uniform(lo + 1e-4 * (hi - lo), hi))}


def _sample_pauli(rng: np.random.Generator) -> dict:
    w = rng.dirichlet(np.ones(4))
    return {"p0": float(w[0]), "p1": float(w[1]), "p2": float(w[2]), "p3": float(w[3])}


# Sampling ranges keep every rank-2 draw's second Choi eigenvalue >= 1e-6 x the
# first, far above linalg.RANK_TOL, so no draw can round to Choi rank 1.
_TIME = ParamSpec("t", 0.0, None, sample_low=0.1, sample_high=2.0)


FAMILIES: dict[str, Family] = {}


def _register(family: Family) -> None:
    FAMILIES[family.family_id] = family


_register(Family(
    "pauli_mixture",
    (ParamSpec("p0", 0.0, 1.0), ParamSpec("p1", 0.0, 1.0),
     ParamSpec("p2", 0.0, 1.0), ParamSpec("p3", 0.0, 1.0)),
    pauli_mixture, "convex mixture of the four Pauli channels (weights sum to 1)",
    expected_unital=True, sampler=_sample_pauli))
_register(Family(
    "werner", (ParamSpec("p", 0.0, 1.0),), werner,
    "Pauli mixture (p, (1-p)/3 x3); Werner-state Choi, UQT-preserving iff p > 1/2",
    expected_unital=True, sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))}))
_register(Family(
    "dephasing", (ParamSpec("p", 0.0, 1.0),), dephasing,
    "dephasing, weight p on identity: {sqrt(p) I, sqrt(1-p) sigma_3}",
    expected_unital=True, expected_rank=2,
    sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))}))
_register(Family(
    "lambda_u4", (ParamSpec("p", 0.5, 1.0, high_open=True),), lambda_u4,
    "one-parameter rank-4 unital family; removes deviation on matched |Psi_a>",
    expected_unital=True, expected_rank=4,
    sampler=lambda rng: {"p": float(rng.uniform(0.501, 0.999))}))
_register(Family(
    "uqt_unital_for_pure",
    (ParamSpec("c", 0.5, 1.0, low_open=True, high_open=True),
     ParamSpec("p0", None, None)),
    uqt_unital_for_pure,
    "Pauli mixture making |Psi_a> (concurrence c > 1/2) useful for UQT; "
    "p0 in ((1+2c)/(6c), 1/(2-c)]",
    expected_unital=True, sampler=_sample_uqt_unital))
_register(Family(
    "uqt_nonunital_rank4",
    (ParamSpec("s1", None, None), ParamSpec("s2", None, None), ParamSpec("s3", None, None),
     ParamSpec("t", 1.0 / 3.0, 1.0, low_open=True, high_open=True)),
    uqt_nonunital_rank4,
    "non-unital rank-4 Choi family preserving UQT on a Bell input; 0 < |s| < 1-t",
    expected_unital=False, expected_rank=4, sampler=_sample_rank4))
_register(Family(
    "uqt_nonunital_rank3",
    (ParamSpec("theta", 0.0, np.pi), ParamSpec("phi", 0.0, 2.0 * np.pi),
     ParamSpec("t", 1.0 / 3.0, 1.0, low_open=True, high_open=True)),
    uqt_nonunital_rank3,
    "non-unital rank-3 Choi family preserving UQT on a Bell input; |s| = 1-t",
    expected_unital=False, expected_rank=3))
_register(Family(
    "example_rank3", (ParamSpec("p", 0.0, 1.0, low_open=True, high_open=True),),
    example_rank3,
    "non-unital rank-3 example: Bell output p Phi_1 + (1-p) I/2 x |0><0|, "
    "UQT iff p > 1/3",
    expected_unital=False, expected_rank=3))
_register(Family(
    "example_rank4_uqt", (), example_rank4_uqt,
    "fixed non-unital rank-4 example with Bell-output F = 3/4, zero deviation",
    expected_unital=False, expected_rank=4, sampler=lambda rng: {}))
_register(Family(
    "example_rank3_universal_only", (), example_rank3_universal_only,
    "fixed non-unital rank-3 example: Bell output universal (zero deviation) "
    "but not useful (F = 11/20)",
    expected_unital=False, expected_rank=3, sampler=lambda rng: {}))
_register(Family(
    "lambda_tilde_nu",
    (ParamSpec("p1", 0.0, 1.0, low_open=True, high_open=True),
     ParamSpec("p2", 0.0, 1.0, low_open=True, high_open=True)),
    lambda_tilde_nu,
    "four-operator non-unital family; on matched |Psi_a> (C = p1) the final "
    "state has F = (1 + p2 C)/2, zero deviation; p2 < (1+p1)/(1+p1+sqrt(1-p1^2))",
    expected_unital=False, sampler=_sample_tilde))
_register(Family(
    "lambda_star_nu", (ParamSpec("p1", 0.0, 1.0, low_open=True, high_open=True),),
    lambda_star_nu,
    "amplitude damping toward |1> with matched strength gamma(p1); zero "
    "deviation on matched |Psi_a>, useful iff C > sqrt(5-2 sqrt(3))/3",
    expected_unital=False, expected_rank=2))
_register(Family(
    "gadc", (ParamSpec("gamma", 0.0, 1.0), ParamSpec("N", 0.0, 1.0)),
    gadc, "generalized amplitude damping; non-unital iff gamma (2N-1) != 0",
    expected_unital=None, expected_rank=None,
    sampler=lambda rng: {"gamma": float(rng.uniform(0.05, 0.95)),
                         "N": float(rng.uniform(0.05, 0.45))}))
_register(Family(
    "depolarizing_m", (ParamSpec("p", 0.0, 1.0),), _build_depolarizing_m,
    "Markovian depolarizing {sqrt(1-p) I, sqrt(p/3) sigma_i}; Bell output is "
    "a Werner state, UQT iff p < 1/2",
    expected_unital=True,
    sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))}))
_register(Family(
    "dephasing_m", (ParamSpec("p", 0.0, 1.0),), _build_dephasing_m,
    "Markovian dephasing {sqrt(1-p) I, sqrt(p) sigma_3}",
    expected_unital=True, expected_rank=2,
    sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))}))
_register(Family(
    "adc_m", (ParamSpec("gamma", 0.0, None, low_open=True, sample_high=2.0), _TIME),
    _build_adc_m,
    "Markovian amplitude damping toward |0>, p(t) = 1 - exp(-gamma t)",
    expected_unital=False, expected_rank=2))
_register(Family(
    "pln_m", (ParamSpec("G", 0.0, None, low_open=True, sample_high=2.0), _TIME),
    _build_pln_m, "power-law noise, dephasing form with p(t) = exp(-G t)",
    expected_unital=True, expected_rank=2))
_register(Family(
    "oun_m", (ParamSpec("G", 0.0, None, low_open=True, sample_high=2.0), _TIME),
    _build_oun_m, "Ornstein-Uhlenbeck noise, dephasing form with p(t) = exp(-G t / 2)",
    expected_unital=True, expected_rank=2))
_register(Family(
    "unruh", (ParamSpec("r", 0.0, np.pi / 4.0, low_open=True, sample_low=0.01),), _build_unruh,
    "Unruh channel {diag(cos r, 1), sin r lower shift}; non-unital",
    expected_unital=False, expected_rank=2))
_register(Family(
    "depolarizing_nm",
    (ParamSpec("alpha", 0.0, 1.0, low_open=True), ParamSpec("p", 0.0, 0.5)),
    _build_depolarizing_nm,
    "non-Markovian depolarizing; needs 3 alpha p <= 1; UQT for small p",
    expected_unital=True, sampler=_sample_depolarizing_nm))
_register(Family(
    "dephasing_nm",
    (ParamSpec("alpha", 0.0, 1.0, low_open=True), ParamSpec("p", 0.0, 0.5)),
    _build_dephasing_nm, "non-Markovian dephasing, weights (1-alpha p)(1-p) and "
    "p(1+alpha(1-p))",
    expected_unital=True, expected_rank=2,
    sampler=lambda rng: {"alpha": float(rng.uniform(0.05, 1.0)),
                         "p": float(rng.uniform(0.01, 0.49))}))
_register(Family(
    "adc_nm",
    (ParamSpec("R", 0.0, None, low_open=True, sample_low=0.05, sample_high=2.0),
     ParamSpec("gamma", 0.0, None, low_open=True, sample_low=0.05, sample_high=2.0),
     ParamSpec("omega0", 0.0, None, low_open=True, sample_high=3.0),
     ParamSpec("g", 0.0, None, low_open=True, sample_low=0.05, sample_high=2.0), _TIME),
    _build_adc_nm,
    "non-Markovian amplitude damping, p(t) = 1 - exp(-2 R gamma / "
    "(omega0 coth(g omega0 t / 2) + 1)); constants accepted as any positive reals",
    expected_unital=False, expected_rank=2))
_register(Family(
    "pln_nm",
    (ParamSpec("G", 0.0, None, low_open=True, sample_high=2.0),
     ParamSpec("g", 0.0, None, low_open=True, sample_high=2.0), _TIME),
    _build_pln_nm,
    "non-Markovian power-law noise, p(t) = exp(-G t (g t + 2)/(2 (g t + 1)^2))",
    expected_unital=True, expected_rank=2))
_register(Family(
    "oun_nm",
    (ParamSpec("G", 0.0, None, low_open=True, sample_low=0.05, sample_high=2.0),
     ParamSpec("g", 0.0, None, low_open=True, sample_low=0.05, sample_high=2.0), _TIME),
    _build_oun_nm,
    "non-Markovian Ornstein-Uhlenbeck noise, "
    "p(t) = exp(-G ((exp(-g t) - 1)/g + t)/2)",
    expected_unital=True, expected_rank=2))
_register(Family(
    "rtn_nm",
    (ParamSpec("g", 0.0, None, low_open=True, sample_low=0.05, sample_high=1.0),
     ParamSpec("omega", 0.0, None, low_open=True, sample_low=0.1, sample_high=2.0),
     ParamSpec("t", 0.0, None, sample_low=0.05, sample_high=0.5)),
    _build_rtn_nm,
    "random telegraph noise, p(t) = exp(-g t)(cos(g w t) + sin(g w t)/w); "
    "rejected when the oscillatory law leaves [0, 1]",
    expected_unital=True, expected_rank=2))

#: ids of the twelve physical-noise catalog rows
NOISE_IDS = (
    "depolarizing_m", "dephasing_m", "adc_m", "pln_m", "oun_m", "unruh",
    "depolarizing_nm", "dephasing_nm", "adc_nm", "pln_nm", "oun_nm", "rtn_nm",
)

_PARAM_ALIASES = {"C": "p1", "c": "p1", "concurrence": "p1"}

#: families whose natural input state is |Psi_a> with matched concurrence,
#: mapped to the channel parameter that carries the concurrence
MATCHED_CONCURRENCE_PARAM = {
    "lambda_tilde_nu": "p1",
    "lambda_star_nu": "p1",
    "lambda_u4": "p",
    "uqt_unital_for_pure": "c",
}
MATCHED_CONCURRENCE_IDS = tuple(MATCHED_CONCURRENCE_PARAM)


def get_family(family_id: str) -> Family:
    if family_id not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {family_id!r}; known families: {known}")
    return FAMILIES[family_id]


def resolve_param(family_id: str, key: str) -> str:
    """Map a parameter name onto the family's own naming; the concurrence
    aliases C/c/concurrence resolve to the matched-concurrence parameter."""
    names = {spec.name for spec in get_family(family_id).params}
    if key in names:
        return key
    if key in _PARAM_ALIASES and family_id in MATCHED_CONCURRENCE_PARAM:
        return MATCHED_CONCURRENCE_PARAM[family_id]
    return key


def noise_channel(family_id: str, **params) -> QubitChannel:
    """Build any catalog channel by family id and keyword parameters."""
    fam = get_family(family_id)
    names = {spec.name for spec in fam.params}
    resolved = {}
    for key, value in params.items():
        key = resolve_param(family_id, key)
        if key not in names:
            raise ValueError(f"{family_id}: unknown parameter {key!r}; expected {sorted(names)}")
        resolved[key] = float(value)
    missing = names - set(resolved)
    if missing:
        raise ValueError(f"{family_id}: missing parameters {sorted(missing)}")
    for spec in fam.params:
        if spec.low is not None or spec.high is not None:
            spec.check(resolved[spec.name], family_id)
    return fam.build(**resolved)


def list_families() -> list[dict]:
    """Catalog rows for the CLI: id, parameters with ranges, description."""
    rows = []
    for fam_id in sorted(FAMILIES):
        fam = FAMILIES[fam_id]
        rows.append({
            "family": fam_id,
            "params": [{"name": s.name, "range": s.range_text()} for s in fam.params],
            "doc": fam.doc,
        })
    return rows
