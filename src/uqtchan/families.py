"""Parametric qubit-channel generators: Pauli mixtures, the physical noise
catalog, and the non-unital constructions that keep shared entanglement
useful for universal quantum teleportation (UQT).

Each family is declared once, next to a builder that returns only its raw
Kraus operators (or Choi matrix) and the params to record. `noise_channel`
is the one validation site: it rejects a non-finite or out-of-range parameter with a
ValueError naming it, runs the builder and validates the channel. Builders
check only constraints that span several parameters. Public constructors
return noise_channel(<id>, ...), so direct and catalog calls agree.
Time-parameterized noise families take their raw constants plus a time t
and record the derived mixing probability p(t) in the channel's params.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import channels
from .channels import ChannelValidationError, QubitChannel
from .linalg import I2, PAULIS, SX, SY, SZ

_P_CLAMP = 1e-12


# ---------------------------------------------------------------------------
# Catalog declarations
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
        """Reject a non-finite value, then one outside the declared range."""
        if not math.isfinite(value):
            raise ValueError(f"{family_id}: {self.name} must be finite, got {value!r}")
        if self.low is not None and (value < self.low or (self.low_open and value == self.low)):
            raise ValueError(f"{family_id}: {self.name} must lie in {self.range_text()}, got {value!r}")
        if self.high is not None and (value > self.high or (self.high_open and value == self.high)):
            raise ValueError(f"{family_id}: {self.name} must lie in {self.range_text()}, got {value!r}")


@dataclass(frozen=True)
class Family:
    family_id: str
    params: tuple[ParamSpec, ...]
    #: builder: checked params -> (raw Kraus operators or Choi matrix, params to record)
    build: Callable[..., tuple[list, dict]]
    doc: str
    expected_unital: bool | None = None
    expected_rank: int | None = None
    sampler: Callable | None = None
    choi: bool = False  #: build returns the Choi matrix; Kraus: its expected_rank eigenpairs

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


FAMILIES: dict[str, Family] = {}


def _family(family_id: str, params: tuple[ParamSpec, ...], doc: str, *,
            unital: bool | None = None, rank: int | None = None,
            sampler: Callable | None = None, choi: bool = False):
    """Declare a catalog family around its builder. The decorated name
    becomes the public constructor: it takes the builder's arguments and
    returns noise_channel(family_id, ...) on them."""
    def declare(build: Callable[..., tuple[list, dict]]) -> Callable[..., QubitChannel]:
        FAMILIES[family_id] = Family(family_id, params, build, doc, unital, rank, sampler, choi)
        signature = inspect.signature(build)

        @functools.wraps(build)
        def constructor(*args, **kwargs):
            return noise_channel(family_id, **signature.bind(*args, **kwargs).arguments)
        return constructor
    return declare


# ---------------------------------------------------------------------------
# Pauli mixtures and the unital constructions
# ---------------------------------------------------------------------------

def _pauli(p0: float, p1: float, p2: float, p3: float) -> tuple[list, dict]:
    """Kraus {sqrt(p_i) sigma_i} (zero weights dropped) and weights of a Pauli mixture."""
    probs = (p0, p1, p2, p3)
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1 within 1e-12, got sum {sum(probs)!r}")
    kraus = [np.sqrt(p) * sig for p, sig in zip(probs, PAULIS) if p > 0.0]
    return kraus, {"p0": p0, "p1": p1, "p2": p2, "p3": p3}


def _sample_pauli(rng: np.random.Generator) -> dict:
    w = rng.dirichlet(np.ones(4))
    return {"p0": float(w[0]), "p1": float(w[1]), "p2": float(w[2]), "p3": float(w[3])}


@_family("pauli_mixture",
         (ParamSpec("p0", 0.0, 1.0), ParamSpec("p1", 0.0, 1.0),
          ParamSpec("p2", 0.0, 1.0), ParamSpec("p3", 0.0, 1.0)),
         "convex mixture of the four Pauli channels (weights sum to 1)",
         unital=True, sampler=_sample_pauli)
def pauli_mixture(p0: float, p1: float, p2: float, p3: float):
    """Convex mixture of the four Pauli channels, Kraus {sqrt(p_i) sigma_i}.

    Zero-weight operators are dropped, so (1,0,0,0) is the identity channel.
    """
    return _pauli(p0, p1, p2, p3)


@_family("werner", (ParamSpec("p", 0.0, 1.0),),
         "Pauli mixture (p, (1-p)/3 x3); Werner-state Choi, UQT-preserving iff p > 1/2",
         unital=True, sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))})
def werner(p: float):
    """Pauli mixture (p, (1-p)/3, (1-p)/3, (1-p)/3); its Choi state is the
    Werner state with Bell weight p. UQT-preserving iff 1/2 < p < 1."""
    q = (1.0 - p) / 3.0
    return _pauli(p, q, q, q)


@_family("dephasing", (ParamSpec("p", 0.0, 1.0),),
         "dephasing, weight p on identity: {sqrt(p) I, sqrt(1-p) sigma_3}",
         unital=True, rank=2, sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))})
def dephasing(p: float):
    """Dephasing with weight p on the identity: Kraus {sqrt(p) I, sqrt(1-p) sigma_3}."""
    return _pauli(p, 0.0, 0.0, 1.0 - p)


def lambda_u4_weights(p: float) -> tuple[float, float, float, float]:
    """Pauli weights (2/3, w, w, (2p-1)/(3(2+p))) of the one-parameter unital
    family; the last weight is negative for p < 1/2, where the set stops
    describing any CPTP map (its would-be Choi matrix has a negative
    eigenvalue). Defined for all p in (0, 1) so that the invalid region can
    be examined."""
    w12 = (3.0 - p) / (6.0 * (2.0 + p))
    w3 = (2.0 * p - 1.0) / (3.0 * (2.0 + p))
    return (2.0 / 3.0, w12, w12, w3)


@_family("lambda_u4", (ParamSpec("p", 0.0, 1.0, low_open=True, high_open=True),),
         "one-parameter rank-4 unital family; removes deviation on matched |Psi_a>",
         unital=True, rank=4, sampler=lambda rng: {"p": float(rng.uniform(0.501, 0.999))})
def lambda_u4(p: float):
    """Rank-four unital channel with weights lambda_u4_weights(p), 1/2 <= p < 1.

    Applied to |Psi_a> with matched concurrence C = p it yields a state with
    all correlation magnitudes equal and F = (3 + 4C)/(6 + 3C)."""
    w = lambda_u4_weights(p)
    if w[3] < 0.0:
        raise ChannelValidationError(
            f"no CPTP map for p < 1/2: Choi weight {w[3]:.6g} is negative")
    return _pauli(*w)[0], {"p": p}


def _sample_uqt_unital(rng: np.random.Generator) -> dict:
    c = float(rng.uniform(0.5 + 1e-3, 1.0 - 1e-3))
    lo, hi = uqt_unital_p0_window(c)
    return {"c": c, "p0": float(rng.uniform(lo + 1e-4 * (hi - lo), hi))}


@_family("uqt_unital_for_pure",
         (ParamSpec("c", 0.5, 1.0, low_open=True, high_open=True), ParamSpec("p0", None, None)),
         "Pauli mixture making |Psi_a> (concurrence c > 1/2) useful for UQT; "
         "p0 in ((1+2c)/(6c), 1/(2-c)]",
         unital=True, sampler=_sample_uqt_unital)
def uqt_unital_for_pure(c: float, p0: float):
    """Pauli mixture that makes |Psi_a> with concurrence c useful for UQT.

    Requires 1/2 < c < 1 and (1+2c)/(6c) < p0 <= 1/(2-c); then
    p1 = p2 = (1 + (1-2 p0) c)/(4 + 2c) and the final state has all
    correlation magnitudes equal to (4 p0 - 1) c / (2 + c) > 1/3.
    """
    lo, hi = uqt_unital_p0_window(c)
    if not lo < p0 <= hi:
        raise ValueError(f"p0 must lie in ({lo:.6g}, {hi:.6g}] for c={c!r}, got {p0!r}")
    p12 = (1.0 + (1.0 - 2.0 * p0) * c) / (4.0 + 2.0 * c)
    p3 = 1.0 - p0 - 2.0 * p12
    kraus = _pauli(p0, p12, p12, max(p3, 0.0))[0]
    return kraus, {"c": c, "p0": p0, "p1": p12, "p2": p12, "p3": p3}


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


def _sample_rank4(rng: np.random.Generator) -> dict:
    t = float(rng.uniform(1.0 / 3.0 + 1e-3, 1.0 - 1e-3))
    s_norm = float(rng.uniform(1e-3, (1.0 - t) * (1.0 - 1e-3)))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    s = s_norm * direction
    return {"s1": float(s[0]), "s2": float(s[1]), "s3": float(s[2]), "t": t}


@_family("uqt_nonunital_rank4",
         (ParamSpec("s1", None, None), ParamSpec("s2", None, None), ParamSpec("s3", None, None),
          ParamSpec("t", 1.0 / 3.0, 1.0, low_open=True, high_open=True)),
         "non-unital rank-4 Choi family preserving UQT on a Bell input; 0 < |s| < 1-t",
         unital=False, rank=4, sampler=_sample_rank4, choi=True)
def uqt_nonunital_rank4(s1: float, s2: float, s3: float, t: float):
    """Non-unital channel with rank-4 Choi state preserving UQT on a Bell input.

    Requires 1/3 < t < 1 and 0 < |s| < 1 - t. The Choi state has all
    correlation magnitudes equal to t, so F = (1+t)/2 and zero deviation.
    The four orthogonal Kraus operators are rebuilt from the Choi eigenpairs,
    which stays well defined on the s1 = s2 = 0 axis where the printed
    component formulas have removable singularities.
    """
    s_norm = float(np.sqrt(s1 * s1 + s2 * s2 + s3 * s3))
    if not 0.0 < s_norm < 1.0 - t:
        raise ValueError(
            f"|s| must lie in (0, 1 - t) = (0, {1.0 - t:.6g}) for rank 4, got {s_norm!r}")
    return canonical_nonunital_choi((s1, s2, s3), t), {"s1": s1, "s2": s2, "s3": s3, "t": t}


@_family("uqt_nonunital_rank3",
         (ParamSpec("theta", 0.0, np.pi), ParamSpec("phi", 0.0, 2.0 * np.pi),
          ParamSpec("t", 1.0 / 3.0, 1.0, low_open=True, high_open=True)),
         "non-unital rank-3 Choi family preserving UQT on a Bell input; |s| = 1-t",
         unital=False, rank=3, choi=True)
def uqt_nonunital_rank3(theta: float, phi: float, t: float):
    """Non-unital channel with rank-3 Choi state preserving UQT on a Bell input.

    Requires 1/3 < t < 1; the Bob vector has |s| = 1 - t with direction
    (theta, phi), which pins the Choi rank to three. Same Choi profile as
    the rank-4 family: magnitudes (t, t, t), F = (1+t)/2, zero deviation.
    """
    r = 1.0 - t
    s_vec = (r * np.sin(theta) * np.cos(phi), r * np.sin(theta) * np.sin(phi), r * np.cos(theta))
    return canonical_nonunital_choi(s_vec, t), {"theta": theta, "phi": phi, "t": t}


# ---------------------------------------------------------------------------
# Named non-unital examples
# ---------------------------------------------------------------------------

@_family("example_rank3", (ParamSpec("p", 0.0, 1.0, low_open=True, high_open=True),),
         "non-unital rank-3 example: Bell output p Phi_1 + (1-p) I/2 x |0><0|, "
         "UQT iff p > 1/3",
         unital=False, rank=3)
def example_rank3(p: float):
    """Rank-3 non-unital channel {sqrt(1-p)|0><0|, sqrt(1-p)|0><1|, sqrt(p) I}.

    On a Bell input the final state is p |Phi_1><Phi_1| + (1-p) I/2 x |0><0|,
    with F = (1+p)/2 and zero deviation: useful for UQT iff p > 1/3.
    """
    r = np.sqrt(1.0 - p)
    kraus = [
        np.array([[r, 0.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, r], [0.0, 0.0]], dtype=complex),
        np.sqrt(p) * I2,
    ]
    return kraus, {"p": p}


@_family("example_rank4_uqt", (),
         "fixed non-unital rank-4 example with Bell-output F = 3/4, zero deviation",
         unital=False, rank=4, sampler=lambda rng: {})
def example_rank4_uqt():
    """Fixed four-operator non-unital channel whose Bell output has F = 3/4
    and zero fidelity deviation (useful for UQT)."""
    s17 = np.sqrt(17.0)
    k0 = np.sqrt((6.0 + s17) / (17.0 - s17)) * np.array(
        [[0.0, 1.0], [(1.0 - s17) / 4.0, 0.0]], dtype=complex)
    k1 = np.array([[np.sqrt(3.0) / (2.0 * np.sqrt(2.0)), 0.0], [0.0, 0.0]], dtype=complex)
    k2 = np.sqrt((6.0 - s17) / (17.0 + s17)) * np.array(
        [[0.0, 1.0], [(1.0 + s17) / 4.0, 0.0]], dtype=complex)
    k3 = np.array([[0.0, 0.0], [0.0, 1.0 / (2.0 * np.sqrt(2.0))]], dtype=complex)
    return [k0, k1, k2, k3], {}


@_family("example_rank3_universal_only", (),
         "fixed non-unital rank-3 example: Bell output universal (zero deviation) "
         "but not useful (F = 11/20)",
         unital=False, rank=3, sampler=lambda rng: {})
def example_rank3_universal_only():
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
    return [k0, k1, k2], {}


def lambda_tilde_p2_max(p1: float) -> float:
    """Upper end of the valid p2 range for lambda_tilde_nu."""
    return (1.0 + p1) / (1.0 + p1 + np.sqrt(1.0 - p1 * p1))


def uqt_unital_p0_window(c: float) -> tuple[float, float]:
    """(lo, hi) of the p0 window lo < p0 <= hi of uqt_unital_for_pure at concurrence c."""
    return (1.0 + 2.0 * c) / (6.0 * c), 1.0 / (2.0 - c)


def _sample_tilde(rng: np.random.Generator) -> dict:
    p1 = float(rng.uniform(1e-3, 1.0 - 1e-3))
    hi = lambda_tilde_p2_max(p1)
    return {"p1": p1, "p2": float(rng.uniform(1e-3 * hi, hi * (1.0 - 1e-3)))}


@_family("lambda_tilde_nu",
         (ParamSpec("p1", 0.0, 1.0, low_open=True, high_open=True),
          ParamSpec("p2", 0.0, 1.0, low_open=True, high_open=True)),
         "four-operator non-unital family; on matched |Psi_a> (C = p1) the final "
         "state has F = (1 + p2 C)/2, zero deviation; p2 < (1+p1)/(1+p1+sqrt(1-p1^2))",
         unital=False, sampler=_sample_tilde)
def lambda_tilde_nu(p1: float, p2: float):
    """Four-operator non-unital channel that removes fidelity deviation.

    Valid for 0 < p1 < 1 and 0 < p2 < (1+p1)/(1+p1+sqrt(1-p1^2)). Applied
    to |Psi_a> with matched concurrence C = p1 the final state has
    F = (1 + p2 C)/2 and zero deviation, hence useful for UQT iff
    p2 > 1/(3C), which is attainable iff C > (sqrt(17)-1)/6.
    """
    hi = lambda_tilde_p2_max(p1)
    if not p2 < hi:
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
    return [k0, k1, k2, k3], {"p1": p1, "p2": p2}


def lambda_star_gamma(p1: float) -> float:
    """Damping strength gamma(p1) of lambda_star_nu."""
    u = np.sqrt(1.0 - p1 * p1)
    rad = max(3.0 * p1 * p1 - 2.0 + 2.0 * u, 0.0)
    return (1.0 + u - np.sqrt(rad)) / (2.0 + 2.0 * u)


@_family("lambda_star_nu", (ParamSpec("p1", 0.0, 1.0, low_open=True, high_open=True),),
         "amplitude damping toward |1> with matched strength gamma(p1); zero "
         "deviation on matched |Psi_a>, useful iff C > sqrt(5-2 sqrt(3))/3",
         unital=False, rank=2)
def lambda_star_nu(p1: float):
    """Amplitude damping toward |1> with strength gamma(p1) (the N=1 limit of
    the generalized amplitude-damping channel).

    Applied to |Psi_a> with matched concurrence C = p1 the final state has
    zero deviation for every C and is useful for UQT iff
    C > sqrt(5 - 2 sqrt(3))/3, approximately 0.4131.
    """
    g = float(lambda_star_gamma(p1))
    k0 = np.array([[np.sqrt(1.0 - g), 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [np.sqrt(g), 0.0]], dtype=complex)
    return [k0, k1], {"p1": p1, "gamma": g}


@_family("gadc", (ParamSpec("gamma", 0.0, 1.0), ParamSpec("N", 0.0, 1.0)),
         "generalized amplitude damping; non-unital iff gamma (2N-1) != 0",
         sampler=lambda rng: {"gamma": float(rng.uniform(0.05, 0.95)),
                              "N": float(rng.uniform(0.05, 0.45))})
def gadc(gamma: float, N: float):
    """Generalized amplitude-damping channel with loss gamma and bath
    excitation n, both in [0, 1]. Non-unital iff gamma (2n - 1) != 0."""
    rg = np.sqrt(1.0 - gamma)
    sg = np.sqrt(gamma)
    k0 = np.sqrt(1.0 - N) * np.array([[1.0, 0.0], [0.0, rg]], dtype=complex)
    k1 = np.sqrt(1.0 - N) * np.array([[0.0, sg], [0.0, 0.0]], dtype=complex)
    k2 = np.sqrt(N) * np.array([[rg, 0.0], [0.0, 1.0]], dtype=complex)
    k3 = np.sqrt(N) * np.array([[0.0, 0.0], [sg, 0.0]], dtype=complex)
    return [k0, k1, k2, k3], {"gamma": gamma, "N": N}


# ---------------------------------------------------------------------------
# Physical noise catalog
# ---------------------------------------------------------------------------

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


def _adc_nm_probability(R: float, gamma: float, omega0: float, g: float, t: float) -> float:
    """Non-Markovian amplitude-damping law
    1 - exp(-2 R gamma / (omega0 coth(g omega0 t / 2) + 1)); p(0) = 0."""
    with np.errstate(divide="ignore"):
        coth = 1.0 / np.tanh(g * omega0 * t / 2.0) if t > 0.0 else np.inf
    return 1.0 - np.exp(-2.0 * R * gamma / (omega0 * coth + 1.0))


def rtn_probability(g: float, omega: float, t: float) -> float:
    """Random-telegraph-noise mixing law e^{-g t}(cos(g w t) + sin(g w t)/w)."""
    theta = g * omega * t
    return float(np.exp(-g * t) * (np.cos(theta) + np.sin(theta) / omega))


def _register_time_law(family_id: str, params: tuple[ParamSpec, ...], doc: str,
                       kraus: Callable[[float], list], law: Callable[..., float],
                       unital: bool) -> None:
    """Declare a two-operator noise row whose mixing probability follows a
    time law: the channel is kraus(p) with p = law(**params) clamped to
    [0, 1], and it records its params in spec order, then p."""
    def build(**values: float):
        try:  # an overflow or invalid operation leaves p non-finite, rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                p = float(law(**values))
        except OverflowError as exc:  # Python float ** raises instead
            raise ValueError(f"{family_id}: derived p(t) overflows; "
                             "the parameter regime is unphysical") from exc
        if not -_P_CLAMP <= p <= 1.0 + _P_CLAMP:
            raise ValueError(f"{family_id}: derived p(t) = {p!r} lies outside [0, 1]; "
                             "the parameter regime is unphysical")
        p = min(max(p, 0.0), 1.0)
        return kraus(p), {**{s.name: values[s.name] for s in params}, "p": p}

    _family(family_id, params, doc, unital=unital, rank=2)(build)


# Sampling ranges keep every rank-2 draw's second Choi eigenvalue >= 1e-6 x the
# first, far above linalg.RANK_TOL, so no draw can round to Choi rank 1.
_TIME = ParamSpec("t", 0.0, None, sample_low=0.1, sample_high=2.0)


@_family("depolarizing_m", (ParamSpec("p", 0.0, 1.0),),
         "Markovian depolarizing {sqrt(1-p) I, sqrt(p/3) sigma_i}; Bell output is "
         "a Werner state, UQT iff p < 1/2",
         unital=True, sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))})
def _depolarizing_m(p: float):
    return _depolarizing_kraus(1.0 - p, p / 3.0), {"p": p}


@_family("dephasing_m", (ParamSpec("p", 0.0, 1.0),),
         "Markovian dephasing {sqrt(1-p) I, sqrt(p) sigma_3}",
         unital=True, rank=2, sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))})
def _dephasing_m(p: float):
    return _dephasing_kraus(p), {"p": p}


_register_time_law(
    "adc_m", (ParamSpec("gamma", 0.0, None, low_open=True, sample_high=2.0), _TIME),
    "Markovian amplitude damping toward |0>, p(t) = 1 - exp(-gamma t)",
    _adc_kraus, lambda gamma, t: 1.0 - np.exp(-gamma * t), unital=False)
_register_time_law(
    "pln_m", (ParamSpec("G", 0.0, None, low_open=True, sample_high=2.0), _TIME),
    "power-law noise, dephasing form with p(t) = exp(-G t)",
    _dephasing_kraus, lambda G, t: np.exp(-G * t), unital=True)
_register_time_law(
    "oun_m", (ParamSpec("G", 0.0, None, low_open=True, sample_high=2.0), _TIME),
    "Ornstein-Uhlenbeck noise, dephasing form with p(t) = exp(-G t / 2)",
    _dephasing_kraus, lambda G, t: np.exp(-G * t / 2.0), unital=True)


@_family("unruh", (ParamSpec("r", 0.0, np.pi / 4.0, low_open=True, sample_low=0.01),),
         "Unruh channel {diag(cos r, 1), sin r lower shift}; non-unital",
         unital=False, rank=2)
def _unruh(r: float):
    kraus = [
        np.array([[np.cos(r), 0.0], [0.0, 1.0]], dtype=complex),
        np.array([[0.0, 0.0], [np.sin(r), 0.0]], dtype=complex),
    ]
    return kraus, {"r": r}


def _sample_depolarizing_nm(rng: np.random.Generator) -> dict:
    alpha = float(rng.uniform(0.05, 1.0))
    p_hi = min(0.5, 1.0 / (3.0 * alpha))
    return {"alpha": alpha, "p": float(rng.uniform(0.0, p_hi * (1.0 - 1e-3)))}


@_family("depolarizing_nm",
         (ParamSpec("alpha", 0.0, 1.0, low_open=True), ParamSpec("p", 0.0, 0.5)),
         "non-Markovian depolarizing; needs 3 alpha p <= 1; UQT for small p",
         unital=True, sampler=_sample_depolarizing_nm)
def _depolarizing_nm(alpha: float, p: float):
    if 3.0 * alpha * p > 1.0 + 1e-12:
        raise ValueError(
            f"need 3 alpha p <= 1 for a CPTP map (identity weight stays non-negative); "
            f"got alpha={alpha!r}, p={p!r}")
    w0 = max((1.0 - 3.0 * alpha * p) * (1.0 - p), 0.0)
    wi = (1.0 + 3.0 * alpha * (1.0 - p)) * p / 3.0
    return _depolarizing_kraus(w0, wi), {"alpha": alpha, "p": p}


@_family("dephasing_nm",
         (ParamSpec("alpha", 0.0, 1.0, low_open=True), ParamSpec("p", 0.0, 0.5)),
         "non-Markovian dephasing, weights (1-alpha p)(1-p) and p(1+alpha(1-p))",
         unital=True, rank=2,
         sampler=lambda rng: {"alpha": float(rng.uniform(0.05, 1.0)),
                              "p": float(rng.uniform(0.01, 0.49))})
def _dephasing_nm(alpha: float, p: float):
    w0 = (1.0 - alpha * p) * (1.0 - p)
    w3 = p * (1.0 + alpha * (1.0 - p))
    return [np.sqrt(w0) * I2, np.sqrt(w3) * SZ], {"alpha": alpha, "p": p}


_register_time_law(
    "adc_nm",
    (ParamSpec("R", 0.0, None, low_open=True, sample_low=0.05, sample_high=2.0),
     ParamSpec("gamma", 0.0, None, low_open=True, sample_low=0.05, sample_high=2.0),
     ParamSpec("omega0", 0.0, None, low_open=True, sample_high=3.0),
     ParamSpec("g", 0.0, None, low_open=True, sample_low=0.05, sample_high=2.0), _TIME),
    "non-Markovian amplitude damping, p(t) = 1 - exp(-2 R gamma / "
    "(omega0 coth(g omega0 t / 2) + 1)); constants accepted as any positive reals",
    _adc_kraus, _adc_nm_probability, unital=False)
# pln_nm's decaying form: its g -> 0 limit reproduces the Markovian law exp(-G t)
_register_time_law(
    "pln_nm",
    (ParamSpec("G", 0.0, None, low_open=True, sample_high=2.0),
     ParamSpec("g", 0.0, None, low_open=True, sample_high=2.0), _TIME),
    "non-Markovian power-law noise, p(t) = exp(-G t (g t + 2)/(2 (g t + 1)^2))",
    _dephasing_kraus,
    lambda G, g, t: np.exp(-G * t * (g * t + 2.0) / (2.0 * (g * t + 1.0) ** 2)), unital=True)
_register_time_law(
    "oun_nm",
    (ParamSpec("G", 0.0, None, low_open=True, sample_low=0.05, sample_high=2.0),
     ParamSpec("g", 0.0, None, low_open=True, sample_low=0.05, sample_high=2.0), _TIME),
    "non-Markovian Ornstein-Uhlenbeck noise, "
    "p(t) = exp(-G ((exp(-g t) - 1)/g + t)/2)",
    _dephasing_kraus, lambda G, g, t: np.exp(-G * ((np.exp(-g * t) - 1.0) / g + t) / 2.0),
    unital=True)
_register_time_law(
    "rtn_nm",
    (ParamSpec("g", 0.0, None, low_open=True, sample_low=0.05, sample_high=1.0),
     ParamSpec("omega", 0.0, None, low_open=True, sample_low=0.1, sample_high=2.0),
     ParamSpec("t", 0.0, None, sample_low=0.05, sample_high=0.5)),
    "random telegraph noise, p(t) = exp(-g t)(cos(g w t) + sin(g w t)/w); "
    "rejected when the oscillatory law leaves [0, 1]",
    _dephasing_kraus, rtn_probability, unital=True)

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
    if key in _PARAM_ALIASES and family_id in MATCHED_CONCURRENCE_PARAM \
            and all(spec.name != key for spec in get_family(family_id).params):
        return MATCHED_CONCURRENCE_PARAM[family_id]
    return key


def resolve_keys(family_id: str, keys) -> list[str]:
    """resolve_param of each key, in order; ValueError at the first key that
    names no parameter of the family, or one that an earlier key set."""
    names = {spec.name for spec in get_family(family_id).params}
    given = {}  # resolved name -> key that set it
    for key in keys:
        name = resolve_param(family_id, key)
        if name not in names:
            raise ValueError(f"{family_id}: unknown parameter {name!r}; expected {sorted(names)}")
        if name in given:
            first, second = sorted((given[name], key), key=lambda k: k == name)
            raise ValueError(f"{family_id}: {first} and {second} both set {name}")
        given[name] = key
    return list(given)


def resolve_complete(family_id: str, keys) -> list[str]:
    """resolve_keys, and ValueError also if the keys leave a parameter unset."""
    names = resolve_keys(family_id, keys)
    missing = {spec.name for spec in get_family(family_id).params} - set(names)
    if missing:
        raise ValueError(f"{family_id}: missing parameters {sorted(missing)}")
    return names


def checked_rows(family_id: str, rows) -> list:
    """checked_build of each keyword dict of rows, names resolved once per key
    sequence: the raw Kraus operators and params to record, or the ValueError
    without its traceback (which would tie this frame and every row into a
    cycle). A Choi-defined family's rows share one kraus_from_choi."""
    fam = get_family(family_id)
    names_of: dict[tuple, list | str] = {}  # key sequence -> resolved names, or the error text
    out: list = []
    for row in rows:
        keys = tuple(row)
        if keys not in names_of:
            try:
                names_of[keys] = resolve_complete(family_id, keys)
            except ValueError as exc:
                names_of[keys] = str(exc)
        try:
            if isinstance(names_of[keys], str):
                raise ValueError(names_of[keys])
            values = dict(zip(names_of[keys], map(float, row.values())))
            for spec in fam.params:
                spec.check(values[spec.name], family_id)
            out.append(fam.build(**values))
        except ValueError as exc:  # ChannelValidationError included
            out.append(type(exc)(*exc.args))
    built = [i for i, res in enumerate(out) if isinstance(res, tuple)] if fam.choi else []
    if built:  # the checks above leave every Choi matrix finite and Hermitian
        kraus = channels.kraus_from_choi(np.array([out[i][0] for i in built]), fam.expected_rank)
        for i, ops in zip(built, kraus):
            out[i] = (ops, out[i][1])
    return out


def checked_build(family_id: str, **params) -> tuple[list, dict]:
    """The one-row view of checked_rows: a catalog family's raw Kraus
    operators and params to record, not yet validated; raises its error."""
    built = checked_rows(family_id, [params])
    if isinstance(built[0], ValueError):
        raise built.pop()  # popped: this frame keeps no reference to the error
    return built[0]


def noise_channel(family_id: str, **params) -> QubitChannel:
    """Build any catalog channel by family id and keyword parameters:
    checked_build, then the catalog's one channels.validate call."""
    kraus, recorded = checked_build(family_id, **params)
    return channels.validate(kraus, name=family_id, params=recorded)


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
