"""Parametric qubit-channel generators: Pauli mixtures, the physical noise
catalog, and the non-unital constructions that keep shared entanglement
useful for universal quantum teleportation (UQT).

Each family is declared once, next to an array builder. The builder takes
the family's params as equal-length float arrays, one entry per row, and
returns the rows' raw Kraus operators as one (n, k, 2, 2) array (a Choi
family: its Choi matrices, (n, 4, 4)), the params to record as arrays, and
the error of each row that breaks a constraint spanning several params.
`checked_rows` is the one validation site: it turns each param into a
float, rejects a non-finite or out-of-range one with a ValueError naming
it, and calls the builder once on the rows that pass. `checked_build` and
`noise_channel` are its one-row views, and public constructors return
noise_channel(<id>, ...), so direct and catalog calls agree.
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
from .linalg import PAULIS

_P_CLAMP = 1e-12
_PAULIS = np.array(PAULIS)


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

    def closed_range(self) -> tuple[float, float]:
        """The range as a closed float interval [lo, hi]: an open end moves
        to the next float inside, a missing one to the largest finite float,
        so that lo <= x <= hi fails for exactly the values `error` describes."""
        big = float(np.finfo(float).max)
        lo = -big if self.low is None else \
            float(np.nextafter(self.low, np.inf)) if self.low_open else self.low
        hi = big if self.high is None else \
            float(np.nextafter(self.high, -np.inf)) if self.high_open else self.high
        return lo, hi

    def error(self, value: float, family_id: str) -> str:
        """The error text of a value outside `closed_range`."""
        if not math.isfinite(value):
            return f"{family_id}: {self.name} must be finite, got {value!r}"
        return f"{family_id}: {self.name} must lie in {self.range_text()}, got {value!r}"


@dataclass(frozen=True)
class Family:
    family_id: str
    params: tuple[ParamSpec, ...]
    #: builder: checked param arrays -> (raw Kraus stack or Choi stack, params
    #: to record as arrays, {row: ValueError} of rows breaking a joint constraint)
    build: Callable[..., tuple[np.ndarray, dict, dict]]
    doc: str
    expected_unital: bool | None = None
    expected_rank: int | None = None
    sampler: Callable | None = None
    choi: bool = False  #: build returns the Choi matrix; Kraus: its expected_rank eigenpairs
    sparse: bool = False  #: a row's Kraus list omits its zero operators (zero Pauli weights)

    @functools.cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The `closed_range` ends of the params, as two arrays in spec order."""
        lo, hi = zip(*(spec.closed_range() for spec in self.params)) if self.params else ((), ())
        return np.array(lo, dtype=float), np.array(hi, dtype=float)

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
            sampler: Callable | None = None, choi: bool = False, sparse: bool = False):
    """Declare a catalog family around its array builder. The decorated name
    becomes the public constructor: it takes the builder's arguments and
    returns noise_channel(family_id, ...) on them."""
    def declare(build: Callable[..., tuple]) -> Callable[..., QubitChannel]:
        FAMILIES[family_id] = Family(family_id, params, build, doc, unital, rank, sampler, choi,
                                     sparse)
        signature = inspect.signature(build)

        @functools.wraps(build)
        def constructor(*args, **kwargs):
            return noise_channel(family_id, **signature.bind(*args, **kwargs).arguments)
        return constructor
    return declare


def _row_errors(mask: np.ndarray, text: str, *columns, error=ValueError) -> dict:
    """{row: error(text)} for each row that mask sets, the text formatted with
    the row's entries of columns as Python floats; other rows get no text."""
    return {i: error(text.format(*(float(c[i]) for c in columns)))
            for i in np.flatnonzero(mask).tolist()}


def _table(*columns, dtype=float) -> np.ndarray:
    """The (n, m) array of m columns, each an array of the n rows or a number."""
    zero = np.zeros(next((len(c) for c in columns if isinstance(c, np.ndarray)), 1))
    return np.array([c if isinstance(c, np.ndarray) else zero + c for c in columns],
                    dtype=dtype).T


def _kraus(*ops) -> np.ndarray:
    """The (n, k, 2, 2) Kraus stack of k operators, each given by its real
    entries [[a, b], [c, d]]: arrays of the n rows, or numbers."""
    entries = _table(*(x for op in ops for row in op for x in row))
    return entries.reshape(-1, len(ops), 2, 2).astype(complex)


# ---------------------------------------------------------------------------
# Pauli mixtures and the unital constructions
# ---------------------------------------------------------------------------

def _weighted(paulis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The (n, k, 2, 2) Kraus stack {sqrt(w_i) P_i} of the (n, k) weights on
    the (k, 2, 2) Pauli matrices P_i."""
    return np.sqrt(weights)[..., None, None] * paulis


def _pauli(p0, p1, p2, p3) -> tuple[np.ndarray, dict, dict]:
    """Kraus stack {sqrt(p_i) sigma_i} (a zero weight gives a zero operator,
    which the row's Kraus list omits), recorded weights, and the rows whose
    weights do not sum to 1 within 1e-12."""
    probs = _table(p0, p1, p2, p3)
    total = probs[:, 0] + probs[:, 1] + probs[:, 2] + probs[:, 3]
    errors = _row_errors(np.abs(total - 1.0) > 1e-12,
                         "probabilities must sum to 1 within 1e-12, got sum {!r}", total)
    return _weighted(_PAULIS, probs), dict(zip(("p0", "p1", "p2", "p3"), probs.T)), errors


def _sample_pauli(rng: np.random.Generator) -> dict:
    w = rng.dirichlet(np.ones(4))
    return {"p0": float(w[0]), "p1": float(w[1]), "p2": float(w[2]), "p3": float(w[3])}


@_family("pauli_mixture",
         (ParamSpec("p0", 0.0, 1.0), ParamSpec("p1", 0.0, 1.0),
          ParamSpec("p2", 0.0, 1.0), ParamSpec("p3", 0.0, 1.0)),
         "convex mixture of the four Pauli channels (weights sum to 1)",
         unital=True, sampler=_sample_pauli, sparse=True)
def pauli_mixture(p0: float, p1: float, p2: float, p3: float):
    """Convex mixture of the four Pauli channels, Kraus {sqrt(p_i) sigma_i}.

    Zero-weight operators are dropped, so (1,0,0,0) is the identity channel.
    """
    return _pauli(p0, p1, p2, p3)


@_family("werner", (ParamSpec("p", 0.0, 1.0),),
         "Pauli mixture (p, (1-p)/3 x3); Werner-state Choi, UQT-preserving iff p > 1/2",
         unital=True, sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))}, sparse=True)
def werner(p: float):
    """Pauli mixture (p, (1-p)/3, (1-p)/3, (1-p)/3); its Choi state is the
    Werner state with Bell weight p. UQT-preserving iff 1/2 < p < 1."""
    q = (1.0 - p) / 3.0
    return _pauli(p, q, q, q)


@_family("dephasing", (ParamSpec("p", 0.0, 1.0),),
         "dephasing, weight p on identity: {sqrt(p) I, sqrt(1-p) sigma_3}",
         unital=True, rank=2, sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))},
         sparse=True)
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
         unital=True, rank=4, sampler=lambda rng: {"p": float(rng.uniform(0.501, 0.999))},
         sparse=True)
def lambda_u4(p: float):
    """Rank-four unital channel with weights lambda_u4_weights(p), 1/2 <= p < 1.

    Applied to |Psi_a> with matched concurrence C = p it yields a state with
    all correlation magnitudes equal and F = (3 + 4C)/(6 + 3C)."""
    w = lambda_u4_weights(p)
    kraus, _, errors = _pauli(*w)
    errors.update(_row_errors(w[3] < 0.0, "no CPTP map for p < 1/2: Choi weight {:.6g} is negative",
                              w[3], error=ChannelValidationError))
    return kraus, {"p": p}, errors


def _sample_uqt_unital(rng: np.random.Generator) -> dict:
    c = float(rng.uniform(0.5 + 1e-3, 1.0 - 1e-3))
    lo, hi = uqt_unital_p0_window(c)
    return {"c": c, "p0": float(rng.uniform(lo + 1e-4 * (hi - lo), hi))}


@_family("uqt_unital_for_pure",
         (ParamSpec("c", 0.5, 1.0, low_open=True, high_open=True), ParamSpec("p0", None, None)),
         "Pauli mixture making |Psi_a> (concurrence c > 1/2) useful for UQT; "
         "p0 in ((1+2c)/(6c), 1/(2-c)]",
         unital=True, sampler=_sample_uqt_unital, sparse=True)
def uqt_unital_for_pure(c: float, p0: float):
    """Pauli mixture that makes |Psi_a> with concurrence c useful for UQT.

    Requires 1/2 < c < 1 and (1+2c)/(6c) < p0 <= 1/(2-c); then
    p1 = p2 = (1 + (1-2 p0) c)/(4 + 2c) and the final state has all
    correlation magnitudes equal to (4 p0 - 1) c / (2 + c) > 1/3.
    """
    lo, hi = uqt_unital_p0_window(c)
    p12 = (1.0 + (1.0 - 2.0 * p0) * c) / (4.0 + 2.0 * c)
    p3 = 1.0 - p0 - 2.0 * p12
    kraus, _, errors = _pauli(p0, p12, p12, np.maximum(p3, 0.0))
    errors.update(_row_errors(~((lo < p0) & (p0 <= hi)),
                              "p0 must lie in ({:.6g}, {:.6g}] for c={!r}, got {!r}",
                              lo, hi, c, p0))
    return kraus, {"c": c, "p0": p0, "p1": p12, "p2": p12, "p3": p3}, errors


# ---------------------------------------------------------------------------
# Non-unital UQT-preserving families (canonical Choi construction)
# ---------------------------------------------------------------------------

def canonical_nonunital_choi(s_vec, t) -> np.ndarray:
    """Trace-1 canonical Choi matrix with correlation diag(-t, -t, -t) and
    Bob local vector s, written in the computational basis; with arrays for
    t and the entries of s, the (n, 4, 4) stack of their rows."""
    s1, s2, s3 = s_vec
    off = s1 - 1j * np.asarray(s2)
    entries = _table(1 + s3 - t, off, 0, 0,
                     np.conj(off), 1 - s3 + t, -2 * t, 0,
                     0, -2 * t, 1 + s3 + t, off,
                     0, 0, np.conj(off), 1 - s3 - t, dtype=complex)
    return 0.25 * entries.reshape(np.broadcast_shapes(*map(np.shape, (s1, s2, s3, t))) + (4, 4))


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
    s_norm = np.sqrt(s1 * s1 + s2 * s2 + s3 * s3)
    errors = _row_errors(~((0.0 < s_norm) & (s_norm < 1.0 - t)),
                         "|s| must lie in (0, 1 - t) = (0, {:.6g}) for rank 4, got {!r}",
                         1.0 - t, s_norm)
    return canonical_nonunital_choi((s1, s2, s3), t), {"s1": s1, "s2": s2, "s3": s3, "t": t}, errors


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
    return canonical_nonunital_choi(s_vec, t), {"theta": theta, "phi": phi, "t": t}, {}


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
    r, q = np.sqrt(1.0 - p), np.sqrt(p)
    return _kraus([[r, 0.0], [0.0, 0.0]], [[0.0, r], [0.0, 0.0]], [[q, 0.0], [0.0, q]]), \
        {"p": p}, {}


@_family("example_rank4_uqt", (),
         "fixed non-unital rank-4 example with Bell-output F = 3/4, zero deviation",
         unital=False, rank=4)
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
    return np.array([[k0, k1, k2, k3]]), {}, {}


@_family("example_rank3_universal_only", (),
         "fixed non-unital rank-3 example: Bell output universal (zero deviation) "
         "but not useful (F = 11/20)",
         unital=False, rank=3)
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
    return np.array([[k0, k1, k2]]), {}, {}


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
    errors = _row_errors(~(p2 < hi), "p2 must lie in (0, {:.6g}) for p1={!r}, got {!r}",
                         hi, p1, p2)
    u = np.sqrt(1.0 - p1) / np.sqrt(1.0 + p1)
    root = np.sqrt(5.0 + 3.0 * p1)
    sm = np.sqrt(1.0 - p1)
    a0 = (1.0 / np.sqrt(2.0)) * np.sqrt(1.0 - p2 - p2 * u)
    a1 = (1.0 / np.sqrt(2.0)) * np.sqrt(1.0 - p2 + p2 * u)
    a2 = np.sqrt((1.0 + p1 + p2 + p1 * p2 - p2 * np.sqrt(1.0 + p1) * root)
                 / (5.0 + 3.0 * p1 + sm * root))
    a3 = np.sqrt((1.0 + p1 + p2 + p1 * p2 + p2 * np.sqrt(1.0 + p1) * root)
                 / (5.0 + 3.0 * p1 - sm * root))
    b2 = a2 * ((sm + root) / (2.0 * np.sqrt(1.0 + p1)))
    b3 = a3 * ((sm - root) / (2.0 * np.sqrt(1.0 + p1)))
    kraus = _kraus([[0.0, 0.0], [0.0, a0]], [[a1, 0.0], [0.0, 0.0]],
                   [[0.0, a2], [b2, 0.0]], [[0.0, a3], [b3, 0.0]])
    return kraus, {"p1": p1, "p2": p2}, errors


def lambda_star_gamma(p1: float) -> float:
    """Damping strength gamma(p1) of lambda_star_nu."""
    u = np.sqrt(1.0 - p1 * p1)
    rad = np.maximum(3.0 * p1 * p1 - 2.0 + 2.0 * u, 0.0)
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
    g = lambda_star_gamma(p1)
    kraus = _kraus([[np.sqrt(1.0 - g), 0.0], [0.0, 1.0]], [[0.0, 0.0], [np.sqrt(g), 0.0]])
    return kraus, {"p1": p1, "gamma": g}, {}


@_family("gadc", (ParamSpec("gamma", 0.0, 1.0), ParamSpec("N", 0.0, 1.0)),
         "generalized amplitude damping; non-unital iff gamma (2N-1) != 0",
         sampler=lambda rng: {"gamma": float(rng.uniform(0.05, 0.95)),
                              "N": float(rng.uniform(0.05, 0.45))})
def gadc(gamma: float, N: float):
    """Generalized amplitude-damping channel with loss gamma and bath
    excitation n, both in [0, 1]. Non-unital iff gamma (2n - 1) != 0."""
    rg, sg = np.sqrt(1.0 - gamma), np.sqrt(gamma)
    a, b = np.sqrt(1.0 - N), np.sqrt(N)
    kraus = _kraus([[a, 0.0], [0.0, a * rg]], [[0.0, a * sg], [0.0, 0.0]],
                   [[b * rg, 0.0], [0.0, b]], [[0.0, 0.0], [b * sg, 0.0]])
    return kraus, {"gamma": gamma, "N": N}, {}


# ---------------------------------------------------------------------------
# Physical noise catalog
# ---------------------------------------------------------------------------

def _depolarizing_kraus(w0, wi) -> np.ndarray:
    return _weighted(_PAULIS, _table(w0, wi, wi, wi))


def _dephasing_kraus(p) -> np.ndarray:
    # identity-weight first: M0 = sqrt(1-p) I, M1 = sqrt(p) sigma_3
    return _weighted(_PAULIS[::3], _table(1.0 - p, p))


def _adc_kraus(p) -> np.ndarray:
    return _kraus([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], [[0.0, np.sqrt(p)], [0.0, 0.0]])


def _adc_nm_probability(R, gamma, omega0, g, t):
    """Non-Markovian amplitude-damping law
    1 - exp(-2 R gamma / (omega0 coth(g omega0 t / 2) + 1)); p(0) = 0."""
    coth = 1.0 / np.tanh(g * omega0 * t / 2.0)  # inf at t = 0
    return 1.0 - np.exp(-2.0 * R * gamma / (omega0 * coth + 1.0))


def rtn_probability(g, omega, t):
    """Random-telegraph-noise mixing law e^{-g t}(cos(g w t) + sin(g w t)/w)."""
    theta = g * omega * t
    return np.exp(-g * t) * (np.cos(theta) + np.sin(theta) / omega)


def _register_time_law(family_id: str, params: tuple[ParamSpec, ...], doc: str,
                       kraus: Callable, law: Callable, unital: bool,
                       overflows: Callable | None = None) -> None:
    """Declare a two-operator noise row whose mixing probability follows a
    time law: the channel is kraus(p) with p = law(**params) clamped to
    [0, 1], and it records its params in spec order, then p. `overflows`
    masks the rows where the law, written with Python floats, raises
    OverflowError (float ** does; numpy returns inf instead)."""
    def build(**values):
        p = law(**values)
        errors = _row_errors(~((-_P_CLAMP <= p) & (p <= 1.0 + _P_CLAMP)),
                             f"{family_id}: derived p(t) = {{!r}} lies outside [0, 1]; "
                             "the parameter regime is unphysical", p)
        if overflows is not None:
            errors.update(_row_errors(overflows(**values), f"{family_id}: derived p(t) "
                                      "overflows; the parameter regime is unphysical"))
        p = np.clip(p, 0.0, 1.0)
        return kraus(p), {**{s.name: values[s.name] for s in params}, "p": p}, errors

    _family(family_id, params, doc, unital=unital, rank=2)(build)


# Sampling ranges keep every rank-2 draw's second Choi eigenvalue >= 1e-6 x the
# first, far above linalg.RANK_TOL, so no draw can round to Choi rank 1.
_TIME = ParamSpec("t", 0.0, None, sample_low=0.1, sample_high=2.0)


@_family("depolarizing_m", (ParamSpec("p", 0.0, 1.0),),
         "Markovian depolarizing {sqrt(1-p) I, sqrt(p/3) sigma_i}; Bell output is "
         "a Werner state, UQT iff p < 1/2",
         unital=True, sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))})
def _depolarizing_m(p: float):
    return _depolarizing_kraus(1.0 - p, p / 3.0), {"p": p}, {}


@_family("dephasing_m", (ParamSpec("p", 0.0, 1.0),),
         "Markovian dephasing {sqrt(1-p) I, sqrt(p) sigma_3}",
         unital=True, rank=2, sampler=lambda rng: {"p": float(rng.uniform(0.01, 0.99))})
def _dephasing_m(p: float):
    return _dephasing_kraus(p), {"p": p}, {}


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
    return _kraus([[np.cos(r), 0.0], [0.0, 1.0]], [[0.0, 0.0], [np.sin(r), 0.0]]), {"r": r}, {}


def _sample_depolarizing_nm(rng: np.random.Generator) -> dict:
    alpha = float(rng.uniform(0.05, 1.0))
    p_hi = min(0.5, 1.0 / (3.0 * alpha))
    return {"alpha": alpha, "p": float(rng.uniform(0.0, p_hi * (1.0 - 1e-3)))}


@_family("depolarizing_nm",
         (ParamSpec("alpha", 0.0, 1.0, low_open=True), ParamSpec("p", 0.0, 0.5)),
         "non-Markovian depolarizing; needs 3 alpha p <= 1; UQT for small p",
         unital=True, sampler=_sample_depolarizing_nm)
def _depolarizing_nm(alpha: float, p: float):
    errors = _row_errors(3.0 * alpha * p > 1.0 + 1e-12,
                         "need 3 alpha p <= 1 for a CPTP map (identity weight stays "
                         "non-negative); got alpha={!r}, p={!r}", alpha, p)
    w0 = np.maximum((1.0 - 3.0 * alpha * p) * (1.0 - p), 0.0)
    wi = (1.0 + 3.0 * alpha * (1.0 - p)) * p / 3.0
    return _depolarizing_kraus(w0, wi), {"alpha": alpha, "p": p}, errors


@_family("dephasing_nm",
         (ParamSpec("alpha", 0.0, 1.0, low_open=True), ParamSpec("p", 0.0, 0.5)),
         "non-Markovian dephasing, weights (1-alpha p)(1-p) and p(1+alpha(1-p))",
         unital=True, rank=2,
         sampler=lambda rng: {"alpha": float(rng.uniform(0.05, 1.0)),
                              "p": float(rng.uniform(0.01, 0.49))})
def _dephasing_nm(alpha: float, p: float):
    w0 = (1.0 - alpha * p) * (1.0 - p)
    w3 = p * (1.0 + alpha * (1.0 - p))
    return _weighted(_PAULIS[::3], _table(w0, w3)), {"alpha": alpha, "p": p}, {}


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
    lambda G, g, t: np.exp(-G * t * (g * t + 2.0) / (2.0 * (g * t + 1.0) ** 2)), unital=True,
    overflows=lambda G, g, t: np.isfinite(g * t + 1.0) & np.isinf((g * t + 1.0) ** 2))
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



@dataclass(frozen=True)
class Block:
    """`checked_rows` of N rows of one family.

    kraus: the rows' raw Kraus operators, one read-only (N, k, 2, 2) stack,
    with a zero operator where a row's Kraus list omits one and all zeros
    for a failed row; params: the params to record, name -> (N,) floats,
    NaN for a failed row; errors: per row None, or its ValueError without a
    traceback (which would tie the frame that made it, and with it the
    block, into a reference cycle)."""

    kraus: np.ndarray
    params: dict
    errors: list


def checked_rows(family_id: str, columns: dict) -> Block:
    """Check and build N rows of one family as one block.

    `columns` maps each param name (or alias) to the sequence of its N row
    values, in key order; a family without params has one row. The names are
    resolved once per call, and a name error is every row's error. Each
    value becomes a float by channels.json_number, or a ValueError naming
    the param. The ParamSpec range checks run as masks over the block, and
    the builder is called once, on the rows that pass them; a Choi-defined
    family's rows share one kraus_from_choi. A row's error is the first
    check it fails, in that order (of its values the first that fails, in
    key order), with the text checked_build raises; only failing rows get a
    text. Columns of unequal length are a ValueError."""
    fam = get_family(family_id)
    specs = fam.params
    lengths = {len(col) for col in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"{family_id}: param columns differ in length, got {sorted(lengths)}")
    n = lengths.pop() if lengths else 1
    values = np.full((n, len(specs)), math.nan)  # in spec order; NaN where a value fails
    try:
        names = resolve_complete(family_id, columns)
        errors: list = [None] * n
    except ValueError as exc:
        names, errors = [], [ValueError(*exc.args) for _ in range(n)]
    places = {spec.name: j for j, spec in enumerate(specs)}
    for name, col in zip(names, columns.values()):
        nums = []
        for i, v in enumerate(col):
            try:
                nums.append(v if type(v) is float else channels.json_number(v))
            except (TypeError, OverflowError) as exc:  # OverflowError: an int beyond the float range
                nums.append(math.nan)
                if errors[i] is None:
                    rule = "a real number" if isinstance(exc, TypeError) else "finite"
                    errors[i] = ValueError(f"{family_id}: {name} must be {rule}, got {v!r}")
        values[:, places[name]] = nums
    lo, hi = fam.bounds
    rejected = ~((values >= lo) & (values <= hi))
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(rejected))):  # row by row, spec order
        if errors[i] is None:  # the first spec a row breaks names its error
            errors[i] = ValueError(specs[j].error(float(values[i, j]), family_id))
    ok = [i for i, err in enumerate(errors) if err is None]
    with np.errstate(all="ignore"):  # a row that breaks a joint constraint may compute NaN
        ops, recorded, row_errors = fam.build(
            **{spec.name: values[ok, j] for j, spec in enumerate(specs)})
    for r, err in row_errors.items():
        errors[ok[r]] = err
    kept = [r for r in range(len(ok)) if r not in row_errors]  # the build's rows without error
    ops = ops[kept]
    if fam.choi:  # the checks above leave every Choi matrix finite and Hermitian
        ops = channels.kraus_from_choi(ops, fam.expected_rank)
    built = [ok[r] for r in kept]
    kraus = np.zeros((n,) + ops.shape[1:], dtype=complex)
    kraus[built] = ops
    params = {}
    for name, col in recorded.items():
        params[name] = np.full(n, math.nan)
        params[name][built] = col[kept]
    kraus.setflags(write=False)
    return Block(kraus=kraus, params=params, errors=errors)


def checked_build(family_id: str, **params) -> tuple[np.ndarray, dict]:
    """The one-row view of checked_rows: a catalog family's raw Kraus
    operators, the row's own list (a Pauli mixture omits its zero-weight
    operators), and its params to record, not yet validated; raises its error."""
    block = checked_rows(family_id, {key: [value] for key, value in params.items()})
    if block.errors[0] is not None:
        raise block.errors.pop()  # popped: this frame keeps no reference to the error
    kraus = block.kraus[0]
    if get_family(family_id).sparse:
        kraus = kraus[kraus.any(axis=(1, 2))]
    return kraus, {name: float(col[0]) for name, col in block.params.items()}


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
