"""Qubit channels as Kraus operator stacks: validation, application, Choi state.

A channel holds its Kraus operators as one read-only complex array of shape
(k, 2, 2), and every operation acts on that stack as a whole. A channel is
accepted iff its 1..8 Kraus operators are finite, satisfy the completeness
condition S = sum_i K_i^dag K_i = I and its Choi state is positive
semidefinite. The Choi state here is the normalized (trace-1) two-qubit
state obtained by sending the second half of the first Bell state through
the channel; with that convention a trace-preserving channel always has
Alice marginal I/2, and a unital channel additionally has Bob marginal I/2.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linalg, states
from .linalg import I2, dagger
from .states import TwoQubitState

#: residual tolerance for unitality (Choi positivity uses states.PSD_TOL)
EPS_CPTP = 1e-9
#: completeness tolerance: half the trace tolerance, so that the Choi matrix
#: of every accepted Kraus list passes from_density's trace check
EPS_COMPLETE = states.TRACE_TOL / 2.0
MAX_KRAUS = 8


class ChannelValidationError(ValueError):
    """Raised when a Kraus list does not describe a CPTP qubit channel."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class QubitChannel:
    """Validated qubit channel. Construct via validate(), which also sets the
    Choi rank; derive re-labelled copies with dataclasses.replace."""

    kraus: np.ndarray  # (k, 2, 2) complex, read-only
    name: str = "channel"
    params: dict = field(default_factory=dict)
    choi_rank: int = field(kw_only=True)  # not the Choi state: callers may hold many channels
    unitality_residual: float = field(kw_only=True)  # ||sum K K^dag - I||_max

    def __repr__(self):  # params may hold arrays; keep repr short
        return f"QubitChannel(name={self.name!r}, kraus={len(self.kraus)}, params={self.params!r})"


def _kraus_array(kraus_list) -> np.ndarray:
    """The operators as one C-ordered complex (k, 2, 2) array, whatever the
    input's layout; validate_stack checks them finite."""
    try:
        ops = np.ascontiguousarray(kraus_list, dtype=complex)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise ChannelValidationError(f"Kraus operators are not 2x2 matrices: {exc}") from exc
    if ops.shape != (0,) and (ops.ndim != 3 or ops.shape[1:] != (2, 2)):
        raise ChannelValidationError(f"Kraus operators have shape {ops.shape}, expected (k, 2, 2)")
    if not 1 <= len(ops) <= MAX_KRAUS:
        raise ChannelValidationError(f"expected 1..{MAX_KRAUS} Kraus operators, got {len(ops)}")
    return ops


def bob_action(rho: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """sum_i (I x K_i) rho (I x K_i)^dag, rho (..., 4, 4) and ks (..., k, 2, 2)
    broadcast, by the Liouville matrix S = sum_i K_i x K_i*, its products summed
    over i in order on a C-ordered copy of ks: one product of rho reshuffled to
    [(a c), (b d)] with S^T[(b d), (b' d')], reshuffled back. Each member gets the bits
    of its own call; on a Bell state, those of (I x K_i) rho (I x K_i)^dag summed over i."""
    v = np.ascontiguousarray(ks).reshape(ks.shape[:-2] + (4,))
    m = (v[..., :, None] * v.conj()[..., None, :]).sum(axis=-3)  # [(b' b), (d' d)]
    s_t = m.reshape(m.shape[:-2] + (2,) * 4).swapaxes(-4, -3).swapaxes(-3, -1).swapaxes(-2, -1) \
        .reshape(m.shape)  # [(b d), (b' d')]
    out = rho.reshape(rho.shape[:-2] + (2,) * 4).swapaxes(-3, -2).reshape(rho.shape) @ s_t
    return out.reshape(out.shape[:-2] + (2,) * 4).swapaxes(-3, -2).reshape(out.shape)


def choi_matrix(kraus) -> np.ndarray:
    """Trace-1 Choi matrix sum_i (I x K_i) |Phi_1><Phi_1| (I x K_i)^dag of a
    Kraus stack, or of each member of a stack of them, as the Gram product
    J = 1/2 sum_i v_i v_i^dag of v_i = vec(K_i^T) = sqrt(2) (I x K_i)|Phi_1>.
    One 2-operand einsum, not @, so that a member alone gets the same bits
    as inside a stack."""
    ks = np.asarray(kraus, dtype=complex)
    v = ks.swapaxes(-1, -2).reshape(ks.shape[:-2] + (4,))
    return 0.5 * np.einsum("...ka,...kb->...ab", v, v.conj())


#: s_j with sigma_j^T = s_j sigma_j (sigma_0 = I)
_TRANSPOSE_SIGNS = np.array([1.0, 1.0, -1.0, 1.0])


def final_correlations(rho: np.ndarray, choi_coef: np.ndarray) -> np.ndarray:
    """Correlation matrices (N, 3, 3) of the states (I x Phi)(rho), for the Pauli
    coefficients (N, 4, 4) of the trace-1 Choi matrices J of channels Phi and
    rho one density matrix or N: Phi's Pauli transfer matrix A_ij = Tr(sigma_i
    Phi(sigma_j))/2 = s_j Tr((sigma_j x sigma_i) J) maps rho's Pauli
    coefficients C to C' = C A^T, and T' is C'[1:, 1:] over the final trace C'[0, 0]."""
    final = (states.pauli_coefficients(rho) * _TRANSPOSE_SIGNS) @ choi_coef
    return final[:, 1:, 1:] / final[:, :1, :1]


def validate_stack(kraus: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, list, list, list, np.ndarray]:
    """Check a ready (N, k, 2, 2) Kraus stack, each member as `validate`
    checks one, with one Choi contraction and one hermitian_eigenvalues for
    all of them; completeness and unitality are read off the marginals of the
    trace-1 Choi matrix J, 2 Tr_B J = (sum K^dag K)^T and 2 Tr_A J = sum K K^dag.

    Returns the read-only stack, a non-finite member zeroed (a zero
    operator changes neither completeness nor the Choi matrix); the
    members' trace-1 Choi matrices (N, 4, 4) as from_density stores them,
    zero for a member rejected before that, and their ranks; per member the
    error text `validate` raises, or None, and the residual that error
    carries, None but for a completeness failure (NaN on overflow); and per
    member of the returned stack its unitality residual ||sum K K^dag - I||_max.
    """
    if not isinstance(kraus, np.ndarray) or kraus.ndim != 4 or kraus.shape[2:] != (2, 2) \
            or not 1 <= kraus.shape[1] <= MAX_KRAUS:
        raise ChannelValidationError(f"expected an (N, k, 2, 2) Kraus stack, k in 1..{MAX_KRAUS}")
    finite = np.isfinite(kraus).all(axis=(1, 2, 3))
    stack = np.where(finite[:, None, None, None], kraus, 0.0).astype(complex, copy=False)
    stack.setflags(write=False)
    errors = [None if ok else "Kraus operator has non-finite entries" for ok in finite.tolist()]
    # finite entries may still overflow: their residuals read NaN and fail below
    with np.errstate(over="ignore", invalid="ignore"):
        j = choi_matrix(stack)
        m = j.reshape(-1, 2, 2, 2, 2)  # [n, a, b, c, d]: Alice a, c and Bob b, d
        complete = np.abs(2.0 * (m[:, :, 0, :, 0] + m[:, :, 1, :, 1]) - I2).max(axis=(1, 2))
        unitality = np.abs(2.0 * (m[:, 0, :, 0] + m[:, 1, :, 1]) - I2).max(axis=(1, 2))
    incomplete = finite & ~(complete <= EPS_COMPLETE)
    residuals = [res if bad else None for res, bad in zip(complete.tolist(), incomplete.tolist())]
    for i in np.flatnonzero(incomplete).tolist():
        errors[i] = f"completeness violated: ||sum K^dag K - I||_max = {residuals[i]:.3e}"
    live = [i for i, err in enumerate(errors) if err is None]
    # completeness bounds every Kraus entry by about 1, so each Choi matrix is
    # finite and Hermitian to rounding: the eigensolver's gate rejects none
    dens = states.density_stack(j[live])
    for i, err in zip(live, dens.errors):
        errors[i] = None if err is None else f"Choi matrix rejected: {err}"
    choi = np.zeros((len(stack), 4, 4), dtype=complex)  # zero for members rejected before
    choi[live] = dens.rho
    ranks = np.zeros(len(stack), dtype=int)
    ranks[live] = linalg.rank(dens.eigenvalues)
    return stack, choi, ranks.tolist(), errors, residuals, unitality


def validate(kraus_list, name: str = "channel", params: dict | None = None) -> QubitChannel:
    """Accept Kraus operators (a list of 2x2 matrices or a (k, 2, 2) array)
    as a channel, or raise ChannelValidationError: the one place that parses
    a Kraus list, then the one-member view of `validate_stack`.

    Up to 8 operators are accepted (over-complete input is fine);
    orthogonalize() reduces any channel to its minimal set.
    """
    stack, _, ranks, errors, residuals, unitality = validate_stack(_kraus_array(kraus_list)[None])
    if errors[0] is not None:
        raise ChannelValidationError(errors[0], residual=residuals[0])
    return QubitChannel(kraus=stack[0], name=name, params=dict(params or {}),
                        choi_rank=ranks[0], unitality_residual=float(unitality[0]))


def apply(ch: QubitChannel, x) -> np.ndarray:
    """Apply the channel to a single-qubit operator: sum_i K_i x K_i^dag."""
    return (ch.kraus @ np.asarray(x, dtype=complex) @ dagger(ch.kraus)).sum(axis=0)


def apply_to_bob(state: TwoQubitState, ch: QubitChannel) -> TwoQubitState:
    """Send the second qubit (Bob's half) through the channel."""
    return states.from_density(bob_action(state.rho, ch.kraus))


def choi(ch: QubitChannel) -> TwoQubitState:
    """Choi state of the channel (trace-1 convention)."""
    return states.from_density(choi_matrix(ch.kraus))


@dataclass(frozen=True)
class ChannelReport:
    unital: bool
    choi_rank: int
    unitality_residual: float
    channel: QubitChannel

    @property
    def choi(self) -> TwoQubitState:
        """Choi state of the channel, built when read (sweeps never read it)."""
        return choi(self.channel)


def report(ch: QubitChannel) -> ChannelReport:
    return ChannelReport(
        unital=bool(ch.unitality_residual <= EPS_CPTP),
        choi_rank=ch.choi_rank,
        unitality_residual=ch.unitality_residual,
        channel=ch,
    )


def rotate_kraus(ch: QubitChannel, w) -> QubitChannel:
    """Mix the Kraus list by a unitary: K~_i = sum_j W_ij K_j.

    If w is larger than the Kraus list, the list counts as padded with zero
    operators, so only the first k columns of w act. The rotated list
    represents the same map.
    """
    wm = np.asarray(w, dtype=complex)
    if wm.ndim != 2 or wm.shape[0] != wm.shape[1]:
        raise ValueError(f"mixing matrix must be square, got shape {wm.shape}")
    if not np.isfinite(wm).all():
        raise ValueError("mixing matrix has non-finite entries")
    m = wm.shape[0]
    if m < len(ch.kraus):
        raise ValueError(f"mixing matrix dim {m} smaller than Kraus count {len(ch.kraus)}")
    if np.max(np.abs(wm.conj().T @ wm - np.eye(m))) > 1e-10:
        raise ValueError("mixing matrix is not unitary")
    mixed = np.einsum("ij,jab->iab", wm[:, :len(ch.kraus)], ch.kraus)
    return validate(mixed, name=ch.name, params=ch.params)


def kraus_from_choi(choi_rho, rank: int | None = None) -> np.ndarray:
    """Rebuild Kraus operators, shape (..., rank, 2, 2), from the leading
    `rank` eigenpairs of a trace-1 Choi matrix or stack (..., 4, 4), by one
    hermitian_eig; rank defaults to the Choi rank of one matrix, at least 1
    (a stack needs it).

    The eigenvectors are first put in the basis of
    `linalg.canonical_eigenvectors`, so the operators depend on the Choi
    matrix alone. Each pair (q, chi) with chi = sum_mn a_mn |mn> contributes
    the operator sqrt(2 max(q, 0)) * [a_mn]^T; the operators are mutually
    orthogonal with Tr(K_i^dag K_j) = 2 q_i delta_ij.
    """
    dec = linalg.hermitian_eig(choi_rho)
    rank = max(linalg.rank(dec.eigenvalues) if rank is None else rank, 1)
    q = np.clip(dec.eigenvalues[..., :rank], 0.0, None)
    vecs = linalg.canonical_eigenvectors(dec.eigenvalues, dec.eigenvectors)
    amps = vecs[..., :rank].swapaxes(-1, -2).reshape(vecs.shape[:-2] + (rank, 2, 2))
    return np.sqrt(2.0 * q)[..., None, None] * amps.swapaxes(-1, -2)


def isometry_kraus(g) -> np.ndarray:
    """Kraus operators (..., r, 2, 2) of random channels from complex
    Gaussian draws g (..., 2r, 2), r in 1..MAX_KRAUS: the 2x2 blocks of the
    isometry Q of the QR decomposition of each draw, so sum K^dag K = Q^dag Q
    = I; for r <= 4 the Choi rank is r with probability 1. One np.linalg.qr
    for the stack, and each member gets the bits of its one-member call."""
    g = np.asarray(g)
    rank = g.shape[-2] // 2 if g.ndim >= 2 else 0
    if g.shape[-2:] != (2 * rank, 2) or not 1 <= rank <= MAX_KRAUS:
        raise ValueError(f"Gaussian draws have shape {g.shape}, expected (..., 2r, 2) "
                         f"with rank r in 1..{MAX_KRAUS}")
    q, _ = np.linalg.qr(g)
    return q.reshape(g.shape[:-2] + (rank, 2, 2))


def random_kraus(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Kraus operators, shape (rank, 2, 2), of a random channel: the
    one-member view of `isometry_kraus` on a complex Gaussian (2 rank, 2)
    draw, its real part drawn first. A rank that is no integer in
    1..MAX_KRAUS is a ValueError before any draw."""
    if isinstance(rank, bool) or not isinstance(rank, numbers.Integral) \
            or not 1 <= rank <= MAX_KRAUS:
        raise ValueError(f"rank must be an integer in 1..{MAX_KRAUS}, got {rank!r}")
    g = rng.normal(size=(2, 2 * int(rank), 2))
    return isometry_kraus(g[0] + 1j * g[1])


def isometry_stack(draws) -> np.ndarray:
    """The Kraus operators of N `random_kraus` draws, given by their real
    Gaussians (2, 2r, 2), as one (N, k, 2, 2) stack, each padded with zero
    operators to the largest rank k: one isometry_kraus call per rank."""
    ranks = [len(g[0]) // 2 for g in draws]
    kraus = np.zeros((len(draws), max(ranks, default=1), 2, 2), dtype=complex)
    for rank in sorted(set(ranks)):
        at = [i for i, r in enumerate(ranks) if r == rank]
        g = np.array([draws[i] for i in at])
        kraus[at, :rank] = isometry_kraus(g[:, 0] + 1j * g[:, 1])
    return kraus


def orthogonalize(ch: QubitChannel) -> QubitChannel:
    """Minimal orthogonal Kraus representation (size = Choi rank)."""
    ops = kraus_from_choi(choi_matrix(ch.kraus), rank=ch.choi_rank)
    return validate(ops, name=ch.name, params=ch.params)


# ---------------------------------------------------------------------------
# Channel-definition JSON document
# ---------------------------------------------------------------------------

def channel_to_jsonable(ch: QubitChannel) -> dict:
    kraus = [[[float(z.real), float(z.imag)] for z in k.reshape(4)] for k in ch.kraus]
    return {"name": ch.name, "kraus": kraus, "params": {k: float(v) for k, v in ch.params.items()}}


def channel_to_json(ch: QubitChannel) -> str:
    return json.dumps(channel_to_jsonable(ch), indent=2)


def json_number(value) -> float:
    """A number of a JSON document as a float; TypeError for a bool, a
    numeric string or any other value that is not a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def channel_from_jsonable(doc: dict) -> QubitChannel:
    """The channel of a JSON object {"name", "kraus", "params"} with a string
    name, an object of finite params and numbers in the Kraus entries;
    ChannelValidationError for any other JSON document."""
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        name, params = doc.get("name", "channel"), doc.get("params", {})
        if not isinstance(name, str) or not isinstance(params, dict):
            raise TypeError(f"name must be a string and params an object: {name!r}, {params!r}")
        params = {str(k): json_number(v) for k, v in params.items()}
        if not all(np.isfinite(v) for v in params.values()):
            raise ValueError(f"params must be finite, got {params}")
        kraus = []
        for entry in doc["kraus"]:
            flat = [complex(json_number(re), json_number(im)) for re, im in entry]
            if len(flat) != 4:
                raise ValueError(f"Kraus entry must have 4 complex values, got {len(flat)}")
            kraus.append(np.array(flat, dtype=complex).reshape(2, 2))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ChannelValidationError(f"malformed channel document: {exc}") from exc
    return validate(kraus, name=name, params=params)


def channel_from_json(text: str) -> QubitChannel:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ChannelValidationError(f"invalid JSON: {exc}") from exc
    return channel_from_jsonable(doc)
