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

    def __repr__(self):  # params may hold arrays; keep repr short
        return f"QubitChannel(name={self.name!r}, kraus={len(self.kraus)}, params={self.params!r})"


def _kraus_array(kraus_list) -> np.ndarray:
    """The operators as one complex array of shape (k, 2, 2), checked finite."""
    try:
        ops = np.asarray(kraus_list, dtype=complex)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise ChannelValidationError(f"Kraus operators are not 2x2 matrices: {exc}") from exc
    if ops.shape != (0,) and (ops.ndim != 3 or ops.shape[1:] != (2, 2)):
        raise ChannelValidationError(f"Kraus operators have shape {ops.shape}, expected (k, 2, 2)")
    if not np.isfinite(ops).all():
        raise ChannelValidationError("Kraus operator has non-finite entries")
    if not 1 <= len(ops) <= MAX_KRAUS:
        raise ChannelValidationError(f"expected 1..{MAX_KRAUS} Kraus operators, got {len(ops)}")
    return ops


def completeness_sum(kraus) -> np.ndarray:
    """S = sum_i K_i^dag K_i of a Kraus stack (k, 2, 2), or of each member of
    (..., k, 2, 2); S = I for a channel."""
    ks = np.asarray(kraus, dtype=complex)
    return (dagger(ks) @ ks).sum(axis=-3)


def completeness_residual(kraus) -> float | np.ndarray:
    """||S - I||_max of a Kraus stack, or of each member of a stack of them."""
    return np.abs(completeness_sum(kraus) - I2).max(axis=(-2, -1))


def unitality_residual(kraus) -> float | np.ndarray:
    """||sum_i K_i K_i^dag - I||_max of a Kraus stack, or of each member of a
    stack of them."""
    ks = np.asarray(kraus, dtype=complex)
    return np.abs((ks @ dagger(ks)).sum(axis=-3) - I2).max(axis=(-2, -1))


_PHI1 = np.outer(states.BELL_KETS[0], states.BELL_KETS[0].conj())
_PHI1.setflags(write=False)


def bob_action(rho: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """sum_i (I x K_i) rho (I x K_i)^dag as one contraction over the
    (2,2,2,2) reshape of rho and the (k,2,2) Kraus stack; rho (..., 4, 4)
    and ks (..., k, 2, 2) broadcast against each other."""
    out = np.einsum("...kbe,...aecf,...kdf->...abcd", ks,
                    rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)), ks.conj())
    return out.reshape(out.shape[:-4] + (4, 4))


def choi_matrix(kraus) -> np.ndarray:
    """Trace-1 Choi matrix sum_i (I x K_i) |Phi_1><Phi_1| (I x K_i)^dag of a
    Kraus stack, or of each member of a stack of them."""
    return bob_action(_PHI1, np.asarray(kraus, dtype=complex))


def validate_stack(kraus_lists) -> tuple[np.ndarray, list]:
    """Check N Kraus lists as `validate` checks one, with one completeness
    reduction, one Choi contraction and one hermitian_eig for all of them.

    Returns the read-only (N, k, 2, 2) stack of the operators, each list
    padded with zero operators to the longest well-formed list's k (a zero
    operator changes neither completeness nor the Choi matrix; a malformed
    member is all zeros), and per member its Choi rank or the
    ChannelValidationError that `validate` raises for it.
    """
    outcomes: list = []
    ops = []
    for kraus in kraus_lists:
        try:
            ops.append(_kraus_array(kraus))
            outcomes.append(None)
        except ChannelValidationError as exc:
            # a copy without the traceback, which would tie this frame, and
            # with it the whole stack, into a reference cycle with outcomes
            ops.append(None)
            outcomes.append(ChannelValidationError(str(exc)))
    stack = np.zeros((len(ops), max((len(k) for k in ops if k is not None), default=1), 2, 2),
                     dtype=complex)
    for i, k in enumerate(ops):
        if k is not None:
            stack[i, :len(k)] = k
    stack.setflags(write=False)
    for i, res in enumerate(completeness_residual(stack).tolist()):
        if outcomes[i] is None and res > EPS_COMPLETE:
            outcomes[i] = ChannelValidationError(
                f"completeness violated: ||sum K^dag K - I||_max = {res:.3e}", residual=res)
    live = [i for i, out in enumerate(outcomes) if out is None]
    # completeness bounds every Kraus entry by about 1, so each Choi matrix is
    # finite and Hermitian to rounding and hermitian_eig rejects none of them
    dens = states.density_stack(choi_matrix(stack[live]))
    for i, rank, err in zip(live, dens.eig.rank().tolist(), dens.errors):
        outcomes[i] = rank if err is None else \
            ChannelValidationError(f"Choi matrix rejected: {err}")
    return stack, outcomes


def validate(kraus_list, name: str = "channel", params: dict | None = None) -> QubitChannel:
    """Accept Kraus operators (a list of 2x2 matrices or a (k, 2, 2) array)
    as a channel, or raise ChannelValidationError: the one-member view of
    `validate_stack`.

    Up to 8 operators are accepted (over-complete input is fine);
    orthogonalize() reduces any channel to its minimal set.
    """
    stack, outcomes = validate_stack([kraus_list])
    if isinstance(outcomes[0], ChannelValidationError):
        raise outcomes.pop()  # popped: this frame keeps no reference to the error
    return QubitChannel(kraus=stack[0], name=name, params=dict(params or {}),
                        choi_rank=outcomes[0])


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
    unitality = float(unitality_residual(ch.kraus))
    return ChannelReport(
        unital=bool(unitality <= EPS_CPTP),
        choi_rank=ch.choi_rank,
        unitality_residual=unitality,
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
    m = wm.shape[0]
    if m < len(ch.kraus):
        raise ValueError(f"mixing matrix dim {m} smaller than Kraus count {len(ch.kraus)}")
    if np.max(np.abs(wm.conj().T @ wm - np.eye(m))) > 1e-10:
        raise ValueError("mixing matrix is not unitary")
    mixed = np.einsum("ij,jab->iab", wm[:, :len(ch.kraus)], ch.kraus)
    return validate(mixed, name=ch.name, params=ch.params)


def kraus_from_eigenpairs(eigenvalues, eigenvectors, rank: int) -> np.ndarray:
    """Kraus operators, shape (rank, 2, 2), from the leading `rank` eigenpairs
    of a trace-1 Choi matrix (eigenvalues descending, eigenvectors as columns).

    Each pair (q, chi) with chi = sum_mn a_mn |mn> contributes the operator
    sqrt(2 max(q, 0)) * [a_mn]^T; the operators are mutually orthogonal with
    Tr(K_i^dag K_j) = 2 q_i delta_ij.
    """
    q = np.clip(np.asarray(eigenvalues, dtype=float)[:rank], 0.0, None)
    amps = np.asarray(eigenvectors)[:, :rank].T.reshape(rank, 2, 2)
    return np.sqrt(2.0 * q)[:, None, None] * amps.transpose(0, 2, 1)


def kraus_from_choi(choi_rho, rank: int | None = None) -> np.ndarray:
    """Rebuild Kraus operators, shape (rank, 2, 2), from a trace-1 Choi
    matrix by kraus_from_eigenpairs on its decomposition; rank defaults to
    the Choi rank (at least one operator is returned)."""
    dec = linalg.hermitian_eig(choi_rho)
    if rank is None:
        rank = dec.rank()
    return kraus_from_eigenpairs(dec.eigenvalues, dec.eigenvectors, max(rank, 1))


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


def channel_from_jsonable(doc: dict) -> QubitChannel:
    try:
        name = str(doc.get("name", "channel"))
        params = {str(k): float(v) for k, v in dict(doc.get("params", {})).items()}
        kraus = []
        for entry in doc["kraus"]:
            flat = [complex(re, im) for re, im in entry]
            if len(flat) != 4:
                raise ValueError(f"Kraus entry must have 4 complex values, got {len(flat)}")
            kraus.append(np.array(flat, dtype=complex).reshape(2, 2))
    except (KeyError, TypeError, ValueError) as exc:
        raise ChannelValidationError(f"malformed channel document: {exc}") from exc
    return validate(kraus, name=name, params=params)


def channel_from_json(text: str) -> QubitChannel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelValidationError(f"invalid JSON: {exc}") from exc
    return channel_from_jsonable(doc)
