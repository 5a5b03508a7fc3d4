"""Batch experiment driver: parameter sweeps, threshold bisection, randomized
search for UQT-producing non-unital channels, and report emission.

Grid rows and search samples are independent; results are assembled in
deterministic (lexicographic / sample-index) order, and sample i of a search
draws from its own Philox stream keyed on the pair (seed mod 2**64, i), so
reports are reproducible byte for byte for a given spec and seed and
different seeds give independent streams. A sweep validates, applies and
classifies SWEEP_BLOCK consecutive grid rows as one stack, and the search
projects the random candidates of SEARCH_BLOCK consecutive samples as one
stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channels, families, linalg, oracle, states
from .channels import ChannelValidationError, QubitChannel
from .families import FamilySpec
from .states import TeleportProfile, TwoQubitState

ORACLE_TOL = 1e-6
ORACLE_EVERY = 50
MAX_GRID_ROWS = 10**6
#: grid rows of a sweep validated, applied and classified together; a
#: constant, so the stacks, and the memory, stay the same size for any grid
SWEEP_BLOCK = 1024

PREDICATES = ("useful", "universal", "uqt")

#: CSV value columns emitted after the parameter columns
CSV_FIELDS = ("f_max", "delta", "det_t", "choi_rank", "unital",
              "useful", "universal", "uqt", "oracle_checked")


class SweepSpecError(ValueError):
    """Structurally invalid sweep or threshold specification."""


def parse_initial(text: str) -> TwoQubitState:
    """Initial-state selector: bell1..bell4 or pure:<a> with 1/2 <= a < 1."""
    text = text.strip()
    try:
        if text.startswith("bell"):
            return states.bell_state(int(text[4:]))
        if text.startswith("pure:"):
            return states.pure_state(float(text.split(":", 1)[1]))
    except ValueError as exc:
        raise SweepSpecError(f"invalid initial state {text!r}: {exc}") from exc
    raise SweepSpecError(f"unknown initial state {text!r}; use bell1..bell4 or pure:<a>")


def _resolve_initial(initial: str, family_id: str) -> str | TwoQubitState:
    """Parse a selector once; "matched" stays a string, because the state
    depends on each point's channel, and is defined for the
    matched-concurrence families only."""
    if initial != "matched":
        return parse_initial(initial)
    if family_id not in families.MATCHED_CONCURRENCE_PARAM:
        raise SweepSpecError(f"initial='matched' is only defined for "
                             f"{families.MATCHED_CONCURRENCE_IDS}, not {family_id!r}")
    return initial


def evaluate_point(family_id: str, params: dict, initial: str | TwoQubitState = "bell1"
                   ) -> tuple[QubitChannel, TwoQubitState, TeleportProfile]:
    """Build the channel, apply it to `initial` (a selector or a built
    state), and profile the final state.

    For the matched-concurrence families the input is |Psi_a> with
    concurrence equal to the channel's concurrence parameter whenever the
    initial selector is "matched" (their natural scenario).
    """
    ch = families.noise_channel(family_id, **params)
    state = _resolve_initial(initial, family_id) if isinstance(initial, str) else initial
    if isinstance(state, str):  # "matched"
        c = ch.params[families.MATCHED_CONCURRENCE_PARAM[family_id]]
        state = states.pure_state_from_concurrence(float(c))
    final = channels.apply_to_bob(state, ch)
    return ch, final, states.profile(final)


def oracle_check(final: TwoQubitState, prof: TeleportProfile,
                 tol: float = ORACLE_TOL) -> tuple[bool, dict]:
    """Compare the closed-form profile against the protocol simulation."""
    canonical, _ = oracle.canonicalize(final)
    mom = oracle.numeric_moments(canonical)
    info = {"mean_f": mom.mean_f, "delta": mom.delta, "tolerance": tol}
    if not prof.formula_valid:
        info["agrees"] = None  # no closed form to compare against
        return True, info
    ok = abs(mom.mean_f - prof.f_max) <= tol and abs(mom.delta - prof.delta) <= tol
    info["agrees"] = ok
    return ok, info


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Axis:
    param: str
    start: float
    stop: float
    step: float

    def count(self) -> int:
        if self.step <= 0.0:
            raise SweepSpecError(f"axis {self.param!r}: step must be > 0")
        if self.start > self.stop:
            raise SweepSpecError(f"axis {self.param!r}: start must be <= stop")
        span = (self.stop - self.start) / self.step + 1e-9
        if not all(math.isfinite(x) for x in (self.start, self.stop, self.step, span)):
            raise SweepSpecError(f"axis {self.param!r}: non-finite start, stop, step or count")
        return math.floor(span) + 1

    def values(self) -> list[float]:
        return [self.start + i * self.step for i in range(self.count())]


@dataclass(frozen=True)
class SweepSpec:
    family: FamilySpec
    axes: tuple[Axis, ...]
    initial: str = "bell1"
    outputs: tuple[str, ...] = CSV_FIELDS

    @staticmethod
    def from_jsonable(doc: dict) -> "SweepSpec":
        try:
            fam = doc["family"]
            spec = FamilySpec(family_id=str(fam["id"]),
                              params={str(k): float(v) for k, v in fam.get("params", {}).items()})
            bad = {k: v for k, v in spec.params.items() if not math.isfinite(v)}
            if bad:
                raise SweepSpecError(f"family params must be finite, got {bad}")
            axes = tuple(Axis(param=str(a["param"]), start=float(a["start"]),
                              stop=float(a["stop"]), step=float(a["step"]))
                         for a in doc["axes"])
            outputs = tuple(doc.get("outputs", CSV_FIELDS))
            bad = set(outputs) - set(CSV_FIELDS)
            if bad:
                raise SweepSpecError(f"unknown output fields {sorted(bad)}")
            return SweepSpec(family=spec, axes=axes,
                             initial=str(doc.get("initial", "bell1")),
                             outputs=outputs)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SweepSpecError):
                raise
            raise SweepSpecError(f"malformed sweep spec: {exc}") from exc


@dataclass(frozen=True)
class SweepResult:
    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    oracle_failures: int


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the profile on every grid point, row order lexicographic.

    Out-of-range grid points produce a row with empty value columns and the
    failure reason in the trailing `error` column; the sweep continues.
    Errors of the spec as a whole (grid size, unknown family, initial state
    or a "matched" input the family does not define) raise SweepSpecError
    before the first row.
    Rows go in blocks of SWEEP_BLOCK: each row's parameters are checked and
    its Kraus operators built one at a time, then the block's channels are
    validated, applied to the initial state and classified as one stack,
    with the row values and error texts of evaluate_point and report.
    Every ORACLE_EVERY-th valid row is re-verified against the protocol
    simulation and flagged in `oracle_checked`.
    """
    total = math.prod(ax.count() for ax in spec.axes)
    if total > MAX_GRID_ROWS:
        raise SweepSpecError(f"grid of {total} rows exceeds the cap of {MAX_GRID_ROWS}")
    family_id = spec.family.family_id
    try:
        families.get_family(family_id)
    except ValueError as exc:
        raise SweepSpecError(str(exc)) from exc
    initial = _resolve_initial(spec.initial, family_id)
    points = itertools.product(*(ax.values() for ax in spec.axes))

    header = tuple(["family"] + [f"param:{ax.param}" for ax in spec.axes]
                   + list(spec.outputs) + ["error"])
    rows: list[tuple] = []
    oracle_failures = 0
    for first in range(0, total, SWEEP_BLOCK):
        block, failures = _sweep_block(spec, initial, first,
                                       list(itertools.islice(points, SWEEP_BLOCK)))
        rows.extend(block)
        oracle_failures += failures
    return SweepResult(header=header, rows=tuple(rows), oracle_failures=oracle_failures)


def _sweep_block(spec: SweepSpec, initial: str | TwoQubitState, first: int,
                 combos: list[tuple]) -> tuple[list[tuple], int]:
    """The rows of grid points first, first + 1, ... (their axis values in
    combos) and the number of their oracle checks that failed."""
    family_id = spec.family.family_id
    errors: list[str | None] = [None] * len(combos)
    built: list = [([], {})] * len(combos)  # a row that fails to build stays empty
    for i, combo in enumerate(combos):
        params = dict(spec.family.params)
        params.update({ax.param: v for ax, v in zip(spec.axes, combo)})
        try:
            built[i] = families.checked_build(family_id, **params)
        except ValueError as exc:  # ChannelValidationError included
            errors[i] = str(exc)
    stack, outcomes = channels.validate_stack([kraus for kraus, _ in built])
    for i, out in enumerate(outcomes):
        if errors[i] is None and isinstance(out, ChannelValidationError):
            errors[i] = str(out)

    accepted = [i for i, err in enumerate(errors) if err is None]
    if isinstance(initial, str):  # "matched": |Psi_a> of each row's concurrence
        param = families.MATCHED_CONCURRENCE_PARAM[family_id]
        rho = states.pure_densities_from_concurrence([built[i][1][param] for i in accepted])
    else:
        rho = initial.rho
    finals = channels.bob_action(rho, stack[accepted])
    dens = states.density_stack(finals)
    verdicts = states.verdicts(states.hs_decompose(dens.rho).t_mat)
    unital = channels.unitality_residual(stack) <= channels.EPS_CPTP

    failures = 0
    cells = {}  # row -> its value columns and empty error
    for m, i in enumerate(accepted):
        if dens.errors[m] is not None:
            errors[i] = dens.errors[m]
            continue
        checked = (first + i) % ORACLE_EVERY == 0
        if checked:
            final = states.from_density(finals[m])
            ok, _ = oracle_check(final, states.profile(final))
            failures += not ok
        valid = bool(verdicts.formula_valid[m])
        values = {
            "f_max": float(verdicts.f_max[m]) if valid else None,
            "delta": float(verdicts.delta[m]) if valid else None,
            "det_t": float(verdicts.det_t[m]), "choi_rank": outcomes[i],
            "unital": bool(unital[i]), "useful": bool(verdicts.useful[m]),
            "universal": bool(verdicts.universal[m]), "uqt": bool(verdicts.uqt[m]),
            "oracle_checked": checked,
        }
        cells[i] = [values[k] for k in spec.outputs] + [""]
    rows = [(family_id, *combo, *cells.get(i, [None] * len(spec.outputs) + [errors[i]]))
            for i, combo in enumerate(combos)]
    return rows, failures


def sweep_to_csv(result: SweepResult) -> str:
    lines = [",".join(result.header)]
    for row in result.rows:
        lines.append(",".join(_fmt(v).replace(",", ";") for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Threshold detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdResult:
    param: str
    critical_value: float
    bracket_width: float
    predicate: str
    low: float
    high: float


def find_threshold(family_id: str, param: str, bracket: tuple[float, float],
                   predicate: str, tol: float = 1e-8, fixed: dict | None = None,
                   initial: str | None = None) -> ThresholdResult:
    """Bisect the predicate flip point of a one-parameter scenario.

    The bracket must be finite and increasing, tol finite and positive, and
    the predicate (one of PREDICATES) must differ at the two bracket
    endpoints. Bisection stops at width tol, or sooner when no float lies
    strictly inside the bracket. For the matched-concurrence families the
    initial state defaults to the matched |Psi_a>; for lambda_tilde_nu swept
    in concurrence, p2 is placed at the midpoint of its useful window when
    that window is non-empty (any valid p2 below threshold leaves the
    predicate false).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise SweepSpecError(f"bracket must be finite and increasing, got [{lo}, {hi}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise SweepSpecError(f"tol must be finite and positive, got {tol!r}")
    if predicate not in PREDICATES:
        raise SweepSpecError(f"predicate must be one of {PREDICATES}, got {predicate!r}")
    fixed = dict(fixed or {})
    if initial is None:
        initial = ("matched" if family_id in families.MATCHED_CONCURRENCE_IDS else "bell1")
    initial = _resolve_initial(initial, family_id)

    def point_params(x: float) -> dict:
        params = dict(fixed)
        name = families.resolve_param(family_id, param)
        params[name] = x
        if family_id == "lambda_tilde_nu" and "p2" not in fixed and name == "p1":
            hi = families.lambda_tilde_p2_max(x)
            lo = 1.0 / (3.0 * x)
            params["p2"] = (lo + hi) / 2.0 if lo < hi else 0.5 * hi
        return params

    def value(x: float) -> bool:
        _, _, prof = evaluate_point(family_id, point_params(x), initial)
        return bool(getattr(prof, predicate))

    v_lo, v_hi = value(lo), value(hi)
    if v_lo == v_hi:
        raise SweepSpecError(
            f"predicate {predicate!r} is {v_lo} at both bracket endpoints "
            f"[{lo}, {hi}]; no threshold to bisect")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        if value(mid) == v_lo:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(param=param, critical_value=(lo + hi) / 2.0,
                           bracket_width=hi - lo, predicate=predicate, low=lo, high=hi)


# ---------------------------------------------------------------------------
# Randomized UQT search
# ---------------------------------------------------------------------------

#: samples of one search drawn, projected and evaluated together; a
#: constant, so the stack, and the memory, stay the same size for any budget
SEARCH_BLOCK = 128
_MAX_ITERS = 200
_HALF_I2 = np.eye(2) / 2.0


def _random_start(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Trace-1 PSD 4x4 matrix of rank `rank` from a complex Gaussian draw."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    x = g @ g.conj().T
    return x / np.trace(x).real


def _project_block(x: np.ndarray, ranks, max_iters: int) -> list:
    """Alternating projections for a (B, 4, 4) stack of starting matrices
    with target Choi ranks `ranks`: the trace-preservation affine set
    Tr_2(X) = I/2, then the PSD cone with the spectrum clipped to the rank.

    Every iteration decomposes the whole stack in one hermitian_eig call,
    and members that have converged leave the stack. Returns, per member,
    the (eigenvalues, eigenvectors) of its last iteration, eigenvalues
    clipped to its rank, or None if it did not converge within max_iters.
    """
    out = [None] * len(x)
    live = np.arange(len(x))
    past_rank = np.arange(4)[None, :] >= np.asarray(ranks)[:, None]
    for _ in range(max_iters):
        if live.size == 0:
            break
        x = x + np.kron((_HALF_I2 - linalg.partial_trace(x, keep=1)) / 2.0, np.eye(2))
        dec = linalg.hermitian_eig(x)
        vals = np.clip(dec.eigenvalues, 0.0, None)
        vals[past_rank] = 0.0
        vecs = dec.eigenvectors
        x = (vecs * vals[:, None, :]) @ linalg.dagger(vecs)
        marg_res = np.max(np.abs(linalg.partial_trace(x, keep=1) - _HALF_I2), axis=(1, 2))
        done = (marg_res <= 1e-10) & (dec.eigenvalues[:, -1] >= -1e-10)
        for j in np.flatnonzero(done):
            out[live[j]] = (vals[j], vecs[j])
        live, x, past_rank = live[~done], x[~done], past_rank[~done]
    return out


def _channel_from_projection(eigenpairs, rank: int) -> QubitChannel | None:
    """The channel whose Choi matrix the projections converged to; None if
    they did not converge (eigenpairs None) or the sample is degenerate or
    effectively unital."""
    if eigenpairs is None:
        return None
    kraus = channels.kraus_from_eigenpairs(*eigenpairs, rank)
    # the projections stop at 1e-10; restore exact trace preservation with
    # the standard right-correction K_i -> K_i S^{-1/2}, S = sum K^dag K
    dec = linalg.hermitian_eig(channels.completeness_sum(kraus))
    if dec.eigenvalues[-1] < 1e-6:
        return None  # degenerate sample, not correctable
    inv_root = (dec.eigenvectors / np.sqrt(dec.eigenvalues)) @ dec.eigenvectors.conj().T
    try:
        ch = channels.validate(kraus @ inv_root, name=f"random_rank{rank}")
    except ChannelValidationError:
        return None
    if channels.unitality_residual(ch.kraus) < 1e-6:
        return None  # effectively unital, not a candidate
    return ch


def random_nonunital_channel(rng: np.random.Generator, rank: int,
                             max_iters: int = _MAX_ITERS) -> QubitChannel | None:
    """Haar-ish random channel with a rank-r Choi state and non-trivial Bob
    marginal, built by alternating projections between the PSD cone (rank
    clipped) and the trace-preservation affine set Tr_2(X) = I/2.

    One candidate of the block projection search_uqt runs; None if the
    projections do not converge or the sample is degenerate or unital."""
    (eigenpairs,) = _project_block(_random_start(rng, rank)[None], [rank], max_iters)
    return _channel_from_projection(eigenpairs, rank)


@dataclass(frozen=True)
class SearchReport:
    concurrence: float
    budget: int
    seed: int
    hits: tuple[dict, ...]
    frontier: tuple[dict, ...]
    conclusive: bool = False  # absence of hits is evidence, not proof

    def to_jsonable(self) -> dict:
        return {
            "concurrence": self.concurrence, "budget": self.budget, "seed": self.seed,
            "hits": list(self.hits), "frontier": list(self.frontier),
            "conclusive": self.conclusive,
            "note": ("hits certify UQT channels for this concurrence; an empty "
                     "hit list is inconclusive evidence of absence"),
        }


def _sample_rng(seed: int, i: int) -> np.random.Generator:
    """Philox stream of search sample i, keyed on the pair (seed mod 2**64, i)
    so that no two (seed, sample) pairs share a stream."""
    return np.random.Generator(np.random.Philox(key=(int(seed) % 2**64) << 64 | int(i)))


def search_uqt(concurrence: float, budget: int, seed: int = 0,
               max_hits: int = 20) -> SearchReport:
    """Sample non-unital channels against |Psi_a> with the given concurrence.

    Candidates mix random rank-3/4 Choi states (with non-trivial Bob
    marginal) and the parametric non-unital families. Deterministic for a
    given seed: sample i draws its kind and arguments from its own Philox
    stream, keyed on (seed mod 2**64, i). Samples go in blocks of
    SEARCH_BLOCK: the random candidates of a block are projected as one
    stack, then the block is evaluated in sample order. Each distinct hit is
    reported once (the deterministic lambda_star_nu candidate recurs).
    """
    if not 0.0 < concurrence < 1.0:
        raise SweepSpecError(f"concurrence must lie in (0, 1), got {concurrence!r}")
    if budget < 1:
        raise SweepSpecError(f"budget must be at least 1, got {budget!r}")
    state = states.pure_state_from_concurrence(concurrence)
    tilde_p2_max = families.lambda_tilde_p2_max(concurrence)
    hits: list[dict] = []
    frontier: list[dict] = []

    def describe(ch: QubitChannel) -> dict:
        prof = states.profile(channels.apply_to_bob(state, ch))
        return {
            "channel": ch.name, "params": {k: float(v) for k, v in ch.params.items()},
            "f_max": prof.f_max, "delta": prof.delta, "uqt": prof.uqt,
        }

    # lambda_star_nu(C) is deterministic: built and profiled once per call
    star = describe(families.lambda_star_nu(concurrence))

    for first in range(0, budget, SEARCH_BLOCK):
        picks = []  # per sample: (rank, start) of a random candidate, or an entry
        for i in range(first, min(first + SEARCH_BLOCK, budget)):
            rng = _sample_rng(seed, i)
            kind = int(rng.integers(0, 4))
            if kind in (0, 1):
                rank = 3 if kind == 0 else 4
                picks.append((rank, _random_start(rng, rank)))
            elif kind == 2:
                p2 = float(rng.uniform(1e-6, tilde_p2_max * (1.0 - 1e-9)))
                picks.append(describe(families.lambda_tilde_nu(concurrence, p2)))
            else:
                picks.append(star)
        randoms = [p for p in picks if isinstance(p, tuple)]
        projected = iter(_project_block(np.array([x for _, x in randoms]),
                                        [r for r, _ in randoms], _MAX_ITERS))
        for entry in picks:
            if isinstance(entry, tuple):
                ch = _channel_from_projection(next(projected), entry[0])
                if ch is None:
                    continue
                entry = describe(ch)
            if entry["uqt"]:
                if len(hits) < max_hits and entry not in hits:
                    hits.append(entry)
            elif entry["f_max"] is not None:  # the closed forms apply
                dominated = any(e["delta"] <= entry["delta"] and e["f_max"] >= entry["f_max"]
                                for e in frontier)
                if not dominated:
                    frontier = [e for e in frontier
                                if not (entry["delta"] <= e["delta"]
                                        and entry["f_max"] >= e["f_max"])]
                    frontier.append(entry)
    frontier.sort(key=lambda e: (e["delta"], -e["f_max"]))
    return SearchReport(concurrence=concurrence, budget=budget, seed=seed,
                        hits=tuple(hits), frontier=tuple(frontier[:10]))


# ---------------------------------------------------------------------------
# Single-channel analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisReport:
    channel: QubitChannel
    unital: bool
    choi_rank: int
    profile: TeleportProfile
    oracle_agrees: bool
    oracle_info: dict

    def to_jsonable(self) -> dict:
        prof = self.profile
        return {
            "channel": {"name": self.channel.name,
                        "params": {k: float(v) for k, v in self.channel.params.items()},
                        "kraus_count": len(self.channel.kraus)},
            "unital": self.unital,
            "choi_rank": self.choi_rank,
            "profile": {
                "f_max": prof.f_max, "delta": prof.delta, "det_t": prof.det_t,
                "abs_t": [float(x) for x in prof.spectrum.abs_t],
                "useful": prof.useful, "universal": prof.universal,
                "uqt": prof.uqt, "formula_valid": prof.formula_valid,
            },
            "oracle": dict(self.oracle_info, agrees=self.oracle_agrees),
        }


def analyze(ch: QubitChannel, initial: str = "bell1") -> AnalysisReport:
    """Full report for one channel: validation facts, final-state profile,
    and the formula-vs-simulation cross check at ORACLE_TOL."""
    state = parse_initial(initial)
    final = channels.apply_to_bob(state, ch)
    prof = states.profile(final)
    rep = channels.report(ch)
    ok, info = oracle_check(final, prof)
    return AnalysisReport(channel=ch, unital=rep.unital, choi_rank=rep.choi_rank,
                          profile=prof, oracle_agrees=ok, oracle_info=info)


def analyze_file(path: str, initial: str = "bell1") -> AnalysisReport:
    with open(path, "r", encoding="utf-8") as fh:
        ch = channels.channel_from_json(fh.read())
    return analyze(ch, initial=initial)
