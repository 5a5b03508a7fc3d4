"""Batch experiment driver: parameter sweeps, threshold bisection, randomized
search for UQT-producing non-unital channels, and report emission.

Grid rows and search samples are independent; results are assembled in
deterministic (lexicographic / sample-index) order, and sample i of a search
draws from its own Philox stream keyed on the pair (seed mod 2**64, i), one
Philox per search re-keyed for each sample, so reports are reproducible
byte for byte for a given spec and seed and different seeds give
independent streams. One row engine classifies a sweep's SWEEP_BLOCK grid
rows as one stack and a threshold's points in tree blocks; a search's
SEARCH_BLOCK candidates, random channels among them (one
`channels.isometry_kraus` QR per rank per block), are classified by the
same helper, which applies each channel once, when it validates it, and
reads the final correlations off its Choi matrix.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import channels, families, linalg, oracle, states
from .channels import ChannelValidationError, QubitChannel
from .families import FamilySpec
from .states import TeleportProfile, TwoQubitState

ORACLE_TOL = 1e-6
MAX_GRID_ROWS = 10**6
#: grid rows of a sweep validated, applied and classified together; a
#: constant, so the stacks, and the memory, stay the same size for any grid
SWEEP_BLOCK = 1024
#: bisection steps per threshold block, which holds every midpoint they could visit
TREE_LEVELS = 4

PREDICATES = ("useful", "universal", "uqt")

#: CSV value columns emitted after the parameter columns
CSV_FIELDS = ("f_max", "delta", "det_t", "choi_rank", "unital",
              "useful", "universal", "uqt", "oracle_checked")


class SweepSpecError(ValueError):
    """Structurally invalid sweep or threshold specification."""


def parse_initial(text: str) -> TwoQubitState:
    """Initial-state selector: bell1..bell4 or pure:<a> with 1/2 <= a < 1."""
    if not isinstance(text, str):
        raise SweepSpecError(f"initial state must be a string, got {text!r}")
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
    state), and profile the final state, one point alone.

    For the matched-concurrence families the input is |Psi_a> with
    concurrence equal to the channel's concurrence parameter whenever the
    initial selector is "matched" (their natural scenario).
    Sweeps and thresholds classify through `_classify_rows`; this scalar
    path is only the tests' reference for them, and a name perfbench traces.
    """
    ch = families.noise_channel(family_id, **params)
    state = _resolve_initial(initial, family_id) if isinstance(initial, str) else initial
    if isinstance(state, str):  # "matched"
        c = ch.params[families.MATCHED_CONCURRENCE_PARAM[family_id]]
        state = states.pure_state_from_concurrence(float(c))
    final = channels.apply_to_bob(state, ch)
    return ch, final, states.profile(final)


def oracle_check(final: TwoQubitState, prof: TeleportProfile) -> tuple[bool, dict]:
    """Compare the closed-form profile against the protocol simulation, to
    ORACLE_TOL."""
    canonical, _ = oracle.canonicalize(final)
    mom = oracle.numeric_moments(canonical)
    info = {"mean_f": mom.mean_f, "delta": mom.delta, "tolerance": ORACLE_TOL}
    if not prof.formula_valid:
        info["agrees"] = None  # no closed form to compare against
        return True, info
    ok = abs(mom.mean_f - prof.f_max) <= ORACLE_TOL and abs(mom.delta - prof.delta) <= ORACLE_TOL
    info["agrees"] = ok
    return ok, info


def oracle_disagreements(final: np.ndarray, f_max: list, delta: list) -> int:
    """How many literal final states (N, 4, 4) are non-finite or not Hermitian
    within linalg.EPS_HERM, `states.density_stack` rejects, or the protocol
    simulation (`oracle.canonical_moments`) contradicts beyond ORACLE_TOL in
    f_max or delta; a None (no closed form) contradicts nothing. Only the
    finite Hermitian members go on to density_stack, whose gate would
    reject the whole stack for one other member."""
    final = np.asarray(final, dtype=complex)
    ok = np.isfinite(final).all(axis=(1, 2))
    finite = final[ok]
    ok[ok] = np.abs(finite - linalg.dagger(finite)).max(axis=(1, 2), initial=0.0) <= linalg.EPS_HERM
    dens = states.density_stack(final[ok])
    mean, dev = oracle.canonical_moments(dens.rho)
    # None is NaN: never > tol
    f_max, delta = np.array(f_max, float)[ok], np.array(delta, float)[ok]
    bad = (np.abs(mean - f_max) > ORACLE_TOL) | (np.abs(dev - delta) > ORACLE_TOL)
    rejected = np.array([e is not None for e in dens.errors], bool)
    return int(np.count_nonzero(~ok) + np.count_nonzero(bad | rejected))


def _classify(kraus, rho: np.ndarray) -> tuple[list, dict]:
    """Validate a ready (N, k, 2, 2) Kraus stack and classify the final
    state of Bob's half of rho (one 4x4 density matrix, or one per member)
    after each valid channel, as one stack, read off the Choi matrices of
    validate_stack by `channels.final_correlations`; no final state is
    built. Returns per member the error text `validate` raises, or None;
    and the `states.profile_columns` of one `verdicts` call on the valid
    members, in member order, with their "choi_rank" and "unital" columns,
    unital meaning a unitality residual, as validate_stack reads it off the
    Choi matrix, within EPS_CPTP, the rule of `channels.report`."""
    _, choi, ranks, errors, _, unitality = channels.validate_stack(kraus)
    valid = [i for i, err in enumerate(errors) if err is None]
    coef = states.pauli_coefficients(choi)
    t_mat = channels.final_correlations(rho if rho.ndim == 2 else rho[valid], coef[valid])
    columns = states.profile_columns(states.verdicts(t_mat))
    columns["choi_rank"] = [ranks[i] for i in valid]
    columns["unital"] = (unitality[valid] <= channels.EPS_CPTP).tolist()
    return errors, columns


def _classify_rows(family_id: str, columns: dict, initial: str | TwoQubitState
                   ) -> tuple[list, dict, families.Block, np.ndarray]:
    """The row engine of sweeps and thresholds: the family's rows, given as
    one column of values per param, built as one block by checked_rows and
    classified on `initial` (a state, or "matched": |Psi_a> of each row's
    concurrence) by one `_classify`. Returns per row its error text, as
    evaluate_point raises it, or None; the columns of `_classify` for the
    valid rows; the block; and rho."""
    block = families.checked_rows(family_id, columns)
    if isinstance(initial, str):  # "matched"; concurrence 1.0 for a failed row
        c = block.params[families.MATCHED_CONCURRENCE_PARAM[family_id]]
        rho = states.pure_densities_from_concurrence(np.where(np.isnan(c), 1.0, c))
    else:
        rho = initial.rho
    rejected, cols = _classify(block.kraus, rho)
    errors = [built or err for built, err in zip(block.errors, rejected)]
    return errors, cols, block, rho


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
            family_id, params = str(fam["id"]), fam.get("params", {})
            if not isinstance(params, dict):
                raise TypeError(f"family params must be a JSON object, got {params!r}")
            spec = FamilySpec(family_id=family_id,
                              params={str(k): channels.json_number(v) for k, v in params.items()})
            bad = {k: v for k, v in spec.params.items() if not math.isfinite(v)}
            if bad:
                raise SweepSpecError(f"family params must be finite, got {bad}")
            axes = tuple(Axis(str(a["param"]), *(channels.json_number(a[k]) for k in
                                                  ("start", "stop", "step")))
                         for a in doc["axes"])
            outputs = doc.get("outputs", CSV_FIELDS)
            if (not isinstance(outputs, (list, tuple)) or not outputs
                    or len(set(outputs)) < len(outputs)):
                raise SweepSpecError(f"outputs must be a list of distinct field names, "
                                     f"at least one, got {outputs!r}")
            outputs = tuple(outputs)
            bad = set(outputs) - set(CSV_FIELDS)
            if bad:
                raise SweepSpecError(f"unknown output fields {sorted(bad)}")
            return SweepSpec(family=spec, axes=axes,
                             initial=str(doc.get("initial", "bell1")),
                             outputs=outputs)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    Errors of the spec as a whole (grid size, unknown family, a param or
    axis name the family lacks or repeats after alias resolution, or a
    parameter that none sets, initial state or a "matched" input the family
    does not define) raise SweepSpecError before the first row.
    Rows go through `_classify_rows` in blocks of SWEEP_BLOCK, with the error
    texts and, to rounding, the values of evaluate_point. Every valid row is
    flagged in `oracle_checked`: a block's literal final states are checked
    against its f_max and delta as one stack by `oracle_disagreements`.
    """
    total = math.prod(ax.count() for ax in spec.axes)
    if total > MAX_GRID_ROWS:
        raise SweepSpecError(f"grid of {total} rows exceeds the cap of {MAX_GRID_ROWS}")
    family_id = spec.family.family_id
    try:
        families.resolve_complete(family_id, [*spec.family.params, *(ax.param for ax in spec.axes)])
    except ValueError as exc:
        raise SweepSpecError(str(exc)) from exc
    initial = _resolve_initial(spec.initial, family_id)
    points = itertools.product(*(ax.values() for ax in spec.axes))

    header = tuple(["family"] + [f"param:{ax.param}" for ax in spec.axes]
                   + list(spec.outputs) + ["error"])
    empty = (None,) * len(spec.outputs)
    rows: list[tuple] = []
    oracle_failures = 0
    names = [ax.param for ax in spec.axes]
    for _ in range(0, total, SWEEP_BLOCK):
        combos = list(itertools.islice(points, SWEEP_BLOCK))
        fixed = {key: [value] * len(combos) for key, value in spec.family.params.items()}
        errors, cols, block, rho = _classify_rows(
            family_id, {**fixed, **dict(zip(names, zip(*combos)))}, initial)
        valid = [i for i, err in enumerate(errors) if err is None]
        cols["oracle_checked"] = [True] * len(valid)
        final = channels.bob_action(rho if rho.ndim == 2 else rho[valid], block.kraus[valid])
        oracle_failures += oracle_disagreements(final, cols["f_max"], cols["delta"])
        values = zip(*(cols[name] for name in spec.outputs))
        rows += [(family_id, *combo, *empty, err) if err else (family_id, *combo, *next(values), "")
                 for combo, err in zip(combos, errors)]
    return SweepResult(header=header, rows=tuple(rows), oracle_failures=oracle_failures)


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

    The bracket must be two finite increasing numbers and tol a finite positive
    number (bool is no number here), fixed a dict or None, the predicate (one of
    PREDICATES) must differ at the two bracket endpoints, and no fixed param may
    name `param`, directly or by alias; else, or at a point on the path that
    builds no channel, SweepSpecError is raised. Bisection stops at width tol,
    or sooner when no float lies strictly inside the bracket. The ends, then
    all midpoints of the next TREE_LEVELS steps, go as one block each; the
    steps read only their path's rows, so the result is that of one step at
    a time, bit for bit. For the matched-concurrence families the initial
    state defaults to the matched |Psi_a>; for lambda_tilde_nu swept in
    concurrence, p2 is placed at the midpoint of its useful window when that
    window is non-empty (any valid p2 below threshold leaves the predicate false).
    """
    try:
        lo, hi = (channels.json_number(x) for x in bracket)
        tol = channels.json_number(tol)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SweepSpecError(f"bracket and tol must be numbers: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise SweepSpecError(f"bracket must be finite and increasing, got [{lo}, {hi}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise SweepSpecError(f"tol must be finite and positive, got {tol!r}")
    if predicate not in PREDICATES:
        raise SweepSpecError(f"predicate must be one of {PREDICATES}, got {predicate!r}")
    if not isinstance(fixed, (dict, type(None))):
        raise SweepSpecError(f"fixed must be a dict of param values, got {fixed!r}")
    fixed = {key: [value] for key, value in (fixed or {}).items()}  # one row's columns
    try:
        *_, name = families.resolve_keys(family_id, [*fixed, param])
    except ValueError as exc:  # an unknown family or name, or a fixed param on `param`
        raise SweepSpecError(f"threshold in {param!r}: {exc}") from exc
    if initial is None:
        initial = ("matched" if family_id in families.MATCHED_CONCURRENCE_IDS else "bell1")
    initial = _resolve_initial(initial, family_id)

    def point_columns(xs: list) -> dict:
        columns = {**{key: col * len(xs) for key, col in fixed.items()}, name: xs}
        if family_id == "lambda_tilde_nu" and "p2" not in fixed and name == "p1":
            # outside (0, 1), p1's range check rejects x whatever p2 is
            windows = [(1.0 / (3.0 * x), families.lambda_tilde_p2_max(x)) if 0.0 < x < 1.0
                       else (0, 1) for x in xs]
            columns["p2"] = [(lo + hi) / 2.0 if lo < hi else 0.5 * hi for lo, hi in windows]
        return columns

    rows: dict = {}  # x -> its predicate value or its row's error text, once classified

    def classify(xs: list) -> None:  # the points, classified as sweep rows are, as one block
        errors, cols, *_ = _classify_rows(family_id, point_columns(xs), initial)
        values = iter(cols[predicate])
        rows.update({x: err or next(values) for x, err in zip(xs, errors)})

    def verdict(x: float) -> bool:  # a failed row raises only when read
        if isinstance(rows[x], str):
            raise SweepSpecError(f"{param} = {x!r}: {rows[x]}")
        return rows[x]

    def split(lo: float, hi: float) -> float | None:  # None at width tol or adjacent floats
        mid = (lo + hi) / 2.0
        return mid if hi - lo > tol and lo < mid < hi else None

    def midpoints(lo: float, hi: float, levels: int):  # all the next `levels` steps could visit
        if levels and (mid := split(lo, hi)) is not None:
            yield mid
            yield from midpoints(lo, mid, levels - 1)
            yield from midpoints(mid, hi, levels - 1)

    classify([lo, hi])
    v_lo, v_hi = verdict(lo), verdict(hi)
    if v_lo == v_hi:
        raise SweepSpecError(
            f"predicate {predicate!r} is {v_lo} at both bracket endpoints "
            f"[{lo}, {hi}]; no threshold to bisect")
    while block := list(midpoints(lo, hi, TREE_LEVELS)):
        classify(block)  # the steps read the rows on their path, no other
        while (mid := split(lo, hi)) in rows:
            lo, hi = (mid, hi) if verdict(mid) == v_lo else (lo, mid)
    return ThresholdResult(param=param, critical_value=(lo + hi) / 2.0,
                           bracket_width=hi - lo, predicate=predicate, low=lo, high=hi)


# ---------------------------------------------------------------------------
# Randomized UQT search
# ---------------------------------------------------------------------------

#: samples of one search drawn and evaluated together; a constant, so the
#: stack, and the memory, stay the same size for any budget
SEARCH_BLOCK = 128
MAX_HITS = 20


def random_nonunital_channel(rng: np.random.Generator, rank: int) -> QubitChannel | None:
    """One random rank-r channel drawn by `channels.random_kraus` and
    validated alone: None if it is invalid or unital by `channels.report`
    (search_uqt's rule). No library code calls it, since search_uqt draws
    stacks; it stays because perfbench/tracing.py hooks it by name."""
    try:
        ch = channels.validate(channels.random_kraus(rng, rank), name=f"random_rank{rank}")
    except ChannelValidationError:
        return None
    return None if channels.report(ch).unital else ch


@dataclass(frozen=True)
class SearchReport:
    concurrence: float
    budget: int
    seed: int
    hits: tuple[dict, ...]
    frontier: tuple[dict, ...]

    def to_jsonable(self) -> dict:
        return {
            "concurrence": self.concurrence, "budget": self.budget, "seed": self.seed,
            "hits": list(self.hits), "frontier": list(self.frontier),
            "conclusive": False,  # absence of hits is evidence, not proof
            "note": ("hits certify UQT channels for this concurrence; an empty "
                     "hit list is inconclusive evidence of absence"),
        }


def _sample_streams(seed: int):
    """sample_rng(i) -> the Generator of search sample i: one Philox, re-keyed
    to the stream of Philox(key=(seed mod 2**64) << 64 | i) by its state setter."""
    bits = np.random.Philox(0)
    rng, key = np.random.Generator(bits), np.array([0, seed % 2**64], dtype=np.uint64)
    fresh = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": key},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def sample_rng(i: int) -> np.random.Generator:
        key[0] = i
        bits.state = fresh
        return rng
    return sample_rng


def search_uqt(concurrence: float, budget: int, seed: int = 0) -> SearchReport:
    """Sample non-unital channels against |Psi_a> with the given concurrence.

    Candidates mix random channels of Kraus rank 3 or 4, `channels.random_kraus`
    draws, and the parametric non-unital families. Deterministic for a
    given seed: sample i draws its kind and arguments, a random channel's
    Gaussians too, from its own Philox stream, keyed on (seed mod 2**64, i)
    (`_sample_streams`: one Philox per call, re-keyed per sample). Samples
    go in blocks of SEARCH_BLOCK. Each sample is drawn in Python; the
    block's lambda_tilde_nu samples are built by one checked_rows call and
    its random channels by one `channels.isometry_kraus` call per rank, and
    its candidates, one stack in kind order (the lambda_tilde_nu rows, then
    the random ones), are classified by one `_classify`, as the
    lambda_star_nu candidate, one checked_rows block, is once per call. A
    random candidate that validation rejects or that `_classify` calls
    unital is skipped; a lambda_tilde_nu build error, else a validation
    error, raises, the first in sample order. The
    first MAX_HITS distinct hits are reported. The frontier keeps up to ten
    non-UQT entries that no other dominates (deviation no larger, f_max no
    smaller; a deviation up to EPS_UQT, the zero of `verdicts`, counts as
    0), by deviation, then descending f_max.

    concurrence must be a real number in (0, 1), budget an integer >= 1
    and seed an integer (bool is no number here); anything else raises
    SweepSpecError before any work.
    """
    if isinstance(concurrence, bool) or not isinstance(concurrence, numbers.Real) \
            or not 0.0 < concurrence < 1.0:
        raise SweepSpecError(f"concurrence must be a number in (0, 1), got {concurrence!r}")
    for name, value, low in (("budget", budget, 1), ("seed", seed, None)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise SweepSpecError(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise SweepSpecError(f"{name} must be at least {low}, got {value!r}")
    concurrence, budget, seed = float(concurrence), int(budget), int(seed)
    state = states.pure_state_from_concurrence(concurrence)
    tilde_p2_max = families.lambda_tilde_p2_max(concurrence)
    hits: list[dict] = []
    frontier: list[dict] = []

    def dev(entry: dict) -> float:  # a deviation up to EPS_UQT, verdicts' zero, is 0
        return 0.0 if entry["delta"] <= states.EPS_UQT else entry["delta"]

    def as_entry(name: str, params: dict, f_max, delta, uqt) -> dict:
        return {"channel": name, "params": {k: float(v) for k, v in params.items()},
                "f_max": f_max, "delta": delta, "uqt": uqt}

    star_block = families.checked_rows("lambda_star_nu", {"p1": [concurrence]})  # once per call
    _, cols = _classify(star_block.kraus, state.rho)
    star = as_entry("lambda_star_nu", {name: col[0] for name, col in star_block.params.items()},
                    cols["f_max"][0], cols["delta"][0], cols["uqt"][0])

    sample_rng = _sample_streams(seed)
    for first in range(0, budget, SEARCH_BLOCK):
        kinds, p2s, drawn = [], [], []  # per sample; per lambda_tilde_nu and random sample
        for i in range(first, min(first + SEARCH_BLOCK, budget)):
            rng = sample_rng(i)
            kinds.append(kind := int(rng.integers(0, 4)))
            if kind < 2:  # a random channel of rank 3 or 4
                drawn.append(rng.normal(size=(2, 2 * (3 + kind), 2)))
            elif kind == 2:
                p2s.append(float(rng.uniform(1e-6, tilde_p2_max * (1.0 - 1e-9))))
        m = len(p2s)
        block = families.checked_rows("lambda_tilde_nu", {"p1": [concurrence] * m, "p2": p2s})
        failed = [err for err in block.errors if err is not None]
        if failed:  # the first build error, in sample order
            raise ValueError(failed[0])
        randoms = channels.isometry_stack(drawn)
        kraus = np.zeros((m + len(drawn), 4, 2, 2), dtype=complex)  # tilde rows, then random rows
        kraus[:m] = block.kraus
        kraus[m:, :randoms.shape[1]] = randoms
        errors, cols = _classify(kraus, state.rho)
        failed = [err for err in errors[:m] if err is not None]
        if failed:  # the first lambda_tilde_nu validation error, in sample order
            raise ChannelValidationError(failed[0])
        # the valid members: every lambda_tilde_nu row, then the valid random rows
        values = zip(cols["f_max"], cols["delta"], cols["uqt"], cols["unital"])
        recorded = {name: col.tolist() for name, col in block.params.items()}
        tilde = [as_entry("lambda_tilde_nu", {name: col[r] for name, col in recorded.items()},
                          *next(values)[:3]) for r in range(m)]
        random = []  # None where validation rejects the candidate or calls it unital
        for kind, err in zip([kind for kind in kinds if kind < 2], errors[m:]):
            f_max, delta, uqt, unital = next(values) if err is None else (None, None, None, True)
            random.append(None if unital else
                          as_entry(f"random_rank{3 + kind}", {}, f_max, delta, uqt))
        tilde, random = iter(tilde), iter(random)  # merged back into sample order, by kind
        merged = (star if kind == 3 else next(tilde if kind == 2 else random) for kind in kinds)
        entries = [entry for entry in merged if entry is not None]
        for entry in entries:
            if entry["uqt"] and len(hits) < MAX_HITS and entry not in hits:
                hits.append(entry)
        candidates = frontier + [e for e in entries if not e["uqt"] and e["f_max"] is not None]
        frontier = []
        for entry in sorted(candidates, key=lambda e: (dev(e), -e["f_max"])):
            if not frontier or entry["f_max"] > frontier[-1]["f_max"]:
                frontier.append(entry)
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
        return {
            "channel": {"name": self.channel.name,
                        "params": {k: float(v) for k, v in self.channel.params.items()},
                        "kraus_count": len(self.channel.kraus)},
            "unital": self.unital,
            "choi_rank": self.choi_rank,
            "profile": dict(vars(self.profile), abs_t=self.profile.abs_t.tolist()),
            "oracle": dict(self.oracle_info),  # agrees: None where nothing was compared
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
