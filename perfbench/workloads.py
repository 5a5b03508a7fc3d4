"""Seeded inputs, timed units and output checks for the benchmark workloads.

Each workload is run in units. A unit is a fixed amount of work whose
inputs depend only on (seed, unit index), so two seeds give units of the
same size and one seed always gives the same inputs. `run` times only the
calls into the library; input generation and checking stay outside the
timed region.

Every check compares the library's output with a reference computed here
from a closed form or with plain numpy. No reference comes from
`uqtchan.linalg` or from the `acceptance` helpers. The search workload
re-verifies hits with `oracle.canonicalize` and `oracle.numeric_moments`,
the independent protocol simulation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from speed import stamp

SQRT5 = math.sqrt(5.0)
SQRT10 = math.sqrt(10.0)
#: gamma below which gadc on a Bell input stays useful (F > 2/3)
GADC_USEFUL_MAX = 2.0 * (math.sqrt(2.0) - 1.0)
#: values within this distance of a verdict boundary are not classified
BOUNDARY = 1e-9

PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                 dtype=complex)
SIGMA_PAIRS = np.array([[np.kron(PAULI[i], PAULI[j]) for j in range(1, 4)] for i in range(1, 4)])
_B = 1.0 / math.sqrt(2.0)
BELL_KETS = {
    "bell1": np.array([_B, 0, 0, _B], dtype=complex),
    "bell2": np.array([0, _B, _B, 0], dtype=complex),
    "bell3": np.array([0, _B, -_B, 0], dtype=complex),
    "bell4": np.array([_B, 0, 0, -_B], dtype=complex),
}


@dataclass
class UnitResult:
    items: int
    #: one entry per latency sample: the (start, end) speed.stamp() pair of
    #: each library call it is made of
    calls: list[list[tuple]]
    outputs: list = field(default_factory=list)


def _mark(tracer, item_id: int) -> None:
    if tracer is not None:
        tracer.item = item_id


def _timed(fn, *args, **kwargs):
    start = stamp()
    out = fn(*args, **kwargs)
    return out, (start, stamp())


# ---------------------------------------------------------------------------
# plain-numpy references
# ---------------------------------------------------------------------------

def ket_rho(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def pure_ket(a: float) -> np.ndarray:
    return np.array([math.sqrt(a), 0, 0, math.sqrt(1.0 - a)], dtype=complex)


def bob_channel(rho: np.ndarray, kraus) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for k in kraus:
        op = np.kron(np.eye(2), np.asarray(k))
        out += op @ rho @ op.conj().T
    return out


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    return np.einsum("ab,ijba->ij", rho, SIGMA_PAIRS).real


def profile_ref(rho: np.ndarray) -> dict:
    """F, deviation and verdict inputs from the singular values of T."""
    t = correlation_matrix(rho)
    sv = np.linalg.svd(t, compute_uv=False)
    det = float(np.linalg.det(t))
    f = (1.0 + sv.sum() / 3.0) / 2.0
    spread = (sv[0] - sv[1]) ** 2 + (sv[0] - sv[2]) ** 2 + (sv[1] - sv[2]) ** 2
    return {"f": float(f), "delta": float(math.sqrt(spread) / (3.0 * SQRT10)),
            "det": det, "sv": sv}


def choi_eigenvalues(kraus) -> np.ndarray:
    return np.linalg.eigvalsh(bob_channel(ket_rho(BELL_KETS["bell1"]), kraus))[::-1]


def unitality_residual(kraus) -> float:
    acc = sum(np.asarray(k) @ np.asarray(k).conj().T for k in kraus)
    return float(np.max(np.abs(acc - np.eye(2))))


def _near(x: float, edge: float) -> bool:
    return abs(x - edge) <= BOUNDARY


# ---------------------------------------------------------------------------
# sweep: two run_sweep calls per unit
# ---------------------------------------------------------------------------

GADC_GRID = (("gamma", 21, 0.045, 0.09), ("N", 11, 0.09, 0.05))  # (param, n, step, max offset)
RANK4_GRID = (("s1", 7, 0.10, -0.30), ("s2", 7, 0.10, -0.30), ("t", 7, 0.07, 0.28))
RANK4_S3 = 0.05
#: rank-4 starts move by at most this share of a step: small enough that the
#: same 77 points are out of range for every seed, so the work per unit is fixed
RANK4_OFFSET = 0.02


def _axis(param: str, start: float, n: int, step: float) -> dict:
    # stop half a step past the last point, so rounding cannot change the count
    return {"param": param, "start": start, "stop": start + (n - 1 + 0.5) * step, "step": step}


def sweep_inputs(_uq, seed: int, k: int) -> list[dict]:
    """Grid starts offset by the seed; sizes fixed at 231 + 343 rows."""
    u = np.random.default_rng([seed, 1, k]).uniform(0.0, 1.0, 5)
    gadc = {"family": {"id": "gadc"}, "initial": "bell1",
            "axes": [_axis(p, off * u[i], n, step)
                     for i, (p, n, step, off) in enumerate(GADC_GRID)]}
    rank4 = {"family": {"id": "uqt_nonunital_rank4", "params": {"s3": RANK4_S3}},
             "initial": "bell1",
             "axes": [_axis(p, lo + RANK4_OFFSET * step * u[2 + i], n, step)
                      for i, (p, n, step, lo) in enumerate(RANK4_GRID)]}
    return [gadc, rank4]


def sweep_run(uq, docs: list[dict], tracer=None, item_base: int = 0) -> UnitResult:
    unit = UnitResult(items=0, calls=[[]])
    for j, doc in enumerate(docs):
        spec = uq.explorer.SweepSpec.from_jsonable(doc)
        _mark(tracer, item_base + j)
        res, window = _timed(uq.explorer.run_sweep, spec)
        unit.calls[0].append(window)
        unit.items += len(res.rows)
        unit.outputs.append((doc["family"]["id"], res))
    return unit


def _gadc_row_errors(r: dict) -> list[str]:
    if r["error"]:
        return [f"unexpected error {r['error']!r}"]
    gamma = r["param:gamma"]
    root = math.sqrt(1.0 - gamma)
    f_ref = 0.5 + (2.0 * root + 1.0 - gamma) / 6.0
    d_ref = root * (1.0 - root) / (3.0 * SQRT5)
    errs = []
    if abs(r["f_max"] - f_ref) > 1e-12:
        errs.append(f"f_max {r['f_max']!r} != {f_ref!r}")
    if abs(r["delta"] - d_ref) > 1e-12:
        errs.append(f"delta {r['delta']!r} != {d_ref!r}")
    if not _near(gamma, GADC_USEFUL_MAX) and r["useful"] != (gamma < GADC_USEFUL_MAX):
        errs.append(f"useful {r['useful']} at gamma {gamma}")
    return errs


def _rank4_row_errors(r: dict) -> list[str]:
    t = r["param:t"]
    s_norm = math.sqrt(r["param:s1"] ** 2 + r["param:s2"] ** 2 + RANK4_S3 ** 2)
    if _near(t, 1.0 / 3.0) or _near(s_norm, 1.0 - t):
        return []  # on the range boundary: either outcome is acceptable
    in_range = 1.0 / 3.0 < t < 1.0 and 0.0 < s_norm < 1.0 - t
    if not in_range:
        return [] if r["error"] else ["out-of-range point was not an error row"]
    if r["error"]:
        return [f"in-range point raised {r['error']!r}"]
    errs = []
    if abs(r["f_max"] - (1.0 + t) / 2.0) > 1e-12:
        errs.append(f"f_max {r['f_max']!r} != (1+t)/2")
    if not r["delta"] <= 1e-12:
        errs.append(f"delta {r['delta']!r} > 1e-12")
    if r["uqt"] is not True or r["choi_rank"] != 4 or r["unital"] is not False:
        errs.append(f"uqt={r['uqt']} choi_rank={r['choi_rank']} unital={r['unital']}")
    return errs


def sweep_check(_uq, _inputs, outputs) -> tuple[int, dict]:
    failed = 0
    counts = {"error_rows": 0, "oracle_checked_rows": 0, "rows": 0}
    for family, res in outputs:
        row_errors = _gadc_row_errors if family == "gadc" else _rank4_row_errors
        for row in res.rows:
            r = dict(zip(res.header, row))
            counts["rows"] += 1
            counts["error_rows"] += bool(r["error"])
            counts["oracle_checked_rows"] += r["oracle_checked"] is True
            bad = row_errors(r)
            if r["oracle_checked"] is True and res.oracle_failures:
                bad.append(f"{res.oracle_failures} oracle failures in this sweep")
            failed += bool(bad)
    return failed, counts


# ---------------------------------------------------------------------------
# search: search_uqt below and above the 0.4131 damping bound
# ---------------------------------------------------------------------------

SEARCH_POINTS = (0.38, 0.45)
SEARCH_BUDGET = 100


def search_inputs(_uq, seed: int, k: int) -> list[tuple[float, int]]:
    state = np.random.SeedSequence([seed, 2, k]).generate_state(len(SEARCH_POINTS))
    return [(c, int(s)) for c, s in zip(SEARCH_POINTS, state)]


def search_run(uq, points, tracer=None, item_base: int = 0) -> UnitResult:
    unit = UnitResult(items=0, calls=[[]])
    for j, (c, s) in enumerate(points):
        _mark(tracer, item_base + j)
        rep, window = _timed(uq.explorer.search_uqt, c, SEARCH_BUDGET, seed=s)
        unit.calls[0].append(window)
        unit.items += SEARCH_BUDGET
        unit.outputs.append((c, rep.to_jsonable()))
    return unit


def _hit_errors(uq, c: float, hit: dict) -> list[str]:
    """Rebuild a hit from its name and params and re-verify it."""
    if hit["channel"] not in uq.families.FAMILIES:
        return [f"hit {hit['channel']!r} cannot be rebuilt from the catalog"]
    names = [p.name for p in uq.families.get_family(hit["channel"]).params]
    ch = uq.families.noise_channel(hit["channel"], **{n: hit["params"][n] for n in names})
    a = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    final = bob_channel(ket_rho(pure_ket(a)), ch.kraus)
    ref = profile_ref(final)
    errs = []
    if abs(hit["f_max"] - ref["f"]) > 1e-10 or abs(hit["delta"] - ref["delta"]) > 1e-10:
        errs.append(f"hit (F, delta) ({hit['f_max']}, {hit['delta']}) != "
                    f"({ref['f']}, {ref['delta']})")
    if not (ref["det"] < 0 and ref["sv"][0] - ref["sv"][2] <= 1e-9
            and ref["sv"][2] > 1.0 / 3.0 and hit["uqt"] is True):
        errs.append("hit is not UQT-useful by the singular values of T")
    canonical, _ = uq.oracle.canonicalize(uq.states.from_density(final))
    mom = uq.oracle.numeric_moments(canonical)
    if abs(mom.mean_f - hit["f_max"]) > 1e-6 or abs(mom.delta - hit["delta"]) > 1e-6:
        errs.append(f"oracle ({mom.mean_f}, {mom.delta}) disagrees with hit")
    return errs


def _frontier_errors(frontier: list[dict]) -> int:
    bad = sum(e["uqt"] is not False for e in frontier)
    keys = [(e["delta"], -e["f_max"]) for e in frontier]
    bad += keys != sorted(keys)
    bad += sum(1 for i, a in enumerate(frontier) for j, b in enumerate(frontier)
               if i != j and a["delta"] <= b["delta"] and a["f_max"] >= b["f_max"])
    return bad


def search_check(uq, _inputs, outputs) -> tuple[int, dict]:
    failed = 0
    distinct = set()
    hits = 0
    for c, doc in outputs:
        for hit in doc["hits"]:
            hits += 1
            distinct.add((hit["channel"], json.dumps(hit["params"], sort_keys=True)))
            failed += bool(_hit_errors(uq, c, hit))
        failed += _frontier_errors(doc["frontier"])
    return failed, {"hits": hits, "distinct_hits": len(distinct)}


def search_outputs_match(first: UnitResult, again: UnitResult) -> bool:
    """Two runs of the same search unit must give byte-identical JSON."""
    def dump(unit):
        return [json.dumps(doc, sort_keys=True) for _, doc in unit.outputs]
    return dump(first) == dump(again)


# ---------------------------------------------------------------------------
# analyze: a stream of explorer.analyze() calls on seeded channels
# ---------------------------------------------------------------------------

ANALYZE_UNIT = 100
ANALYZE_MIN_CALLS = 1000
ANALYZE_INITIALS = ("bell1", "bell2", "bell3", "bell4", "pure")
#: catalog points mixed into the stream: family id and a parameter draw
ANALYZE_CATALOG = (
    ("gadc", lambda r: {"gamma": r.uniform(0.05, 0.95), "N": r.uniform(0.05, 0.95)}),
    ("werner", lambda r: {"p": r.uniform(0.05, 0.95)}),
    ("dephasing", lambda r: {"p": r.uniform(0.05, 0.95)}),
    ("depolarizing_m", lambda r: {"p": r.uniform(0.05, 0.95)}),
    ("lambda_star_nu", lambda r: {"p1": r.uniform(0.05, 0.95)}),
    ("uqt_nonunital_rank4", lambda r: _rank4_draw(r)),
)


def _rank4_draw(rng) -> dict:
    t = rng.uniform(0.35, 0.95)
    direction = rng.normal(size=3)
    s = rng.uniform(0.05, 0.95) * (1.0 - t) * direction / np.linalg.norm(direction)
    return {"s1": s[0], "s2": s[1], "s3": s[2], "t": t}


@dataclass
class AnalyzeItem:
    channel: object  # uqtchan QubitChannel
    kraus: list
    initial: str
    ket: np.ndarray
    rank: int | None  # Kraus rank of a random channel; None for catalog points


def analyze_item(uq, seed: int, i: int) -> AnalyzeItem:
    rng = np.random.default_rng([seed, 3, i])
    initial = ANALYZE_INITIALS[int(rng.integers(len(ANALYZE_INITIALS)))]
    if initial == "pure":
        a = float(rng.uniform(0.5, 0.99))
        initial, ket = f"pure:{a!r}", pure_ket(a)
    else:
        ket = BELL_KETS[initial]
    if i % 5 == 4:
        family, draw = ANALYZE_CATALOG[int(rng.integers(len(ANALYZE_CATALOG)))]
        params = {k: float(v) for k, v in draw(rng).items()}
        ch = uq.families.noise_channel(family, **params)
        return AnalyzeItem(ch, list(ch.kraus), initial, ket, None)
    rank = int(rng.integers(1, 5))
    g = rng.normal(size=(2 * rank, 2)) + 1j * rng.normal(size=(2 * rank, 2))
    q, _ = np.linalg.qr(g)  # isometry: its 2x2 blocks are Kraus operators
    kraus = [q[2 * j:2 * j + 2, :] for j in range(rank)]
    ch = uq.channels.validate(kraus, name=f"random_rank{rank}")
    return AnalyzeItem(ch, kraus, initial, ket, rank)


def analyze_inputs(uq, seed: int, k: int) -> list[AnalyzeItem]:
    return [analyze_item(uq, seed, k * ANALYZE_UNIT + j) for j in range(ANALYZE_UNIT)]


def analyze_run(uq, items, tracer=None, item_base: int = 0) -> UnitResult:
    unit = UnitResult(items=len(items), calls=[])
    for j, item in enumerate(items):
        _mark(tracer, item_base + j)
        rep, window = _timed(uq.explorer.analyze, item.channel, item.initial)
        unit.calls.append([window])
        unit.outputs.append(rep)
    return unit


def analyze_item_errors(item: AnalyzeItem, rep) -> list[str]:
    ref = profile_ref(bob_channel(ket_rho(item.ket), item.kraus))
    prof = rep.profile
    errs = []
    if abs(ref["det"]) > BOUNDARY and prof.formula_valid != (ref["det"] <= 0.0):
        errs.append(f"formula_valid {prof.formula_valid} with det T {ref['det']!r}")
    if prof.formula_valid:
        if abs(prof.f_max - ref["f"]) > 1e-10 or abs(prof.delta - ref["delta"]) > 1e-10:
            errs.append(f"(F, delta) ({prof.f_max}, {prof.delta}) != ({ref['f']}, {ref['delta']})")
        if rep.oracle_agrees is not True:
            errs.append(f"oracle disagrees: {rep.oracle_info}")
        if not _near(ref["f"], 2.0 / 3.0) and prof.useful != (ref["f"] > 2.0 / 3.0):
            errs.append(f"useful {prof.useful} with F {ref['f']!r}")
    q = choi_eigenvalues(item.kraus)
    ambiguous = np.any((q > 1e-12 * q[0]) & (q < 1e-7 * q[0]))
    if not ambiguous and rep.choi_rank != int(np.sum(q > 1e-9 * q[0])):
        errs.append(f"choi_rank {rep.choi_rank}, Choi spectrum {q}")
    if item.rank is not None and rep.choi_rank != item.rank:
        errs.append(f"choi_rank {rep.choi_rank} for a rank-{item.rank} random channel")
    res = unitality_residual(item.kraus)
    if not 1e-11 < res < 1e-7 and rep.unital != (res <= 1e-9):
        errs.append(f"unital {rep.unital} with residual {res:.2e}")
    return errs


def analyze_check(_uq, items, reports) -> tuple[int, dict]:
    failed = sum(bool(analyze_item_errors(it, rep)) for it, rep in zip(items, reports))
    return failed, {"not_formula_valid": sum(not rep.profile.formula_valid for rep in reports)}


# ---------------------------------------------------------------------------
# verify: the acceptance suite, fixed inputs
# ---------------------------------------------------------------------------

def verify_run(uq, _inputs, tracer=None, item_base: int = 0) -> UnitResult:
    """One run_all() call, as `uqtchan verify` makes; its items are the criteria."""
    _mark(tracer, item_base)
    res, window = _timed(uq.acceptance.run_all)
    return UnitResult(items=len(uq.acceptance.CRITERIA), calls=[[window]], outputs=res)


def verify_inputs(_uq, _seed: int, _k: int) -> None:
    return None  # the acceptance criteria seed themselves: verify ignores --seed


def verify_check(uq, _inputs, results) -> tuple[int, dict]:
    """Criteria that did not pass, or did not run, count as failed."""
    passed = {r.index for r in results if bool(r.passed)}
    return sum(i not in passed for i in range(1, len(uq.acceptance.CRITERIA) + 1)), {}
