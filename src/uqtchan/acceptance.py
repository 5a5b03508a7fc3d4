"""Acceptance suite: the end-to-end checks the library must pass.

Each criterion is a callable returning (passed, detail); the CLI `verify`
subcommand and tests/test_acceptance.py both run them. Criteria that draw
random samples use fixed seeds, so the suite is deterministic. Quantities
asserted "zero" for the analytic families are required to vanish to 1e-12
(trace arithmetic leaves ulp-level noise, so literal 0.0 is not attainable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import channels, explorer, families, linalg, oracle, states

S5 = np.sqrt(5.0)


# ---------------------------------------------------------------------------
# random generators (seeded by the criteria)
# ---------------------------------------------------------------------------

def _gaussian_densities(gs: np.ndarray) -> np.ndarray:
    """The trace-1 density matrices g g^dag / Tr(g g^dag) of g = gs[..., 0] + i gs[..., 1],
    for real Gaussians gs (..., 2, 4, 4), before from_density's checks and scaling."""
    g = gs[..., 0, :, :] + 1j * gs[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / rho.diagonal(0, -2, -1).sum(axis=-1).real[..., None, None]


def _random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """A random density matrix: `_gaussian_densities` of one draw, its real part first."""
    return _gaussian_densities(rng.normal(size=(2, 4, 4)))


def _raise_first(errors: list, cls: type = ValueError) -> None:
    """Raise cls(text) of a stack's first rejected member, as its one-member path
    would: a rejected member's Choi matrix is zero, and T = 0 would read as "not UQT-useful"."""
    rejected = [err for err in errors if err is not None]
    if rejected:
        raise cls(rejected[0])


def _validated(kraus: np.ndarray) -> tuple[np.ndarray, np.ndarray, list, list, list, np.ndarray]:
    """channels.validate_stack of a (N, k, 2, 2) Kraus stack, raising the first
    rejected member's ChannelValidationError; returns its six values unchanged."""
    checked = channels.validate_stack(kraus)
    _raise_first(checked[3], channels.ChannelValidationError)
    return checked


def _densities(matrices) -> np.ndarray:
    """The density matrices of states.density_stack, as from_density stores
    them, raising the first rejected member's error."""
    dens = states.density_stack(matrices)
    _raise_first(dens.errors)
    return dens.rho


def _det_negative_matrix(rng: np.random.Generator) -> np.ndarray:
    """The first `_random_density_matrix` draw with det T < -1e-6."""
    for _ in range(1000):
        m = _random_density_matrix(rng)
        if float(np.linalg.det(states.hs_decompose(m).t_mat)) < -1e-6:
            return m
    raise RuntimeError("failed to sample a det(T) < 0 state")


def _within(value: float, tol: float) -> str:
    """"<= tol" for a value within tol, else the value: no rounding noise."""
    return f"<= {tol:g}" if value <= tol else f"{value:.1e} > {tol:g}"


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _dephasing_law(p: float) -> tuple[float, float]:
    # identity weight p: F and deviation for the Bell output of
    # {sqrt(p) I, sqrt(1-p) sigma_3}
    if p > 0.5:
        return (2.0 * p + 1.0) / 3.0, 2.0 * (1.0 - p) / (3.0 * S5)
    if p == 0.5:
        return 2.0 / 3.0, 1.0 / (3.0 * S5)
    return 1.0 - 2.0 * p / 3.0, 2.0 * p / (3.0 * S5)


def criterion_dephasing_bell_law() -> tuple[bool, str]:
    """Dephasing on a Bell input follows the piecewise fidelity law to 1e-12,
    and the protocol simulation agrees to 1e-6; the five points are built,
    classified and simulated as one stack."""
    ps = (0.1, 0.25, 0.5, 0.75, 0.9)
    block = families.checked_rows("dephasing", {"p": ps})
    _raise_first(block.errors)
    final = _densities(channels.bob_action(states.bell_state(1).rho, _validated(block.kraus)[0]))
    coef = states.pauli_coefficients(final)
    v = states.verdicts(coef[:, 1:, 1:])
    mean, dev = oracle.canonical_moments(coef)
    f_ref, d_ref = np.array([_dephasing_law(p) for p in ps]).T
    worst_formula = float(np.max(np.abs([v.f_max - f_ref, v.delta - d_ref])))
    worst_oracle = float(np.max(np.abs([mean - f_ref, dev - d_ref])))
    ok = worst_formula <= 1e-12 and worst_oracle <= 1e-6
    return ok, f"max formula err {_within(worst_formula, 1e-12)}, oracle err {_within(worst_oracle, 1e-6)}"


def criterion_rank2_never_uqt() -> tuple[bool, str]:
    """No channel with a rank-2 Choi state sends a Bell state to a UQT-useful
    final state (1000 random_kraus draws, made by one isometry_kraus call and
    classified as one stack)."""
    g = np.random.default_rng(20240811).normal(size=(1000, 2, 4, 2))
    choi = _validated(channels.isometry_kraus(g[:, 0] + 1j * g[:, 1]))[1]
    hits = int(np.count_nonzero(states.verdicts(states.hs_decompose(choi).t_mat).uqt))
    return hits == 0, f"{hits}/1000 rank-2 channels produced a UQT-useful state"


def _profiles(family_id: str, columns: dict, rho: np.ndarray) -> tuple[dict, list]:
    """A block of catalog rows' recorded params (name -> (N,) floats) and the
    `states.profiles` of rho (one density matrix, or one per row) after each
    row's channel, as one stack; raises the first build or validation error."""
    block = families.checked_rows(family_id, columns)
    _raise_first(block.errors)
    final = _densities(channels.bob_action(rho, _validated(block.kraus)[0]))
    return block.params, states.profiles(states.hs_decompose(final).t_mat)


def criterion_werner_threshold() -> tuple[bool, str]:
    """Usefulness of the Werner output flips at p = 1/2 (bisection 1e-8), and the
    Werner family gives UQT Choi states (one stack) with vanishing deviation above it."""
    res = explorer.find_threshold("werner", "p", (0.3, 0.9), "useful", tol=1e-8)
    err = abs(res.critical_value - 0.5)
    ok = err <= 1e-8
    details = [f"threshold err {err:.2e}"]
    ps = (0.6, 0.8, 0.95)
    for p, prof in zip(ps, _profiles("werner", {"p": ps}, states.bell_state(1).rho)[1]):
        ok &= prof.uqt and prof.delta <= 1e-12
        details.append(f"p={p}: uqt={prof.uqt} delta {_within(prof.delta, 1e-12)}")
    return ok, "; ".join(details)


def criterion_nonunital_uqt_families() -> tuple[bool, str]:
    """500 random points of the rank-4 family and 500 of the rank-3 family are
    valid non-unital channels whose Choi states have all correlation
    magnitudes equal to t (1e-10), deviation <= 1e-12, F = (1+t)/2 (1e-12),
    the advertised Choi ranks, and strictly ordered Choi eigenvalues. Each
    family's points are built, validated and classified as one stack."""
    rng = np.random.default_rng(777)
    draws = [families.FAMILIES["uqt_nonunital_rank4"].sample_params(rng) for _ in range(500)]
    rank4 = {name: [row[name] for row in draws] for name in ("s1", "s2", "s3", "t")}
    rank3 = {"theta": [], "phi": [], "t": []}
    for _ in range(500):
        rank3["t"].append(float(rng.uniform(1.0 / 3.0 + 1e-3, 1.0 - 1e-3)))
        rank3["theta"].append(float(rng.uniform(0.0, np.pi)))
        rank3["phi"].append(float(rng.uniform(0.0, 2.0 * np.pi)))
    worst = {"abs_t": 0.0, "delta": 0.0, "f": 0.0}
    ok = True
    msgs = []
    for kind, want_rank, columns in (("rank4", 4, rank4), ("rank3", 3, rank3)):
        block = families.checked_rows(f"uqt_nonunital_{kind}", columns)
        _raise_first(block.errors)
        _, choi, ranks, _, _, unitality = _validated(block.kraus)
        t = block.params["t"]
        v = states.verdicts(states.hs_decompose(choi).t_mat)
        worst["abs_t"] = max(worst["abs_t"], float(np.max(np.abs(v.abs_t - t[:, None]))))
        worst["delta"] = max(worst["delta"], float(np.max(v.delta)))
        worst["f"] = max(worst["f"], float(np.max(np.abs(v.f_max - (1.0 + t) / 2.0))))
        vals = linalg.hermitian_eigenvalues(choi)
        strict = np.all(vals[:, :want_rank - 1] > vals[:, 1:want_rank], axis=1)
        unital = unitality <= channels.EPS_CPTP
        bad = unital | (np.array(ranks) != want_rank) | ~strict | ~v.uqt
        if bad.any():
            i = int(np.argmax(bad))
            ok = False
            msgs.append(f"{kind}: unital={bool(unital[i])} rank={ranks[i]} "
                        f"strict={bool(strict[i])} uqt={bool(v.uqt[i])}")
    ok &= worst["abs_t"] <= 1e-10 and worst["delta"] <= 1e-12 and worst["f"] <= 1e-12
    msgs.append(f"max |abs_t - t| {_within(worst['abs_t'], 1e-10)}, "
                f"delta {_within(worst['delta'], 1e-12)}, "
                f"|F - (1+t)/2| {_within(worst['f'], 1e-12)}")
    return ok, "; ".join(msgs)


def criterion_named_examples() -> tuple[bool, str]:
    """The fixed non-unital examples hit their printed (F, deviation) pairs to
    1e-12, with the advertised usefulness verdicts."""
    checks = []
    prof = states.profile(channels.choi(families.example_rank4_uqt()))
    checks.append(("rank4 example", abs(prof.f_max - 0.75) <= 1e-12
                   and prof.delta <= 1e-12 and prof.uqt))
    prof = states.profile(channels.choi(families.example_rank3_universal_only()))
    checks.append(("rank3 universal-only", abs(prof.f_max - 11.0 / 20.0) <= 1e-12
                   and prof.delta <= 1e-12 and not prof.useful and prof.universal))
    prof = states.profile(channels.choi(families.example_rank3(0.6)))
    checks.append(("rank3 p=0.6", abs(prof.f_max - 0.8) <= 1e-12
                   and prof.delta <= 1e-12 and prof.useful and prof.uqt))
    prof = states.profile(channels.choi(families.example_rank3(0.3)))
    checks.append(("rank3 p=0.3 below 1/3", not prof.useful and prof.universal))
    ok = all(c[1] for c in checks)
    return ok, "; ".join(f"{name}: {'ok' if good else 'FAIL'}" for name, good in checks)


def criterion_gadc_law_threshold() -> tuple[bool, str]:
    """Generalized amplitude damping on a Bell input matches its closed forms
    to 1e-12 (one stack) and loses usefulness at gamma = 2(sqrt(2)-1) (1e-8)."""
    gammas = (0.1, 0.5, 0.82)
    _, profs = _profiles("gadc", {"gamma": gammas, "N": [0.7] * 3}, states.bell_state(1).rho)
    worst = 0.0
    for gamma, prof in zip(gammas, profs):
        root = np.sqrt(1.0 - gamma)
        f_ref = 0.5 + (2.0 * root + (1.0 - gamma)) / 6.0
        d_ref = root * (1.0 - root) / (3.0 * S5)
        worst = max(worst, abs(prof.f_max - f_ref), abs(prof.delta - d_ref))
    res = explorer.find_threshold("gadc", "gamma", (0.1, 1.0), "useful",
                                  tol=1e-8, fixed={"N": 0.7})
    thr_err = abs(res.critical_value - 2.0 * (np.sqrt(2.0) - 1.0))
    ok = worst <= 1e-12 and thr_err <= 1e-8
    return ok, f"max closed-form err {_within(worst, 1e-12)}, threshold err {thr_err:.2e} (tol 1e-8)"


def _pauli_grid_has_uqt(c: float, n_grid: int = 200) -> bool:
    """Vectorized scan of Pauli mixtures applied to |Psi_a> with concurrence c.

    Universality forces a pair of equal weights, so the grid covers the two
    strata p1 = p2 and p0 = p3 over (p0, p1), each classified in one
    states.verdicts call.
    """
    psi = states.pure_state_from_concurrence(c)
    # conjugated states (I x sigma_i) rho (I x sigma_i): channel output is
    # their p-weighted mix, so the correlation data is linear in the weights
    paulis = np.array(linalg.PAULIS)[:, None]  # four one-operator channels
    t_parts = states.hs_decompose(_densities(channels.bob_action(psi.rho, paulis))).t_mat

    p0g, p1g = np.meshgrid(np.linspace(0.0, 1.0, n_grid), np.linspace(0.0, 0.5, n_grid))
    # stratum A: p1 = p2, p3 = 1 - p0 - 2 p1
    p3 = 1.0 - p0g - 2.0 * p1g
    mask = p3 >= -1e-12
    stratum_a = np.stack([p0g[mask], p1g[mask], p1g[mask], np.clip(p3[mask], 0, 1)], axis=1)
    # stratum B: p3 = p0, p2 = 1 - 2 p0 - p1
    p2 = 1.0 - 2.0 * p0g - p1g
    mask = p2 >= -1e-12
    stratum_b = np.stack([p0g[mask], p1g[mask], np.clip(p2[mask], 0, 1), p0g[mask]], axis=1)
    # one stratum at a time keeps the peak memory of the stack at half
    return any(bool(np.any(states.verdicts(np.einsum("nk,kij->nij", w, t_parts)).uqt))
               for w in (stratum_a, stratum_b))


def criterion_unital_pure_uqt() -> tuple[bool, str]:
    """The matched Pauli mixture makes |Psi_a> UQT-useful for concurrences above
    1/2 (one stack), while a 200x200 grid of Pauli mixtures finds none at C = 0.45."""
    cs = (0.55, 0.7, 0.9)
    p0s = [(lo + hi) / 2.0 for lo, hi in map(families.uqt_unital_p0_window, cs)]
    rho = _densities(states.pure_densities_from_concurrence(cs))
    profs = _profiles("uqt_unital_for_pure", {"c": cs, "p0": p0s}, rho)[1]
    found = _pauli_grid_has_uqt(0.45)
    ok = all(prof.uqt and prof.delta <= 1e-12 for prof in profs) and not found
    details = [f"C={c}: uqt={prof.uqt}" for c, prof in zip(cs, profs)]
    details.append(f"grid search at C=0.45 found UQT: {found}")
    return ok, "; ".join(details)


def criterion_nonunital_concurrence_thresholds() -> tuple[bool, str]:
    """The two non-unital constructions turn |Psi_a> UQT-useful exactly above
    their concurrence thresholds (sqrt(17)-1)/6 and sqrt(5-2 sqrt(3))/3,
    located by bisection to 1e-6; the latter confirms that non-unital
    channels work below concurrence 1/2, down to about 0.41."""
    tilde_ref = (np.sqrt(17.0) - 1.0) / 6.0
    star_ref = np.sqrt(5.0 - 2.0 * np.sqrt(3.0)) / 3.0
    # same radical in its printed form
    x = 4.0 + np.sqrt(3.0)
    star_printed = np.sqrt((2.0 / 3.0) * x * (1.0 - x / 6.0))
    res_t = explorer.find_threshold("lambda_tilde_nu", "C", (0.4, 0.7), "uqt", tol=1e-7)
    res_s = explorer.find_threshold("lambda_star_nu", "C", (0.3, 0.6), "uqt", tol=1e-7)
    err_t = abs(res_t.critical_value - tilde_ref)
    err_s = abs(res_s.critical_value - star_ref)
    ok = (err_t <= 1e-6 and err_s <= 1e-6
          and abs(star_ref - star_printed) <= 1e-14
          and star_ref < 0.414 and 0.41 <= round(star_ref, 2) <= 0.42)
    return ok, (f"tilde err {err_t:.2e}, star err {err_s:.2e} (tol 1e-6); "
                f"star threshold {star_ref:.6f} confirms the <= 0.414 bound")


_NOISE_POINTS: dict[str, tuple[dict, dict]] = {
    "depolarizing_m": ({"p": 0.2}, {"p": 0.3}),
    "dephasing_m": ({"p": 0.3}, {"p": 0.75}),
    "adc_m": ({"gamma": 1.0, "t": 0.3}, {"gamma": 0.5, "t": 1.2}),
    "pln_m": ({"G": 1.0, "t": 0.2}, {"G": 1.0, "t": 1.5}),
    "oun_m": ({"G": 1.0, "t": 0.5}, {"G": 2.0, "t": 2.0}),
    "unruh": ({"r": np.pi / 8.0}, {"r": np.pi / 4.0}),
    "depolarizing_nm": ({"alpha": 0.5, "p": 0.1}, {"alpha": 1.0, "p": 0.1}),
    "dephasing_nm": ({"alpha": 0.8, "p": 0.2}, {"alpha": 1.0, "p": 0.45}),
    "adc_nm": ({"R": 1.0, "gamma": 1.0, "omega0": 2.0, "g": 1.0, "t": 1.0},
               {"R": 0.5, "gamma": 2.0, "omega0": 1.0, "g": 0.5, "t": 2.0}),
    "pln_nm": ({"G": 1.0, "g": 1.0, "t": 0.3}, {"G": 3.0, "g": 0.5, "t": 1.5}),
    "oun_nm": ({"G": 1.0, "g": 1.0, "t": 0.5}, {"G": 4.0, "g": 2.0, "t": 1.5}),
    "rtn_nm": ({"g": 1.0, "omega": 0.5, "t": 0.3}, {"g": 0.5, "omega": 2.0, "t": 2.0}),
}

#: noise rows for which some parameter range keeps the Bell output UQT-useful
_NOISE_UQT_YES = ("depolarizing_m", "depolarizing_nm")


def _noise_closed_forms(fam: str, params: dict) -> tuple[float, float]:
    """F and deviation of the Bell output of a noise row, from its recorded params."""
    p = params.get("p")
    if fam in ("depolarizing_m",):
        return 1.0 - 2.0 * p / 3.0, 0.0
    if fam == "depolarizing_nm":
        return 1.0 - (2.0 * p / 3.0) * (1.0 + 3.0 * params["alpha"] * (1.0 - p)), 0.0
    if fam in ("dephasing_m", "pln_m", "oun_m", "pln_nm", "oun_nm", "rtn_nm"):
        return _dephasing_law(1.0 - p)  # identity weight is 1 - p here
    if fam == "dephasing_nm":
        return _dephasing_law(1.0 - p * (1.0 + params["alpha"] * (1.0 - p)))
    if fam in ("adc_m", "adc_nm"):
        root = np.sqrt(1.0 - p)
        return 0.5 + (2.0 * root + 1.0 - p) / 6.0, root * (1.0 - root) / (3.0 * S5)
    if fam == "unruh":
        cr = np.cos(params["r"])
        return 0.5 + (cr * cr + 2.0 * cr) / 6.0, (cr - cr * cr) / (3.0 * S5)
    raise ValueError(fam)


def criterion_noise_catalog() -> tuple[bool, str]:
    """Each of the 12 physical-noise rows matches its closed-form fidelity and
    deviation at two in-range points (one stack) to 1e-10, and only the two
    depolarizing rows ever leave the Bell output UQT-useful."""
    bell = states.bell_state(1)
    ok = True
    worst = 0.0
    bad = []
    for fam, points in _NOISE_POINTS.items():
        recorded, profs = _profiles(fam, {k: [pt[k] for pt in points] for k in points[0]}, bell.rho)
        for r, (params, prof) in enumerate(zip(points, profs)):
            f_ref, d_ref = _noise_closed_forms(fam, {k: float(v[r]) for k, v in recorded.items()})
            err = max(abs(prof.f_max - f_ref), abs(prof.delta - d_ref))
            worst = max(worst, err)
            want_uqt = fam in _NOISE_UQT_YES
            if err > 1e-10 or prof.uqt != want_uqt:
                ok = False
                bad.append(f"{fam}{params}: err={err:.1e} uqt={prof.uqt} want {want_uqt}")
    detail = f"12 rows x 2 points, max closed-form err {_within(worst, 1e-10)}"
    if bad:
        detail += "; " + "; ".join(bad)
    return ok, detail


def criterion_oracle_equivalence() -> tuple[bool, str]:
    """For 100 random det(T) < 0 states the closed forms agree with the
    canonicalized protocol quadrature to 1e-6, and teleportation through a
    Bell state reproduces 50 random inputs with fidelity 1 (1e-12). The states,
    drawn in turn, and the inputs, drawn next, each go through as one stack."""
    rng = np.random.default_rng(424242)
    coef = states.pauli_coefficients(_densities([_det_negative_matrix(rng) for _ in range(100)]))
    v = states.verdicts(coef[:, 1:, 1:])
    mean, dev = oracle.canonical_moments(coef)
    worst = float(np.max(np.abs([mean - v.f_max, dev - v.delta])))
    blochs = [n / np.linalg.norm(n) for n in (rng.normal(size=3) for _ in range(50))]
    rho_in = oracle._bloch_to_rho(blochs)
    out = oracle._protocol(states.bell_state(1).rho[None], rho_in)[0]
    worst_fid = float(np.max(np.abs(1.0 - np.einsum("nab,nba->n", rho_in, out).real)))
    ok = worst <= 1e-6 and worst_fid <= 1e-12
    return ok, f"max |formula - quadrature| {_within(worst, 1e-6)}; Bell infidelity {_within(worst_fid, 1e-12)}"


def criterion_monotonicity() -> tuple[bool, str]:
    """Concurrence never increases under a channel on Bob's qubit (500 random
    state/channel pairs), and for pure inputs the maximal fidelity of the
    final state never exceeds the initial one (500 pairs), tolerance 1e-10.
    Each half draws its pairs in turn, a state or channel as Gaussians (a
    channel's those of a random_kraus draw), then builds the states as one
    stack (`_gaussian_densities`), decomposes the channels once per rank
    (`channels.isometry_stack`) and classifies them as one stack."""
    rng = np.random.default_rng(1618)
    gaussians, draws = [], []
    for _ in range(500):
        gaussians.append(rng.normal(size=(2, 4, 4)))
        draws.append(rng.normal(size=(2, 2 * int(rng.integers(1, 5)), 2)))
    initial = _densities(_gaussian_densities(np.array(gaussians)))
    final = _densities(channels.bob_action(initial, _validated(channels.isometry_stack(draws))[0]))
    worst_c = float(np.max(states.concurrences(final) - states.concurrences(initial)))
    a_values, draws = [], []
    for _ in range(500):
        a_values.append(float(rng.uniform(0.5, 1.0 - 1e-9)))
        draws.append(rng.normal(size=(2, 2 * int(rng.integers(1, 5)), 2)))
    initial = _densities(states.pure_densities(a_values))
    final = _densities(channels.bob_action(initial, _validated(channels.isometry_stack(draws))[0]))
    v0 = states.verdicts(states.hs_decompose(initial).t_mat)
    v1 = states.verdicts(states.hs_decompose(final).t_mat)
    # a det(T) >= 0 final has no fidelity formula; such states are not useful at all
    skipped = int(np.count_nonzero(~v1.formula_valid))
    worst_f = float(np.max(v1.f_max - v0.f_max, initial=-np.inf, where=v1.formula_valid))
    ok = worst_c <= 1e-10 and worst_f <= 1e-10
    return ok, (f"max concurrence increase {_within(worst_c, 1e-10)}, max fidelity increase "
                f"{_within(worst_f, 1e-10)} ({skipped} det(T)>=0 finals skipped)")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


CRITERIA: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("dephasing-bell-law", criterion_dephasing_bell_law),
    ("rank2-never-uqt", criterion_rank2_never_uqt),
    ("werner-threshold", criterion_werner_threshold),
    ("nonunital-uqt-families", criterion_nonunital_uqt_families),
    ("named-examples", criterion_named_examples),
    ("gadc-law-threshold", criterion_gadc_law_threshold),
    ("unital-pure-uqt", criterion_unital_pure_uqt),
    ("nonunital-concurrence-thresholds", criterion_nonunital_concurrence_thresholds),
    ("noise-catalog", criterion_noise_catalog),
    ("oracle-equivalence", criterion_oracle_equivalence),
    ("monotonicity", criterion_monotonicity),
)


def run_criterion(index: int) -> CriterionResult:
    name, func = CRITERIA[index - 1]
    try:
        passed, detail = func()
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(index=index, name=name, passed=bool(passed), detail=detail)


def run_all(only: int | None = None) -> list[CriterionResult]:
    if only is not None and only not in range(1, len(CRITERIA) + 1):
        raise ValueError(f"no criterion {only!r}: criteria are numbered 1..{len(CRITERIA)}")
    indices = [only] if only else range(1, len(CRITERIA) + 1)
    return [run_criterion(i) for i in indices]


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"criterion {r.index:2d} [{r.name}] {status}: {r.detail}"
