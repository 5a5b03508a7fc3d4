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

def random_density(rng: np.random.Generator) -> states.TwoQubitState:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return states.from_density(rho / np.trace(rho).real)


def random_channel(rng: np.random.Generator, rank: int) -> channels.QubitChannel:
    """Random channel with `rank` Kraus operators from a Haar-ish isometry."""
    g = rng.normal(size=(2 * rank, 2)) + 1j * rng.normal(size=(2 * rank, 2))
    q, _ = np.linalg.qr(g)
    return channels.validate(q.reshape(rank, 2, 2), name=f"random_rank{rank}")


def random_det_negative_state(rng: np.random.Generator) -> states.TwoQubitState:
    for _ in range(1000):
        st = random_density(rng)
        if float(np.linalg.det(st.hs.t_mat)) < -1e-6:
            return st
    raise RuntimeError("failed to sample a det(T) < 0 state")


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
    and the protocol simulation agrees to 1e-6."""
    bell = states.bell_state(1)
    worst_formula = 0.0
    worst_oracle = 0.0
    for p in (0.1, 0.25, 0.5, 0.75, 0.9):
        final = channels.apply_to_bob(bell, families.dephasing(p))
        prof = states.profile(final)
        f_ref, d_ref = _dephasing_law(p)
        worst_formula = max(worst_formula, abs(prof.f_max - f_ref), abs(prof.delta - d_ref))
        canonical, _ = oracle.canonicalize(final)
        mom = oracle.numeric_moments(canonical)
        worst_oracle = max(worst_oracle, abs(mom.mean_f - f_ref), abs(mom.delta - d_ref))
    ok = worst_formula <= 1e-12 and worst_oracle <= 1e-6
    return ok, f"max formula err {worst_formula:.2e} (tol 1e-12), oracle err {worst_oracle:.2e} (tol 1e-6)"


def criterion_rank2_never_uqt() -> tuple[bool, str]:
    """No channel with a rank-2 Choi state sends a Bell state to a UQT-useful
    final state (1000 random draws)."""
    rng = np.random.default_rng(20240811)
    hits = 0
    for _ in range(1000):
        ch = random_channel(rng, rank=2)
        prof = states.profile(channels.choi(ch))
        if prof.uqt:
            hits += 1
    return hits == 0, f"{hits}/1000 rank-2 channels produced a UQT-useful state"


def criterion_werner_threshold() -> tuple[bool, str]:
    """Usefulness of the Werner output flips at p = 1/2 (bisection 1e-8), and
    the Werner family gives UQT states with vanishing deviation above it."""
    res = explorer.find_threshold("werner", "p", (0.3, 0.9), "useful", tol=1e-8)
    err = abs(res.critical_value - 0.5)
    ok = err <= 1e-8
    details = [f"threshold err {err:.2e}"]
    for p in (0.6, 0.8, 0.95):
        prof = states.profile(channels.choi(families.werner(p)))
        ok &= prof.uqt and prof.delta <= 1e-12
        details.append(f"p={p}: uqt={prof.uqt} delta={prof.delta:.1e}")
    return ok, "; ".join(details)


def criterion_nonunital_uqt_families() -> tuple[bool, str]:
    """500 random points of the rank-4 family and 500 of the rank-3 family are
    valid non-unital channels whose Choi states have all correlation
    magnitudes equal to t (1e-10), deviation <= 1e-12, F = (1+t)/2 (1e-12),
    the advertised Choi ranks, and strictly ordered Choi eigenvalues."""
    rng = np.random.default_rng(777)
    worst = {"abs_t": 0.0, "delta": 0.0, "f": 0.0}
    ok = True
    msgs = []
    for kind in ("rank4", "rank3"):
        for _ in range(500):
            if kind == "rank4":
                params = families.FAMILIES["uqt_nonunital_rank4"].sample_params(rng)
                t = params["t"]
                ch = families.uqt_nonunital_rank4(**params)
                want_rank = 4
            else:
                t = float(rng.uniform(1.0 / 3.0 + 1e-3, 1.0 - 1e-3))
                theta = float(rng.uniform(0.0, np.pi))
                phi = float(rng.uniform(0.0, 2.0 * np.pi))
                ch = families.uqt_nonunital_rank3(theta, phi, t)
                want_rank = 3
            rep = channels.report(ch)
            cs = rep.choi
            prof = states.profile(cs)
            worst["abs_t"] = max(worst["abs_t"], float(np.max(np.abs(prof.spectrum.abs_t - t))))
            worst["delta"] = max(worst["delta"], prof.delta)
            worst["f"] = max(worst["f"], abs(prof.f_max - (1.0 + t) / 2.0))
            dec = cs.eig
            strict = all(dec.eigenvalues[i] > dec.eigenvalues[i + 1]
                         for i in range(want_rank - 1))
            if rep.unital or rep.choi_rank != want_rank or not strict or not prof.uqt:
                ok = False
                msgs.append(f"{kind}: unital={rep.unital} rank={rep.choi_rank} "
                            f"strict={strict} uqt={prof.uqt}")
                break
    ok &= worst["abs_t"] <= 1e-10 and worst["delta"] <= 1e-12 and worst["f"] <= 1e-12
    msgs.append(f"max |abs_t - t| {worst['abs_t']:.1e}, delta {worst['delta']:.1e}, "
                f"|F - (1+t)/2| {worst['f']:.1e}")
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
    to 1e-12 and loses usefulness at gamma = 2(sqrt(2)-1) (1e-8)."""
    bell = states.bell_state(1)
    worst = 0.0
    for gamma in (0.1, 0.5, 0.82):
        prof = states.profile(channels.apply_to_bob(bell, families.gadc(gamma, 0.7)))
        root = np.sqrt(1.0 - gamma)
        f_ref = 0.5 + (2.0 * root + (1.0 - gamma)) / 6.0
        d_ref = root * (1.0 - root) / (3.0 * S5)
        worst = max(worst, abs(prof.f_max - f_ref), abs(prof.delta - d_ref))
    res = explorer.find_threshold("gadc", "gamma", (0.1, 1.0), "useful",
                                  tol=1e-8, fixed={"N": 0.7})
    thr_err = abs(res.critical_value - 2.0 * (np.sqrt(2.0) - 1.0))
    ok = worst <= 1e-12 and thr_err <= 1e-8
    return ok, f"max closed-form err {worst:.2e} (tol 1e-12), threshold err {thr_err:.2e} (tol 1e-8)"


def _pauli_grid_has_uqt(c: float, n_grid: int = 200) -> bool:
    """Vectorized scan of Pauli mixtures applied to |Psi_a> with concurrence c.

    Universality forces a pair of equal weights, so the grid covers the two
    strata p1 = p2 and p0 = p3 over (p0, p1), each classified in one
    states.verdicts call.
    """
    psi = states.pure_state_from_concurrence(c)
    # conjugated states (I x sigma_i) rho (I x sigma_i): channel output is
    # their p-weighted mix, so the correlation data is linear in the weights
    t_parts = []
    for sig in linalg.PAULIS:
        t_parts.append(channels.apply_to_bob(psi, channels.validate([sig])).hs.t_mat)
    t_parts = np.array(t_parts)

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
    """The matched Pauli mixture makes |Psi_a> UQT-useful for concurrences
    above 1/2, while a 200x200 grid of Pauli mixtures finds none at C = 0.45."""
    ok = True
    details = []
    for c in (0.55, 0.7, 0.9):
        lo = (1.0 + 2.0 * c) / (6.0 * c)
        hi = 1.0 / (2.0 - c)
        ch = families.uqt_unital_for_pure(c, (lo + hi) / 2.0)
        prof = states.profile(channels.apply_to_bob(states.pure_state_from_concurrence(c), ch))
        ok &= prof.uqt and prof.delta <= 1e-12
        details.append(f"C={c}: uqt={prof.uqt}")
    found = _pauli_grid_has_uqt(0.45)
    ok &= not found
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


def _noise_closed_forms(fam: str, ch: channels.QubitChannel) -> tuple[float, float]:
    p = ch.params.get("p")
    if fam in ("depolarizing_m",):
        return 1.0 - 2.0 * p / 3.0, 0.0
    if fam == "depolarizing_nm":
        alpha = ch.params["alpha"]
        return 1.0 - (2.0 * p / 3.0) * (1.0 + 3.0 * alpha * (1.0 - p)), 0.0
    if fam in ("dephasing_m", "pln_m", "oun_m", "pln_nm", "oun_nm", "rtn_nm"):
        f, d = _dephasing_law(1.0 - p)  # identity weight is 1 - p here
        return f, d
    if fam == "dephasing_nm":
        alpha = ch.params["alpha"]
        f, d = _dephasing_law(1.0 - p * (1.0 + alpha * (1.0 - p)))
        return f, d
    if fam in ("adc_m", "adc_nm"):
        root = np.sqrt(1.0 - p)
        return 0.5 + (2.0 * root + 1.0 - p) / 6.0, root * (1.0 - root) / (3.0 * S5)
    if fam == "unruh":
        cr = np.cos(ch.params["r"])
        return 0.5 + (cr * cr + 2.0 * cr) / 6.0, (cr - cr * cr) / (3.0 * S5)
    raise ValueError(fam)


def criterion_noise_catalog() -> tuple[bool, str]:
    """Each of the 12 physical-noise rows matches its closed-form fidelity and
    deviation at two in-range points to 1e-10, and only the two depolarizing
    rows ever leave the Bell output UQT-useful."""
    bell = states.bell_state(1)
    ok = True
    worst = 0.0
    bad = []
    for fam, points in _NOISE_POINTS.items():
        for params in points:
            ch = families.noise_channel(fam, **params)
            prof = states.profile(channels.apply_to_bob(bell, ch))
            f_ref, d_ref = _noise_closed_forms(fam, ch)
            err = max(abs(prof.f_max - f_ref), abs(prof.delta - d_ref))
            worst = max(worst, err)
            want_uqt = fam in _NOISE_UQT_YES
            if err > 1e-10 or prof.uqt != want_uqt:
                ok = False
                bad.append(f"{fam}{params}: err={err:.1e} uqt={prof.uqt} want {want_uqt}")
    detail = f"12 rows x 2 points, max closed-form err {worst:.2e} (tol 1e-10)"
    if bad:
        detail += "; " + "; ".join(bad)
    return ok, detail


def criterion_oracle_equivalence() -> tuple[bool, str]:
    """For 100 random det(T) < 0 states the closed forms agree with the
    canonicalized protocol quadrature to 1e-6, and teleportation through a
    Bell state reproduces 50 random inputs with fidelity 1 (1e-12)."""
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(100):
        st = random_det_negative_state(rng)
        prof = states.profile(st)
        canonical, _ = oracle.canonicalize(st)
        mom = oracle.numeric_moments(canonical)
        worst = max(worst, abs(mom.mean_f - prof.f_max), abs(mom.delta - prof.delta))
    bell = states.bell_state(1)
    worst_fid = 0.0
    for _ in range(50):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        out = oracle.teleport_output(bell, n)
        rho_in = 0.5 * (linalg.I2 + n[0] * linalg.SX + n[1] * linalg.SY + n[2] * linalg.SZ)
        fid = float(np.trace(rho_in @ out).real)
        worst_fid = max(worst_fid, abs(1.0 - fid))
    ok = worst <= 1e-6 and worst_fid <= 1e-12
    return ok, f"max |formula - quadrature| {worst:.2e} (tol 1e-6); Bell infidelity {worst_fid:.2e} (tol 1e-12)"


def criterion_monotonicity() -> tuple[bool, str]:
    """Concurrence never increases under a channel on Bob's qubit (500 random
    state/channel pairs), and for pure inputs the maximal fidelity of the
    final state never exceeds the initial one (500 pairs), tolerance 1e-10."""
    rng = np.random.default_rng(1618)
    worst_c = -np.inf
    for _ in range(500):
        st = random_density(rng)
        ch = random_channel(rng, rank=int(rng.integers(1, 5)))
        worst_c = max(worst_c,
                      states.concurrence(channels.apply_to_bob(st, ch)) - states.concurrence(st))
    worst_f = -np.inf
    skipped = 0
    for _ in range(500):
        a = float(rng.uniform(0.5, 1.0 - 1e-9))
        st = states.pure_state(a)
        ch = random_channel(rng, rank=int(rng.integers(1, 5)))
        prof0 = states.profile(st)
        prof1 = states.profile(channels.apply_to_bob(st, ch))
        if not prof1.formula_valid:
            skipped += 1  # no fidelity formula; such states are not useful at all
            continue
        worst_f = max(worst_f, prof1.f_max - prof0.f_max)
    ok = worst_c <= 1e-10 and worst_f <= 1e-10
    return ok, (f"max concurrence increase {worst_c:.2e}, max fidelity increase "
                f"{worst_f:.2e} (tol 1e-10; {skipped} det(T)>=0 finals skipped)")


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
    return CriterionResult(index=index, name=name, passed=passed, detail=detail)


def run_all(only: int | None = None) -> list[CriterionResult]:
    indices = [only] if only else range(1, len(CRITERIA) + 1)
    return [run_criterion(i) for i in indices]


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"criterion {r.index:2d} [{r.name}] {status}: {r.detail}"
