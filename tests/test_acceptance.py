"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them all).

Criteria 1, 2, 4, 10 and 11 classify their draws as one stack; the scalar
loops below are their references, one draw at a time through the
one-member paths (`random_kraus`, `validate`, `from_density`, `profile`,
`concurrence`, `canonicalize`, `numeric_moments`, `teleport_output`)."""

import dataclasses
import gc
import itertools
import json
import re
import weakref

import numpy as np
import pytest

from uqtchan import acceptance, channels, families, linalg, oracle, states


@pytest.mark.parametrize(
    "index", range(1, len(acceptance.CRITERIA) + 1),
    ids=[name for name, _ in acceptance.CRITERIA])
def test_acceptance_criterion(index):
    result = acceptance.run_criterion(index)
    print(acceptance.format_result(result))
    assert result.passed, acceptance.format_result(result)
    assert type(result.passed) is bool  # not a numpy bool, which JSON rejects
    assert json.loads(json.dumps(dataclasses.asdict(result))) == dataclasses.asdict(result)


@pytest.mark.parametrize("only", [0, 12, -1])
def test_run_all_rejects_an_index_that_names_no_criterion(monkeypatch, only):
    monkeypatch.setattr(acceptance, "run_criterion", lambda i: pytest.fail(f"ran {i}"))
    with pytest.raises(ValueError, match=r"no criterion .*1\.\.11"):
        acceptance.run_all(only=only)


# ---------------------------------------------------------------------------
# scalar references of the stacked criteria
# ---------------------------------------------------------------------------

def _random_channel(rng, rank):
    return channels.validate(channels.random_kraus(rng, rank), name=f"random_rank{rank}")


def _reference_rank2_never_uqt():
    rng = np.random.default_rng(20240811)
    hits = 0
    for _ in range(1000):
        ch = _random_channel(rng, rank=2)
        prof = states.profile(channels.choi(ch))
        if prof.uqt:
            hits += 1
    return hits == 0, f"{hits}/1000 rank-2 channels produced a UQT-useful state"


def _reference_nonunital_uqt_families():
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
            worst["abs_t"] = max(worst["abs_t"], float(np.max(np.abs(prof.abs_t - t))))
            worst["delta"] = max(worst["delta"], prof.delta)
            worst["f"] = max(worst["f"], abs(prof.f_max - (1.0 + t) / 2.0))
            vals = linalg.hermitian_eig(cs.rho).eigenvalues
            strict = all(vals[i] > vals[i + 1] for i in range(want_rank - 1))
            if rep.unital or rep.choi_rank != want_rank or not strict or not prof.uqt:
                ok = False
                msgs.append(f"{kind}: unital={rep.unital} rank={rep.choi_rank} "
                            f"strict={strict} uqt={prof.uqt}")
                break
    ok &= worst["abs_t"] <= 1e-10 and worst["delta"] <= 1e-12 and worst["f"] <= 1e-12
    within = acceptance._within
    msgs.append(f"max |abs_t - t| {within(worst['abs_t'], 1e-10)}, "
                f"delta {within(worst['delta'], 1e-12)}, |F - (1+t)/2| {within(worst['f'], 1e-12)}")
    return ok, "; ".join(msgs)


def _reference_monotonicity():
    rng = np.random.default_rng(1618)
    worst_c = -np.inf
    for _ in range(500):
        st = states.from_density(acceptance._random_density_matrix(rng))
        ch = _random_channel(rng, rank=int(rng.integers(1, 5)))
        worst_c = max(worst_c,
                      states.concurrence(channels.apply_to_bob(st, ch)) - states.concurrence(st))
    worst_f = -np.inf
    skipped = 0
    for _ in range(500):
        a = float(rng.uniform(0.5, 1.0 - 1e-9))
        st = states.pure_state(a)
        ch = _random_channel(rng, rank=int(rng.integers(1, 5)))
        prof0 = states.profile(st)
        prof1 = states.profile(channels.apply_to_bob(st, ch))
        if not prof1.formula_valid:
            skipped += 1
            continue
        worst_f = max(worst_f, prof1.f_max - prof0.f_max)
    ok = worst_c <= 1e-10 and worst_f <= 1e-10
    return ok, (f"max concurrence increase {worst_c:.2e}, max fidelity increase "
                f"{worst_f:.2e} (tol 1e-10; {skipped} det(T)>=0 finals skipped)")


def _reference_dephasing_bell_law():
    bell = states.bell_state(1)
    worst_formula = worst_oracle = 0.0
    for p in (0.1, 0.25, 0.5, 0.75, 0.9):
        final = channels.apply_to_bob(bell, families.dephasing(p))
        prof = states.profile(final)
        f_ref, d_ref = acceptance._dephasing_law(p)
        worst_formula = max(worst_formula, abs(prof.f_max - f_ref), abs(prof.delta - d_ref))
        mom = oracle.numeric_moments(oracle.canonicalize(final)[0])
        worst_oracle = max(worst_oracle, abs(mom.mean_f - f_ref), abs(mom.delta - d_ref))
    return worst_formula <= 1e-12 and worst_oracle <= 1e-6, (worst_formula, worst_oracle)


def _random_det_negative_state(rng):
    for _ in range(1000):
        st = states.from_density(acceptance._random_density_matrix(rng))
        if float(np.linalg.det(st.hs.t_mat)) < -1e-6:
            return st
    raise RuntimeError("failed to sample a det(T) < 0 state")


def _reference_oracle_equivalence():
    rng = np.random.default_rng(424242)
    worst = 0.0
    drawn = []
    for _ in range(100):
        st = _random_det_negative_state(rng)
        drawn.append(st)
        prof = states.profile(st)
        mom = oracle.numeric_moments(oracle.canonicalize(st)[0])
        worst = max(worst, abs(mom.mean_f - prof.f_max), abs(mom.delta - prof.delta))
    state_after = rng.bit_generator.state
    worst_fid = 0.0
    for _ in range(50):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        out = oracle.teleport_output(states.bell_state(1), n)
        rho_in = 0.5 * (linalg.I2 + n[0] * linalg.SX + n[1] * linalg.SY + n[2] * linalg.SZ)
        worst_fid = max(worst_fid, abs(1.0 - float(np.trace(rho_in @ out).real)))
    return worst <= 1e-6 and worst_fid <= 1e-12, (worst, worst_fid), drawn, state_after


def test_criterion_1_agrees_with_its_scalar_reference():
    result = acceptance.run_criterion(1)
    passed, errors = _reference_dephasing_bell_law()
    printed = [float(x) for x in re.findall(r"err (\S+) \(tol", result.detail)]
    assert result.passed == passed and len(printed) == 2
    assert max(printed) <= 1e-15 and max(errors) <= 1e-15  # both at rounding level


def test_criterion_10_draws_what_the_scalar_loop_draws():
    # the same 100 accepted states, the same stream after them for the Bell
    # inputs, and moments at rounding level against the closed forms, as
    # the scalar loop through the 64 x 64 rule finds them
    result = acceptance.run_criterion(10)
    passed, errors, drawn, state_after = _reference_oracle_equivalence()
    rng = np.random.default_rng(424242)
    mats = [acceptance._det_negative_matrix(rng) for _ in range(100)]
    for st, m in zip(drawn, mats):
        assert states.from_density(m).rho.tobytes() == st.rho.tobytes()
    assert rng.bit_generator.state == state_after
    printed = [float(x) for x in re.findall(r"(\S+) \(tol", result.detail)]
    assert result.passed == passed and len(printed) == 2
    assert max(printed) <= 1e-15 and max(errors) <= 1e-15


REFERENCES = {2: _reference_rank2_never_uqt, 4: _reference_nonunital_uqt_families,
              11: _reference_monotonicity}


def _as_result(func):
    """What run_criterion makes of func's outcome, raised errors included."""
    try:
        passed, detail = func()
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return bool(passed), detail


@pytest.mark.parametrize("index", sorted(REFERENCES), ids=lambda i: acceptance.CRITERIA[i - 1][0])
def test_stacked_criterion_matches_its_scalar_reference(index):
    result = acceptance.run_criterion(index)
    assert (result.passed, result.detail) == _as_result(REFERENCES[index])


# ---------------------------------------------------------------------------
# an invalid draw fails the criterion: a rejected member's Choi matrix is
# zero, and T = 0 would read as "not UQT", i.e. as a pass
# ---------------------------------------------------------------------------

class _Drawn(Exception):
    """Stops a scalar reference at the draw `_break_draw` looks for."""


def _break_draw(monkeypatch, index, at):
    """channels.isometry_kraus with the Kraus operators of draw `at` of
    criterion `index` doubled, which breaks completeness; the generator
    stream is unchanged. The draw is the one the scalar reference makes
    `at`-th, and it is found by its Gaussians wherever a stack holds it."""
    real = channels.isometry_kraus
    drawn = []

    def record(g):
        drawn.append(g)
        if len(drawn) > at:
            raise _Drawn
        return real(g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channels, "isometry_kraus", record)
        with pytest.raises(_Drawn):
            REFERENCES[index]()
    target = drawn[at]

    def isometry_kraus(g):
        ops = real(g)
        if g.shape[-2:] != target.shape:
            return ops
        hit = (g == target).all(axis=(-2, -1))
        return np.where(hit[..., None, None, None], 2.0 * ops, ops)

    monkeypatch.setattr(channels, "isometry_kraus", isometry_kraus)


@pytest.mark.parametrize("index,at", [(2, 517), (11, 137), (11, 871)])
def test_an_incomplete_draw_fails_the_criterion(monkeypatch, index, at):
    _break_draw(monkeypatch, index, at)
    result = acceptance.run_criterion(index)
    assert result.passed is False
    assert result.detail.startswith("raised ChannelValidationError: completeness violated")
    # the scalar loop, through the same patch, stops at the same draw
    assert (result.passed, result.detail) == _as_result(REFERENCES[index])


@pytest.mark.parametrize("index", [2, 11], ids=["rank2-never-uqt", "monotonicity"])
def test_criterion_draws_what_the_scalar_loop_draws(monkeypatch, index):
    # the stacks the criterion validates hold the Kraus operators of the
    # scalar loop's random_kraus draws bit for bit (zero-padded), and its
    # generator ends in the state the scalar loop leaves
    generators, stacks, singles = [], [], []
    real_rng, real_validated, real_draw = (np.random.default_rng, acceptance._validated,
                                           channels.random_kraus)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: generators.append(real_rng(seed)) or generators[-1])
    monkeypatch.setattr(acceptance, "_validated",
                        lambda kraus: stacks.append(np.array(kraus)) or real_validated(kraus))
    monkeypatch.setattr(channels, "random_kraus",
                        lambda rng, rank: singles.append(real_draw(rng, rank)) or singles[-1])
    result = acceptance.run_criterion(index)
    (rng,) = generators
    assert result.passed and not singles
    _as_result(REFERENCES[index])
    assert len(generators) == 2 and rng.bit_generator.state == generators[1].bit_generator.state
    stack = np.concatenate(stacks)
    assert len(stack) == len(singles) == 1000
    for member, ops in zip(stack, singles):
        assert member[:len(ops)].tobytes() == ops.tobytes() and not member[len(ops):].any()


def _make_unital(params):
    return {**params, "s1": 0.0, "s2": 0.0, "s3": 1e-12}


def _make_rank_deficient(params):
    t = params["t"]
    s = np.array([params["s1"], params["s2"], params["s3"]])
    s *= (1.0 - t) * (1.0 - 1e-12) / np.linalg.norm(s)  # |s| just below 1 - t
    return {**params, "s1": float(s[0]), "s2": float(s[1]), "s3": float(s[2])}


def _make_out_of_range(params):
    return {**params, "t": 2.0}


@pytest.mark.parametrize("change,detail", [
    (_make_unital, "rank4: unital=True rank=4 strict=True uqt=True; "),
    (_make_rank_deficient, "rank4: unital=False rank=3 strict=True uqt=True; "),
    (_make_out_of_range, "raised ValueError: uqt_nonunital_rank4: t must lie in (0.333333, 1), got 2.0"),
], ids=["unital", "rank-deficient", "out-of-range"])
def test_a_bad_family_member_fails_criterion_4(monkeypatch, change, detail):
    fam = families.FAMILIES["uqt_nonunital_rank4"]
    draws = itertools.count()

    def sampler(rng):
        params = fam.sampler(rng)
        return change(params) if next(draws) == 250 else params

    monkeypatch.setitem(families.FAMILIES, fam.family_id, dataclasses.replace(fam, sampler=sampler))
    result = acceptance.run_criterion(4)
    assert result.passed is False
    assert result.detail.startswith(detail)



def _raise_a_gadc_build_error():
    block = families.checked_rows("gadc", {"gamma": [0.5, 2.0], "N": [0.5, 0.5]})
    acceptance._raise_first(block.errors)


@pytest.mark.parametrize("module,name,fail", [
    (channels, "validate_stack", lambda: acceptance._validated(np.array([[2.0 * np.eye(2)]]))),
    (states, "density_stack",
     lambda: acceptance._densities(np.diag([0.7, 0.5, -0.1, -0.1])[None])),
    (families, "checked_rows", _raise_a_gadc_build_error),
], ids=["validate_stack", "density_stack", "checked_rows"])
def test_a_raised_stack_error_is_freed_without_the_collector(monkeypatch, module, name, fail):
    # a raised error that a list in a frame of its traceback still held would
    # form a cycle with that traceback, alive until the collector ran, and
    # keep the stack that made it alive too (the Kraus array of a
    # validate_stack result, else the result itself)
    real, stacks, errors = getattr(module, name), [], []

    def spy(*args):
        out = real(*args)
        stacks.append(weakref.ref(out[0] if isinstance(out, tuple) else out))
        return out
    monkeypatch.setattr(module, name, spy)
    gc.disable()
    try:
        try:
            fail()
        except channels.ChannelValidationError as exc:  # plain ValueErrors take no weak reference
            errors.append(weakref.ref(exc))
        except ValueError:
            pass
        else:
            pytest.fail("no error was raised")
        alive = [ref() is not None for ref in stacks + errors]
    finally:
        gc.enable()
    assert len(stacks) == 1 and not any(alive)
