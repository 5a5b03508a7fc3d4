import dataclasses
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqtchan
from uqtchan import acceptance, channels, cli, explorer, families, linalg, oracle, states
from uqtchan.explorer import (
    CSV_FIELDS,
    Axis,
    SweepSpec,
    SweepSpecError,
    analyze,
    evaluate_point,
    find_threshold,
    random_nonunital_channel,
    run_sweep,
    search_uqt,
    sweep_to_csv,
)

from conftest import (JSON_NUMBERS, JSON_VALUES, NUMBER_LOOKALIKES, completeness_residual,
                      kraus_stack, load_script, unitality_residual)

S5 = np.sqrt(5.0)


def make_spec(family_id, params, axes, initial="bell1", **kw):
    return SweepSpec(family=families.FamilySpec(family_id, params),
                     axes=tuple(Axis(*a) for a in axes), initial=initial, **kw)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_dephasing_law():
    spec = make_spec("dephasing", {}, [("p", 0.1, 0.9, 0.1)])
    result = run_sweep(spec)
    assert result.oracle_failures == 0
    assert len(result.rows) == 9
    i_f = result.header.index("f_max")
    i_d = result.header.index("delta")
    for row in result.rows:
        p = row[1]
        f_ref = (2 * p + 1) / 3 if p > 0.5 else (2 / 3 if p == 0.5 else 1 - 2 * p / 3)
        d_ref = 2 * (1 - p) / (3 * S5) if p > 0.5 else (1 / (3 * S5) if p == 0.5 else 2 * p / (3 * S5))
        assert row[i_f] == pytest.approx(f_ref, abs=1e-12)
        assert row[i_d] == pytest.approx(d_ref, abs=1e-12)


def test_sweep_depolarizing_usefulness():
    spec = make_spec("depolarizing_m", {}, [("p", 0.0, 0.74, 0.02)])
    result = run_sweep(spec)
    i_f = result.header.index("f_max")
    i_useful = result.header.index("useful")
    for row in result.rows:
        p = row[1]
        assert row[i_f] == pytest.approx(1 - 2 * p / 3, abs=1e-12)
        assert row[i_useful] == (p < 0.5)


def test_sweep_lambda_star_uqt_flip():
    spec = make_spec("lambda_star_nu", {}, [("p1", 0.3, 0.6, 0.01)], initial="matched")
    result = run_sweep(spec)
    i_uqt = result.header.index("uqt")
    flips = [row[1] for row in result.rows if row[i_uqt]]
    threshold = np.sqrt(5 - 2 * np.sqrt(3)) / 3
    assert min(flips) == pytest.approx(0.42, abs=1e-9)  # first grid point above 0.41310
    assert all(c > threshold for c in flips)


def test_sweep_marks_invalid_rows_and_continues():
    spec = make_spec("depolarizing_nm", {"alpha": 1.0}, [("p", 0.0, 0.5, 0.1)])
    result = run_sweep(spec)
    assert len(result.rows) == 6
    errors = [row[-1] for row in result.rows]
    assert any("3 alpha p" in e for e in errors)  # p > 1/3 region marked invalid
    assert any(e == "" for e in errors)


def test_sweep_csv_deterministic_and_formatted(tmp_path):
    spec = make_spec("gadc", {"N": 0.7}, [("gamma", 0.1, 0.5, 0.1)])
    text1 = sweep_to_csv(run_sweep(spec))
    text2 = sweep_to_csv(run_sweep(spec))
    assert text1 == text2
    header = text1.splitlines()[0]
    assert header == ("family,param:gamma,f_max,delta,det_t,choi_rank,unital,"
                      "useful,universal,uqt,oracle_checked,error")
    first = text1.splitlines()[1].split(",")
    assert first[0] == "gadc"
    assert float(first[2]) > 0.9  # 17-significant-digit float round trips
    assert first[10] == "true"  # row 0 oracle-checked


def test_sweep_output_subset():
    spec = make_spec("dephasing", {}, [("p", 0.2, 0.4, 0.1)], outputs=("f_max", "uqt"))
    result = run_sweep(spec)
    assert result.header == ("family", "param:p", "f_max", "uqt", "error")


def test_sweep_spec_from_jsonable_errors():
    with pytest.raises(SweepSpecError):
        SweepSpec.from_jsonable({"axes": []})
    with pytest.raises(SweepSpecError):
        SweepSpec.from_jsonable({"family": {"id": "dephasing"}, "axes": [
            {"param": "p", "start": 0, "stop": 1, "step": 0.1}], "outputs": ["nope"]})
    for outputs in ("f_max", ["f_max", "f_max"]):  # not split into letters, nor written twice
        with pytest.raises(SweepSpecError, match="outputs must be a list of distinct field names"):
            SweepSpec.from_jsonable({"family": {"id": "dephasing"}, "outputs": outputs, "axes": [
                {"param": "p", "start": 0, "stop": 1, "step": 0.1}]})
    # a sweep is a deterministic grid: "seed", like any unknown key, is ignored
    spec = SweepSpec.from_jsonable({
        "family": {"id": "dephasing"}, "seed": "none",
        "axes": [{"param": "p", "start": 0.1, "stop": 0.3, "step": 0.1}]})
    assert spec.family.family_id == "dephasing"


_NUMBER_SLOT = JSON_NUMBERS | NUMBER_LOOKALIKES | JSON_VALUES
_AXIS_DOCS = st.fixed_dictionaries(
    {"param": st.sampled_from(["gamma", "N", "C", "p1", "x"]) | JSON_VALUES,
     "start": _NUMBER_SLOT, "stop": _NUMBER_SLOT, "step": _NUMBER_SLOT})
_ROUGH_SWEEP_DOCS = st.one_of(JSON_VALUES, st.fixed_dictionaries(
    {"family": st.fixed_dictionaries(
        {"id": st.sampled_from(["gadc", "lambda_tilde_nu"]) | JSON_VALUES},
        optional={"params": st.dictionaries(st.sampled_from(["N", "gamma", "p2", "C"]),
                                            _NUMBER_SLOT, max_size=2)
                  | JSON_VALUES}) | JSON_VALUES,
     "axes": st.lists(_AXIS_DOCS | JSON_VALUES, max_size=2) | JSON_VALUES},
    optional={"initial": st.sampled_from(["bell1", "matched"]) | JSON_VALUES,
              "outputs": st.lists(st.sampled_from(CSV_FIELDS), max_size=2) | JSON_VALUES}))


@st.composite
def _well_formed_sweep_docs(draw):
    """A document that sets every parameter of its family once, by one or
    two axes of at most two points and fixed params, with values around
    and beyond the ranges: an accepted spec of at most 4 rows."""
    family_id = draw(st.sampled_from(["gadc", "lambda_tilde_nu", "werner", "uqt_nonunital_rank4",
                                      "adc_nm", "pauli_mixture"]))
    names = [spec.name for spec in families.FAMILIES[family_id].params]
    swept = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    value = st.floats(-0.2, 1.2) | st.sampled_from([0, 1, 0.5, 1e-300])
    axes = []
    for name in swept:
        start, step = draw(value), draw(st.floats(0.05, 0.5))
        axes.append({"param": name, "start": start, "step": step,
                     "stop": start + draw(st.sampled_from([0.0, 1.0])) * step})
    doc = {"family": {"id": family_id, "params": {n: draw(value) for n in names if n not in swept}},
           "axes": axes}
    if family_id in families.MATCHED_CONCURRENCE_IDS:
        doc["initial"] = draw(st.sampled_from(["bell1", "matched"]))
    return doc


#: sweep documents, three in four of them well formed
SWEEP_DOCS = st.integers(0, 3).flatmap(
    lambda k: _well_formed_sweep_docs() if k else _ROUGH_SWEEP_DOCS)


@settings(max_examples=200, deadline=None)
@given(SWEEP_DOCS)
def test_sweep_documents_end_in_a_spec_or_a_spec_error(doc):
    # and a spec of at most 4 rows ends in a result or a spec error too; a
    # result has one row per grid point, each with its values or its error
    try:
        spec = SweepSpec.from_jsonable(doc)
        total = math.prod(ax.count() for ax in spec.axes)
    except SweepSpecError:
        return
    assert all(isinstance(v, float) and math.isfinite(v) for v in spec.family.params.values())
    numbers = [*doc["family"].get("params", {}).values(),
               *(a[k] for a in doc["axes"] for k in ("start", "stop", "step"))]
    assert all(type(x) in (int, float) for x in numbers)  # JSON numbers, not bools or strings
    if total <= 4:
        try:
            result = run_sweep(spec)
        except SweepSpecError:
            return
        assert len(result.rows) == total
        for row in result.rows:
            values = dict(zip(result.header, row))
            assert bool(values["error"]) == all(values[k] is None for k in spec.outputs), row


@pytest.mark.parametrize("family_id,fixed,axes", [
    ("gadc", {"N": 0.1}, [("gamma", 0.1, 0.2, 0.1), ("gamma", 0.5, 0.6, 0.1)]),
    ("gadc", {"N": 0.1, "gamma": 0.2}, [("gamma", 0.1, 0.2, 0.1)]),
    ("lambda_tilde_nu", {"p2": 0.1}, [("C", 0.5, 0.6, 0.1), ("p1", 0.5, 0.6, 0.1)]),
    ("lambda_tilde_nu", {"concurrence": 0.6}, [("p2", 0.1, 0.2, 0.1), ("p1", 0.5, 0.6, 0.1)]),
])
def test_sweep_rejects_an_axis_that_repeats_a_parameter(family_id, fixed, axes):
    # two axes (or an axis and a fixed param) on one parameter, directly or
    # through a concurrence alias, would give rows computed at one value
    # while labelled with another
    with pytest.raises(SweepSpecError, match="both set"):
        run_sweep(make_spec(family_id, fixed, axes))


@pytest.mark.parametrize("fixed,axes,message", [
    ({"N": 0.1}, [("x", 0.1, 0.3, 0.1)], "gadc: unknown parameter 'x'"),
    ({"N": 0.1, "x": 0.2}, [("gamma", 0.1, 0.3, 0.1)], "gadc: unknown parameter 'x'"),
    ({}, [("gamma", 0.1, 0.3, 0.1)], "gadc: missing parameters ['N']"),
])
def test_sweep_rejects_a_name_every_row_shares(monkeypatch, fixed, axes, message):
    # an unknown or missing name would fail every row alike: it fails the spec
    monkeypatch.setattr(explorer, "_classify_rows", lambda *args: pytest.fail("a row was built"))
    with pytest.raises(SweepSpecError) as info:
        run_sweep(make_spec("gadc", fixed, axes))
    assert str(info.value).startswith(message)


def test_sweep_grid_cap():
    spec = make_spec("dephasing", {}, [("p", 0.0, 1.0, 1e-8)])
    with pytest.raises(SweepSpecError, match="cap"):
        run_sweep(spec)


def test_axis_validation():
    with pytest.raises(SweepSpecError, match="step"):
        Axis("p", 0.0, 1.0, -0.1).values()
    with pytest.raises(SweepSpecError, match="start"):
        Axis("p", 1.0, 0.0, 0.1).values()


def test_axis_count_absorbs_the_rounding_of_its_span():
    # 0.3 / 0.1 is 2.9999999999999996, which floors to 2 without the 1e-9
    axis = Axis("p", 0.0, 0.3, 0.1)
    assert (axis.stop - axis.start) / axis.step < 3.0
    assert axis.count() == 4 and len(axis.values()) == 4


def test_sweep_reads_a_unitality_residual_within_eps_cptp_as_unital():
    # gadc at N = 1/2 + 1e-10 has a unitality residual of about 6e-11: within
    # EPS_CPTP, but not within 1e-12, so the row must read unital as report does
    ch = families.noise_channel("gadc", gamma=0.3, N=0.5 + 1e-10)
    assert 1e-12 < ch.unitality_residual <= channels.EPS_CPTP
    assert channels.report(ch).unital
    result = run_sweep(make_spec("gadc", {"N": 0.5 + 1e-10}, [("gamma", 0.3, 0.3, 0.1)]))
    assert [row[result.header.index("unital")] for row in result.rows] == [True]


def assert_same_results(got, expected, where="value"):
    """Every non-float value, type, key and order equal; floats equal to
    within 1e-12, rounding of a different but equivalent computation."""
    assert type(got) is type(expected), (where, got, expected)
    if isinstance(got, float):
        assert got == expected or abs(got - expected) <= 1e-12, (where, got, expected)
    elif isinstance(got, dict):
        assert list(got) == list(expected), (where, list(got), list(expected))
        for key in got:
            assert_same_results(got[key], expected[key], f"{where}[{key!r}]")
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(expected), (where, got, expected)
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_same_results(g, e, f"{where}[{i}]")
    else:
        assert got == expected, (where, got, expected)


def scalar_row(family_id, params, initial):
    """The value and error columns of a grid row, built from evaluate_point
    and report one point at a time, and whether its oracle check failed:
    every valid row is checked."""
    try:
        ch, final, prof = evaluate_point(family_id, params, initial)
    except ValueError as exc:
        return (None,) * len(CSV_FIELDS) + (str(exc),), False
    rep = channels.report(ch)
    failed = not explorer.oracle_check(final, prof)[0]
    return (prof.f_max, prof.delta, prof.det_t, rep.choi_rank, rep.unital, prof.useful,
            prof.universal, prof.uqt, True, ""), failed


#: in-range draws are replaced by these: out of range, non-finite and huge
WILD = st.one_of(
    st.floats(-2.0, 8.0),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, 1.0,
                     1e100, -1e100, 1e300, np.pi / 4]))


@settings(max_examples=200)
@given(family_id=st.sampled_from(sorted(families.FAMILIES)), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_sweep_rows_match_the_scalar_path(family_id, seed, data):
    params = families.FAMILIES[family_id].sample_params(np.random.default_rng(seed))
    names = list(params)
    for name in names:
        value = data.draw(st.one_of(st.none(), WILD), label=name)
        if value is not None:
            params[name] = value
    axes = []  # at most 4 rows: up to two axes of one or two points
    for name in data.draw(st.permutations(names), label="axes")[:data.draw(st.integers(0, 2))]:
        n = data.draw(st.integers(1, 2), label=f"{name} points")
        step = data.draw(st.sampled_from([1e-3, 0.05, 0.3]), label=f"{name} step")
        start = params.pop(name)
        axes.append(Axis(name, start, start + (n - 0.5) * step, step))
    initials = st.sampled_from(["bell1", "bell2", "bell3", "bell4",
                                "pure:0.5", "pure:0.8", "pure:0.99"])
    if family_id in families.MATCHED_CONCURRENCE_PARAM:  # then matched half the time
        initials = st.one_of(st.just("matched"), initials)
    initial = data.draw(initials, label="initial")
    spec = SweepSpec(family=families.FamilySpec(family_id, params), axes=tuple(axes),
                     initial=initial)
    try:
        result = run_sweep(spec)
    except SweepSpecError:
        return
    points = list(itertools.product(*(ax.values() for ax in axes)))
    assert len(result.rows) == len(points) <= 4
    failures = 0
    for idx, (row, combo) in enumerate(zip(result.rows, points)):
        point = dict(params, **{ax.param: v for ax, v in zip(axes, combo)})
        values, failed = scalar_row(family_id, point, initial)
        assert_same_results(row, (family_id, *combo, *values), f"row {idx}")
        failures += failed
    assert result.oracle_failures == failures


def test_sweep_oracle_catches_a_wrong_transpose_sign(monkeypatch, tmp_path, capsys):
    # sigma_y^T = -sigma_y; with the sign dropped the transfer matrix turns
    # the final states of a depolarizing channel past p = 3/4 on a Bell
    # input, det T > 0, into states of det T < 0, and the literal oracle row
    # disagrees with the values reported
    doc = {"family": {"id": "depolarizing_m"}, "initial": "bell1",
           "axes": [{"param": "p", "start": 0.8, "stop": 1.0, "step": 0.1}]}
    assert run_sweep(SweepSpec.from_jsonable(doc)).oracle_failures == 0
    monkeypatch.setattr(channels, "_TRANSPOSE_SIGNS", np.ones(4))
    assert run_sweep(SweepSpec.from_jsonable(doc)).oracle_failures > 0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["sweep", str(path)]) == 4
    assert "oracle disagreements" in capsys.readouterr().err


def test_sweep_oracle_checks_every_row(monkeypatch, tmp_path, capsys):
    # f_max shifted by 1e-5, ten times ORACLE_TOL, in every verdict: each
    # valid row, in both blocks, disagrees with its literal final state
    doc = {"family": {"id": "gadc", "params": {"N": 0.2}}, "initial": "pure:0.8",
           "axes": [{"param": "gamma", "start": -0.1, "stop": 1.1, "step": 0.001}]}
    real = states.verdicts
    monkeypatch.setattr(states, "verdicts",
                        lambda t_mat: dataclasses.replace(real(t_mat), f_max=real(t_mat).f_max + 1e-5))
    result = run_sweep(SweepSpec.from_jsonable(doc))
    valid = [row for row in result.rows if row[-1] == ""]
    assert len(result.rows) > explorer.SWEEP_BLOCK and len(valid) < len(result.rows)
    assert all(row[result.header.index("oracle_checked")] is True for row in valid)
    assert result.oracle_failures == len(valid)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["sweep", str(path)]) == 4
    assert f"error: {len(valid)} oracle disagreements" in capsys.readouterr().err


def test_sweep_oracle_counts_a_final_state_it_rejects(monkeypatch, tmp_path, capsys):
    # the second of a block's literal final states with its trace doubled:
    # density_stack rejects it, and a rejected final state is a disagreement
    doc = {"family": {"id": "gadc", "params": {"N": 0.2}}, "initial": "bell1",
           "axes": [{"param": "gamma", "start": 0.1, "stop": 0.9, "step": 0.1}]}
    real = channels.bob_action

    def bob_action(rho, ks):
        final = real(rho, ks).copy()
        final[1] *= 2.0
        return final

    monkeypatch.setattr(channels, "bob_action", bob_action)
    result = run_sweep(SweepSpec.from_jsonable(doc))
    assert [row[-1] for row in result.rows] == [""] * 9
    assert result.oracle_failures == 1
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["sweep", str(path)]) == 4
    assert "error: 1 oracle disagreements" in capsys.readouterr().err


def test_sweep_oracle_counts_a_final_state_that_is_not_hermitian(monkeypatch, tmp_path, capsys):
    # K^T in place of K^dag: on the complex Kraus operators of the rank-4
    # family with s2 != 0 (K^T = K^dag for real ones) the literal final
    # states are not Hermitian; each is one disagreement, and the sweep
    # still writes every row
    doc = {"family": {"id": "uqt_nonunital_rank4", "params": {"s1": 0.1, "s2": 0.15, "s3": 0.05}},
           "initial": "bell1", "axes": [{"param": "t", "start": 0.4, "stop": 0.8, "step": 0.1}]}
    assert run_sweep(SweepSpec.from_jsonable(doc)).oracle_failures == 0

    def bob_action(rho, ks):
        lifted = np.einsum("ab,...kcd->...kacbd", np.eye(2), ks).reshape(ks.shape[:-2] + (4, 4))
        return np.einsum("...kij,...jl,...kml->...im", lifted, rho, lifted)  # sum_k A rho A^T

    monkeypatch.setattr(channels, "bob_action", bob_action)
    result = run_sweep(SweepSpec.from_jsonable(doc))
    assert [row[-1] for row in result.rows] == [""] * 5
    assert result.oracle_failures == 5
    path, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    path.write_text(json.dumps(doc))
    assert cli.main(["sweep", str(path), "-o", str(out)]) == 4
    assert "error: 5 oracle disagreements" in capsys.readouterr().err
    assert out.read_text() == explorer.sweep_to_csv(result)
    assert len(out.read_text().splitlines()) == 6


def test_oracle_disagreements_count_non_finite_and_non_hermitian_members():
    rho, stack, f_max, delta = _random_rows(3)
    final = channels.bob_action(rho, stack).copy()
    assert explorer.oracle_disagreements(final, f_max, delta) == 0
    final[2, 0, 1] += 1e-9  # beyond EPS_HERM
    final[5, 3, 3] = np.nan
    final[7, 1, 2] = np.inf
    assert explorer.oracle_disagreements(final, f_max, delta) == 3
    final[9] *= 2.0  # Hermitian, but density_stack rejects its trace
    assert explorer.oracle_disagreements(final, f_max, delta) == 4
    assert explorer.oracle_disagreements(final[[2, 5]], f_max[2:6:3], delta[2:6:3]) == 2


def _random_rows(rank, count=12, seed=7):
    """Literal final states of random complex rank-`rank` channels on random
    mixed inputs, and their f_max and delta columns from the transfer-matrix
    classifier, which never calls bob_action."""
    rng = np.random.default_rng(seed + rank)
    rho = np.array([acceptance._random_density_matrix(rng) for _ in range(count)])
    stack, choi, *_ = channels.validate_stack(channels.isometry_stack(
        [rng.normal(size=(2, 2 * rank, 2)) for _ in range(count)]))
    cols = states.profile_columns(states.verdicts(
        channels.final_correlations(rho, states.pauli_coefficients(choi))))
    assert any(cols["formula_valid"])
    return rho, stack, cols["f_max"], cols["delta"]


@pytest.mark.parametrize("rank", [3, 4])
def test_oracle_catches_a_wrong_channel_action(monkeypatch, rank):
    # K^T in place of K^dag, and K* in place of K so the output stays a
    # state: on complex Kraus operators and inputs this is another channel,
    # whose final states the protocol simulation tells apart
    rho, stack, f_max, delta = _random_rows(rank)
    assert explorer.oracle_disagreements(channels.bob_action(rho, stack), f_max, delta) == 0
    real = channels.bob_action
    monkeypatch.setattr(channels, "bob_action", lambda rho, ks: real(rho, np.conj(ks)))
    assert explorer.oracle_disagreements(channels.bob_action(rho, stack), f_max, delta) > 0


def _pauli_response(corrections):
    """The oracle's Pauli-basis response, rebuilt from the register of the
    protocol with these corrections."""
    register = np.einsum("kyzia,kcb,kde->iycdabze", oracle._PROJ, corrections,
                         corrections.conj()).reshape(2, 2, 2, 2, 16)
    paulis = oracle._PAULI_STACK
    per_entry = np.einsum("icd,jxy,xydcr->rij", paulis, paulis, register).reshape(16, 16)
    return (np.einsum("kaz,lbe->klabze", paulis, paulis).reshape(16, 16) @ per_entry).real / 4.0


def test_oracle_catches_a_wrong_pauli_response(monkeypatch):
    # the response rebuilt with the corrections of outcomes 2 and 4 swapped:
    # every sweep row through a Bell state and some random rows disagree
    assert _pauli_response(np.array(oracle.CORRECTIONS)).tobytes() == oracle._RESPONSE.tobytes()
    response = _pauli_response(np.array(oracle.CORRECTIONS)[[0, 3, 2, 1]])
    assert not np.array_equal(response, oracle._RESPONSE)
    spec = make_spec("gadc", {"N": 0.1}, [("gamma", 0.0, 0.9, 0.1)])
    rho, stack, f_max, delta = _random_rows(4)
    assert run_sweep(spec).oracle_failures == 0
    monkeypatch.setattr(oracle, "_RESPONSE", response)
    assert run_sweep(spec).oracle_failures == 10
    assert explorer.oracle_disagreements(channels.bob_action(rho, stack), f_max, delta) > 0


def _dropped_b_signs(rotations):
    """The canonical sign rule without the -1 on O_B's last two rows."""
    out = rotations.copy()
    out[1, :, 1:] *= -1.0
    return out


def _improper_a(rotations):
    """O_A with its last row negated: det O_A = -1."""
    out = rotations.copy()
    out[0, :, 2] *= -1.0
    return out


@pytest.mark.parametrize("mutant", [_dropped_b_signs, _improper_a], ids=["dropped-b-signs", "improper-a"])
def test_oracle_catches_a_wrong_canonical_rotation(monkeypatch, mutant):
    # the oracle rotates the Pauli coefficients by whatever the rotations
    # are; a wrong sign rule or an improper rotation moves the moments off
    # the closed forms on a gadc sweep through a Bell state and on random rows
    spec = make_spec("gadc", {"N": 0.1}, [("gamma", 0.0, 0.9, 0.1)])
    rho, stack, f_max, delta = _random_rows(4)
    final = channels.bob_action(rho, stack)
    assert run_sweep(spec).oracle_failures == 0
    assert explorer.oracle_disagreements(final, f_max, delta) == 0
    real = oracle._canonical_rotations
    monkeypatch.setattr(oracle, "_canonical_rotations", lambda t_mat: mutant(real(t_mat)))
    assert run_sweep(spec).oracle_failures > 0
    assert explorer.oracle_disagreements(final, f_max, delta) > 0


def test_sweep_of_error_rows_only_checks_an_empty_oracle_stack():
    spec = make_spec("gadc", {"N": 0.2}, [("gamma", 1.1, 1.3, 0.1)])
    result = run_sweep(spec)
    assert len(result.rows) == 3 and all(row[-1] for row in result.rows)
    assert result.oracle_failures == 0


#: run_sweep on a 64 x 32 gadc grid, two SWEEP_BLOCK blocks, after a warm-up,
#: five times: the least process CPU time and the wall time of that run
_CPU_SCRIPT = """
import json, time
from uqtchan import explorer
spec = explorer.SweepSpec.from_jsonable({"family": {"id": "gadc"}, "initial": "bell1", "axes": [
    {"param": "gamma", "start": 0.0, "stop": 0.63, "step": 0.01},
    {"param": "N", "start": 0.0, "stop": 0.31, "step": 0.01}]})
explorer.run_sweep(explorer.SweepSpec.from_jsonable({"family": {"id": "gadc", "params": {"N": 0.1}},
    "initial": "bell1", "axes": [{"param": "gamma", "start": 0.0, "stop": 0.63, "step": 0.01}]}))
runs = []
for _ in range(5):
    wall, cpu = time.perf_counter(), time.process_time()
    rows = len(explorer.run_sweep(spec).rows)
    runs.append((time.process_time() - cpu, time.perf_counter() - wall, rows))
print(json.dumps(min(runs)))
"""


def _sweep_cpu(pin):
    env = {key: value for key, value in os.environ.items()
           if not key.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))}
    if pin:
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(Path(uqtchan.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _CPU_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_sweep_keeps_to_one_cpu_without_pinned_blas_threads():
    # with the BLAS thread variables unset, as for a command-line user, no
    # product of a sweep is large enough for OpenBLAS to split it across
    # threads: the process CPU time stays near the wall time, and near the
    # CPU time of a run pinned to one thread
    cpu, wall, rows = _sweep_cpu(pin=False)
    pinned_cpu, _, _ = _sweep_cpu(pin=True)
    measured = f"cpu {cpu:.3f} s, wall {wall:.3f} s, pinned_cpu {pinned_cpu:.3f} s, rows {rows}"
    assert rows == 2048, measured
    assert cpu <= 1.4 * wall and cpu <= 1.4 * pinned_cpu, measured


def _count_checks(monkeypatch):
    """Count np.linalg.eigvalsh calls and record the floors of the Cholesky certificates."""
    counts = {"eigvalsh": 0, "floors": []}
    eigvalsh, spectra_above = np.linalg.eigvalsh, linalg.spectra_above

    def counted_eigvalsh(h):
        counts["eigvalsh"] += 1
        return eigvalsh(h)

    def recorded_spectra_above(h, floor):
        counts["floors"].append(floor)
        return spectra_above(h, floor)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(linalg, "spectra_above", recorded_spectra_above)
    return counts


@pytest.mark.parametrize("family_id, params, axes, initial", [
    ("gadc", {}, [("gamma", 0.1, 0.9, 0.1), ("N", 0.1, 0.9, 0.1)], "bell1"),
    ("uqt_nonunital_rank4", {"s3": 0.05},
     [("s1", -0.3, 0.3, 0.1), ("s2", -0.3, 0.3, 0.1), ("t", 0.4, 0.8, 0.2)], "pure:0.8"),
], ids=["gadc-bell1", "rank4-pure"])
def test_full_rank_sweep_blocks_read_no_spectrum(monkeypatch, family_id, params, axes, initial):
    # every channel of these blocks has Choi rank 4 and every final state
    # passes the PSD check with room to spare: the Cholesky certificates
    # answer both checks, and no eigenvalue is computed
    counts = _count_checks(monkeypatch)
    result = run_sweep(make_spec(family_id, params, axes, initial=initial))
    assert counts["eigvalsh"] == 0
    assert any((floor > 0).all() for floor in counts["floors"])  # the rank certificate ran
    ranks = [row[1 + len(axes) + CSV_FIELDS.index("choi_rank")] for row in result.rows
             if row[-1] == ""]  # the rows in range
    assert len(ranks) >= 50 and set(ranks) == {4}


def test_a_search_block_tries_no_rank_certificate(monkeypatch):
    # a block with a zero-padded rank-3 candidate cannot have Choi rank 4
    # everywhere: validate_stack goes to the eigenvalues without a Cholesky
    counts = _count_checks(monkeypatch)
    search_uqt(0.45, 3 * explorer.SEARCH_BLOCK, seed=1)
    assert counts["eigvalsh"] >= 3
    assert all((floor <= 0).all() for floor in counts["floors"])


def test_sweep_blocks_match_one_row_blocks(monkeypatch):
    # three blocks of matched |Psi_a> inputs, with range errors, p2-window
    # errors and oracle rows on both sides of the block edges
    spec = make_spec("lambda_tilde_nu", {}, [("C", 0.0, 1.0, 0.02), ("p2", 0.0, 1.0, 0.02)],
                     initial="matched")
    blocked = run_sweep(spec)
    assert len(blocked.rows) > 2 * explorer.SWEEP_BLOCK
    assert {row[-1] == "" for row in blocked.rows} == {True, False}
    monkeypatch.setattr(explorer, "SWEEP_BLOCK", 1)
    assert run_sweep(spec) == blocked


def test_sweep_blocks_make_no_per_row_calls(monkeypatch):
    # a block's rows come from one builder call, reach validate_stack as one
    # array without the per-list Kraus conversion, are formatted from verdict
    # arrays and are oracle-checked as one stack: no row gets a
    # TeleportProfile or an oracle call of its own, and every valid row is checked
    spec = make_spec("gadc", {"N": 0.1}, [("gamma", -0.1, 1.1, 0.001)])
    fam = families.FAMILIES["gadc"]
    built = []

    def build(**values):
        built.append(len(values["gamma"]))
        return fam.build(**values)

    made = []

    class Profile(states.TeleportProfile):
        def __init__(self, **fields):
            made.append(fields)
            super().__init__(**fields)

    stacks = []
    real_moments = oracle.canonical_moments

    def canonical_moments(rho):
        stacks.append(len(rho))
        return real_moments(rho)

    monkeypatch.setitem(families.FAMILIES, "gadc", dataclasses.replace(fam, build=build))
    monkeypatch.setattr(channels, "_kraus_array", lambda kraus: pytest.fail("per-row conversion"))
    monkeypatch.setattr(states, "profiles", lambda t_mat: pytest.fail("per-row profiles"))
    monkeypatch.setattr(explorer, "TeleportProfile", Profile)
    monkeypatch.setattr(explorer, "oracle_check", lambda *a: pytest.fail("per-row oracle"))
    monkeypatch.setattr(oracle, "canonical_moments", canonical_moments)
    result = run_sweep(spec)
    errors = [row[-1] for row in result.rows]
    assert len(result.rows) > explorer.SWEEP_BLOCK and set(errors) > {""}
    assert len(built) == math.ceil(len(result.rows) / explorer.SWEEP_BLOCK)
    assert sum(built) == errors.count("")  # out-of-range rows never reach the builder
    assert made == []
    checked = [row[result.header.index("oracle_checked")] for row in result.rows]
    assert checked == [True if err == "" else None for err in errors]
    assert stacks == built and result.oracle_failures == 0  # gadc on bell1: det T <= 0 throughout


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_threshold_werner():
    res = find_threshold("werner", "p", (0.3, 0.9), "useful")
    assert res.critical_value == pytest.approx(0.5, abs=1e-8)
    assert res.bracket_width <= 1e-8


def test_threshold_gadc():
    res = find_threshold("gadc", "gamma", (0.1, 1.0), "useful", fixed={"N": 0.7})
    assert res.critical_value == pytest.approx(2 * (np.sqrt(2) - 1), abs=1e-8)


def test_threshold_lambda_star():
    res = find_threshold("lambda_star_nu", "C", (0.3, 0.6), "useful", tol=1e-7)
    # frozen evaluation of the analytic radical sqrt((2/3)(4+sqrt3)(1-(4+sqrt3)/6))
    assert res.critical_value == pytest.approx(0.4131045583091588, abs=1e-4)


def test_threshold_same_predicate_raises():
    with pytest.raises(SweepSpecError, match="both bracket endpoints"):
        find_threshold("werner", "p", (0.6, 0.9), "useful")


def test_threshold_dephasing_never_universal():
    # a rank-2 unital family is never universal, so no bracket exists
    with pytest.raises(SweepSpecError, match="both bracket endpoints"):
        find_threshold("dephasing", "p", (0.05, 0.95), "universal")


@pytest.mark.parametrize("call", [
    lambda: find_threshold("gadc", "gamma", ("a", 1.0), "useful", fixed={"N": 0.7}),
    lambda: find_threshold("gadc", "gamma", (False, 1.0), "useful", fixed={"N": 0.7}),
    lambda: find_threshold("gadc", "gamma", None, "useful", fixed={"N": 0.7}),
    lambda: find_threshold("gadc", "gamma", (0.1, 1.0), "useful", tol="x", fixed={"N": 0.7}),
    lambda: find_threshold("gadc", "gamma", (0.1, 1.0), "useful", tol=None, fixed={"N": 0.7}),
    lambda: find_threshold("gadc", "gamma", (0, 10**400), "useful", fixed={"N": 0.7}),
    lambda: find_threshold("gadc", "gamma", (0.1, 1.0), "useful", fixed=[("N", 0.7)]),
    lambda: find_threshold("gadc", "gamma", (0.1, 1.0), "useful", fixed={"N": 0.7}, initial=5),
    lambda: explorer.parse_initial(5),
    lambda: analyze(families.noise_channel("gadc", gamma=0.3, N=0.5), 5),
], ids=["string in bracket", "bool in bracket", "no bracket", "string tol", "no tol",
        "overflowing bracket", "fixed not a dict", "initial not a string",
        "parse_initial of a number", "analyze on a number"])
def test_threshold_arguments_of_the_wrong_type_raise_spec_errors(call):
    # the documented error for every bad argument, not a raw error of its conversion
    with pytest.raises(SweepSpecError):
        call()


@pytest.mark.parametrize("family_id,param,bracket,predicate,fixed", [
    ("gadc", "gamma", (0.1, 1.0), "useful", {"N": 0.1, "gamma": 0.5}),
    ("lambda_tilde_nu", "C", (0.4, 0.7), "uqt", {"p1": 0.5}),
], ids=["by name", "by alias"])
def test_threshold_rejects_a_fixed_param_on_the_bisected_one(monkeypatch, family_id, param,
                                                             bracket, predicate, fixed):
    # else every bisection point would overwrite the fixed value
    calls = []
    monkeypatch.setattr(explorer, "_classify_rows", lambda *args: calls.append(args))
    with pytest.raises(SweepSpecError, match="both set"):
        find_threshold(family_id, param, bracket, predicate, fixed=fixed)
    assert calls == []


def test_threshold_reaches_no_scalar_path(monkeypatch):
    def scalar(*args, **kwargs):
        raise AssertionError("a scalar path was called")

    for owner, name in ((explorer, "evaluate_point"), (channels, "apply_to_bob"),
                        (states, "from_density")):
        monkeypatch.setattr(owner, name, scalar)
    assert find_threshold("gadc", "gamma", (0.1, 1.0), "useful", fixed={"N": 0.7}).low > 0.8
    assert find_threshold("lambda_star_nu", "C", (0.3, 0.6), "uqt").low > 0.41


#: the run_threshold_suite.py cases a sweep can express: all but the
#: lambda_tilde_nu one, whose p2 follows the bisected concurrence
_SUITE = [case[:5] for case in load_script("run_threshold_suite").CASES
          if case[0] != "lambda_tilde_nu"]


@pytest.mark.parametrize("family_id,param,bracket,predicate,fixed", _SUITE,
                         ids=[case[0] for case in _SUITE])
def test_threshold_bracket_ends_agree_with_sweep_rows(family_id, param, bracket, predicate,
                                                      fixed):
    # the bisection's last bracket, swept as a 2-point grid, shows the flip
    # the bisection saw between the ends of its first
    res = find_threshold(family_id, param, bracket, predicate, fixed=fixed)
    initial = "matched" if family_id in families.MATCHED_CONCURRENCE_IDS else "bell1"

    def swept(lo, hi):
        """The grid and predicate column of a 2-point sweep over [lo, hi]."""
        spec = make_spec(family_id, fixed, [(param, lo, hi, hi - lo)], initial=initial)
        rows = run_sweep(spec).rows
        return [row[1] for row in rows], [row[2 + spec.outputs.index(predicate)] for row in rows]

    _, (v_lo, v_hi) = swept(*bracket)
    assert v_lo != v_hi
    assert swept(res.low, res.high) == ([res.low, res.high], [v_lo, v_hi])


_VALUES = st.integers(-50, 150).map(lambda k: k / 100) | st.sampled_from(
    [float("nan"), float("inf"), -1e300, 1e300, 1e-300])
#: scenarios with a threshold in the bracket, and the names of their families
_THRESHOLDS = {
    "werner": ("p", (0.3, 0.9), "useful", {}, ["p"]),
    "gadc": ("gamma", (0.1, 1.0), "useful", {"N": 0.7}, ["gamma", "N"]),
    "adc_m": ("t", (0.0, 3.0), "useful", {"gamma": 1.0}, ["gamma", "t"]),
    "lambda_star_nu": ("C", (0.3, 0.6), "uqt", {}, ["C", "p1"]),
    "lambda_tilde_nu": ("C", (0.4, 0.7), "uqt", {}, ["C", "p1", "p2"]),
    "depolarizing_m": ("p", (0.1, 0.7), "useful", {}, ["p"]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), family_id=st.sampled_from(sorted(_THRESHOLDS) + ["nope"]))
def test_threshold_arguments_end_in_a_result_or_a_spec_error(data, family_id):
    # each argument of a scenario with a threshold is, one time in four,
    # replaced by an arbitrary or a malformed one
    param, bracket, predicate, fixed, names = _THRESHOLDS.get(family_id, _THRESHOLDS["werner"])
    names = st.sampled_from(names + ["x"])

    def arg(good, other):
        return good if data.draw(st.sampled_from([True, True, True, False])) else data.draw(other)

    param = arg(param, names)
    lo, hi = arg(bracket, st.tuples(_VALUES, _VALUES))
    predicate = arg(predicate, st.sampled_from(explorer.PREDICATES + ("bogus",)))
    tol = arg(1e-6, st.sampled_from([1e-20, 0.0, -1.0, float("nan"), float("inf"), 1.0]))
    fixed = arg(fixed, st.dictionaries(names, _VALUES, max_size=3))
    initial = arg("default", st.sampled_from(["bell1", "pure:0.8", "matched", "pure:2", "bell9"]))
    try:
        res = find_threshold(family_id, param, (lo, hi), predicate, tol=tol, fixed=fixed,
                             initial=None if initial == "default" else initial)
    except SweepSpecError:
        return
    assert lo <= res.low < res.high <= hi
    assert res.bracket_width == res.high - res.low
    assert res.low <= res.critical_value <= res.high
    assert res.bracket_width <= tol or res.high == np.nextafter(res.low, np.inf)


def serial_threshold(family_id, param, bracket, predicate, tol=1e-8, fixed=None, initial=None):
    """The bisection one step at a time, each midpoint classified as a block
    of one row: the reference for find_threshold's tree blocks."""
    lo, hi = bracket
    fixed = {key: [value] for key, value in (fixed or {}).items()}
    *_, name = families.resolve_keys(family_id, [*fixed, param])
    if initial is None:
        initial = "matched" if family_id in families.MATCHED_CONCURRENCE_IDS else "bell1"
    initial = explorer._resolve_initial(initial, family_id)

    def value(x):
        columns = {**fixed, name: [x]}
        if family_id == "lambda_tilde_nu" and "p2" not in fixed and name == "p1":
            a, b = (1.0 / (3.0 * x), families.lambda_tilde_p2_max(x)) if 0.0 < x < 1.0 else (0, 1)
            columns["p2"] = [(a + b) / 2.0 if a < b else 0.5 * b]
        (error,), cols, *_ = explorer._classify_rows(family_id, columns, initial)
        if error:
            raise SweepSpecError(f"{param} = {x!r}: {error}")
        return cols[predicate][0]

    v_lo, v_hi = value(lo), value(hi)
    assert v_lo != v_hi
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        if value(mid) == v_lo:
            lo = mid
        else:
            hi = mid
    return explorer.ThresholdResult(param=param, critical_value=(lo + hi) / 2.0,
                                    bracket_width=hi - lo, predicate=predicate, low=lo, high=hi)


_TREE_CASES = [(*case[:5], tol) for tol in (1e-8, 1e-20)
               for case in load_script("run_threshold_suite").CASES]
_TREE_CASES += [("lambda_star_nu", "C", (0.05, 0.99), "uqt", {}, 1e-12),
                ("dephasing", "p", (0.5, 1.0), "useful", {}, 1e-8, "pure:0.7")]


@pytest.mark.parametrize("case", _TREE_CASES,
                         ids=[f"{c[0]}-{c[5]:g}" + (f"-{c[6]}" if len(c) > 6 else "")
                              for c in _TREE_CASES])
def test_threshold_tree_blocks_give_the_serial_result(case):
    family_id, param, bracket, predicate, fixed, tol, *initial = case
    args = (family_id, param, bracket, predicate, tol, fixed, *initial)
    got, want = find_threshold(*args), serial_threshold(*args)
    assert [x.hex() for x in (got.low, got.high, got.critical_value, got.bracket_width)] \
        == [x.hex() for x in (want.low, want.high, want.critical_value, want.bracket_width)]
    assert got == want


def _werner_failing_between(monkeypatch, low, high):
    """Make every werner row with p strictly inside (low, high) a row error."""
    fam = families.FAMILIES["werner"]

    def build(p):
        kraus, recorded, errors = fam.build(p)
        errors.update({r: f"werner: planted failure at p = {x!r}"
                       for r, x in enumerate(p.tolist()) if low < x < high})
        return kraus, recorded, errors
    monkeypatch.setitem(families.FAMILIES, "werner", dataclasses.replace(fam, build=build))


def test_threshold_ignores_a_failed_row_off_the_path(monkeypatch):
    # the first tree block holds 0.825, inside the window, for any TREE_LEVELS
    # >= 3, and the steps from (0.3, 0.9) never go above 0.6
    want = find_threshold("werner", "p", (0.3, 0.9), "useful")
    _werner_failing_between(monkeypatch, 0.80, 0.85)
    with pytest.raises(SweepSpecError, match="planted failure"):
        find_threshold("werner", "p", (0.3, 0.825), "useful")  # the check is live
    assert find_threshold("werner", "p", (0.3, 0.9), "useful") == want


def test_threshold_raises_the_serial_error_of_a_failed_row_on_the_path(monkeypatch):
    _werner_failing_between(monkeypatch, 0.59, 0.61)
    with pytest.raises(SweepSpecError) as serial:
        serial_threshold("werner", "p", (0.3, 0.9), "useful")
    with pytest.raises(SweepSpecError) as tree:
        find_threshold("werner", "p", (0.3, 0.9), "useful")
    assert str(tree.value) == str(serial.value) == "p = 0.6: werner: planted failure at p = 0.6"


def test_threshold_takes_a_few_tree_blocks(monkeypatch):
    blocks = []
    classify = explorer._classify_rows

    def spy(family_id, columns, initial):
        blocks.append(len(columns["p"]))
        return classify(family_id, columns, initial)
    monkeypatch.setattr(explorer, "_classify_rows", spy)
    find_threshold("werner", "p", (0.3, 0.9), "useful")
    assert len(blocks) <= 8  # one row per step would be 28 blocks
    assert blocks[0] == 2 and max(blocks) <= 2 ** explorer.TREE_LEVELS - 1


# ---------------------------------------------------------------------------
# randomized search
# ---------------------------------------------------------------------------

def _texts(errors, n):
    """Whether errors holds n members, each an error text or None."""
    return len(errors) == n and all(err is None or type(err) is str for err in errors)


def test_every_stack_carries_error_texts_per_member():
    # one mixed stack of every source of error: non-finite, incomplete and
    # overflowing Kraus lists, and a lambda_u4 block with a row below p = 1/2,
    # a row out of range and a value that is no number; each stack carries
    # per member a text or None (and a rank), never an exception object
    overflowing = np.array([[[1e200, 1e200], [1e200, -1e200]]])
    lists = [[np.eye(2)], [np.full((2, 2), np.nan)], [1.01 * np.eye(2)], overflowing]
    u4 = {"p": [0.7, 0.3, 2.0, "x"]}
    block = families.checked_rows("lambda_u4", u4)
    assert _texts(block.errors, 4) and [err is None for err in block.errors] == [True] + [False] * 3
    assert block.errors[1].startswith("no CPTP map") and block.joint == {1}
    kraus = np.concatenate([kraus_stack(lists, 4), block.kraus])
    _, _, ranks, errors, residuals, _ = channels.validate_stack(kraus)
    assert _texts(errors, 8) and [err is None for err in errors] == [True, False, False, False,
                                                                     True, False, False, False]
    assert all(type(rank) is int for rank in ranks)
    assert all(res is None or type(res) is float for res in residuals)
    bell = states.bell_state(1)
    assert _texts(explorer._classify(kraus, bell.rho)[0], 8)
    # a density stack with a negative spectrum and a trace off 1
    dens = states.density_stack([bell.rho, np.diag([0.7, 0.5, -0.1, -0.1]), 2.0 * bell.rho])
    assert _texts(dens.errors, 3) and [err is None for err in dens.errors] == [True, False, False]
    # a name error, every row's, and a builder's joint constraint (Pauli weights summing to 1.5)
    assert _texts(families.checked_rows("lambda_u4", {"q": [0.7, 0.3]}).errors, 2)
    pauli = {"p0": [1.0, 0.5], "p1": [0.0, 0.5], "p2": [0.0, 0.5], "p3": [0.0, 0.0]}
    assert families.checked_rows("pauli_mixture", pauli).joint == {1}
    for family_id, columns in (("lambda_u4", u4), ("lambda_u4", {"q": [0.7]}),
                               ("pauli_mixture", pauli)):
        n = len(next(iter(columns.values())))
        assert _texts(explorer._classify_rows(family_id, columns, bell)[0], n)
    # every builder's {row: text}, on sampled rows and rows scaled off their ranges
    joint = set()
    for family_id, fam in families.FAMILIES.items():
        rng = np.random.default_rng(5)
        rows = [fam.sample_params(rng) for _ in range(4)]
        rows += [{k: v * f for k, v in row.items()} for row in rows for f in (0.4, 2.5)]
        with np.errstate(all="ignore"):
            _, _, built = fam.build(**{s.name: np.array([r[s.name] for r in rows])
                                       for s in fam.params})
        assert all(type(r) is int and type(err) is str for r, err in built.items())
        joint |= {family_id} if built else set()
    assert {"pauli_mixture", "uqt_unital_for_pure", "uqt_nonunital_rank4", "lambda_tilde_nu",
            "lambda_u4", "depolarizing_nm"} <= joint


def test_classified_unitality_residual_is_the_kraus_residual():
    # read off Bob's marginal of the Choi stack, it is ||sum K K^dag - I||_max
    # of each member to rounding: unitaries and gadc at N = 1/2 are unital
    rng = np.random.default_rng(7)
    lists = [channels.random_kraus(rng, rank) for rank in (1, 2, 3, 4) * 4]
    lists += [families.noise_channel("gadc", gamma=0.3, N=n).kraus for n in (0.0, 0.5, 0.9)]
    errors, cols = explorer._classify(kraus_stack(lists), states.bell_state(1).rho)
    assert errors == [None] * len(lists) and all(type(r) is int for r in cols["choi_rank"])
    residual = channels.validate_stack(kraus_stack(lists))[5]
    expected = np.array([unitality_residual(kraus) for kraus in lists])
    assert np.max(np.abs(residual - expected)) <= 1e-15
    assert (residual <= channels.EPS_CPTP).tolist() == cols["unital"] \
        == [len(k) == 1 for k in lists[:16]] + [False, True, False]


def test_random_nonunital_channel_properties():
    rng = np.random.Generator(np.random.Philox(key=5))
    ch = random_nonunital_channel(rng, rank=3)
    assert ch is not None
    rep = channels.report(ch)
    assert not rep.unital
    assert rep.choi_rank <= 3
    assert completeness_residual(ch.kraus) < 1e-9


def test_search_and_sweep_share_one_unital_rule(monkeypatch):
    # gadc at N = 1/2 + 1e-7 has a unitality residual of about 6e-8, above
    # EPS_CPTP: non-unital by report, by the classifier and by the search
    ch = families.noise_channel("gadc", gamma=0.3, N=0.5 + 1e-7)
    assert channels.EPS_CPTP < ch.unitality_residual < 1e-6
    assert not channels.report(ch).unital
    monkeypatch.setattr(channels, "random_kraus", lambda rng, rank: ch.kraus)
    picked = random_nonunital_channel(np.random.default_rng(0), rank=3)
    assert picked is not None and np.array_equal(picked.kraus, ch.kraus)
    errors, cols = explorer._classify(ch.kraus[None], states.bell_state(1).rho)
    assert errors == [None] and cols["unital"] == [channels.report(ch).unital]


def test_search_blocks_match_one_sample_blocks(monkeypatch):
    budget = 2 * explorer.SEARCH_BLOCK + 30
    blocked = search_uqt(0.45, budget=budget, seed=4).to_jsonable()
    monkeypatch.setattr(explorer, "SEARCH_BLOCK", 1)
    single = search_uqt(0.45, budget=budget, seed=4).to_jsonable()
    assert len(blocked["hits"]) > 0 and len(blocked["frontier"]) > 0
    assert json.dumps(blocked) == json.dumps(single)


def _reference_entry(ch, state):
    prof = states.profile(channels.apply_to_bob(state, ch))
    return {"channel": ch.name, "params": {k: float(v) for k, v in ch.params.items()},
            "f_max": prof.f_max, "delta": prof.delta, "uqt": prof.uqt}


def _reference_candidate(kraus, rank):
    """One drawn random candidate validated and screened on its own:
    (channel or None, outcome)."""
    try:
        ch = channels.validate(kraus, name=f"random_rank{rank}")
    except channels.ChannelValidationError:
        return None, "invalid"
    if unitality_residual(ch.kraus) <= channels.EPS_CPTP:
        return None, "unital"
    return ch, "kept"


def _zero_spread(entry):
    """The deviation a frontier compares: one at or below EPS_UQT is zero."""
    return 0.0 if entry["delta"] <= states.EPS_UQT else entry["delta"]


def _sample_rng(seed, i):
    """The reference stream of search sample i: a Philox built for it, keyed
    on the pair (seed mod 2**64, i)."""
    return np.random.Generator(np.random.Philox(key=(int(seed) % 2**64) << 64 | int(i)))


@pytest.mark.parametrize("seed", [0, 1, -1, 2**64 + 5, -2**70])
def test_sample_streams_are_the_keyed_philox_streams(seed):
    # re-keyed after draws of every size, also back to an earlier sample
    sample_rng = explorer._sample_streams(seed)
    for i in (0, 1, 127, 128, 1, 0):
        rng, ref = sample_rng(i), _sample_rng(seed, i)
        assert rng.integers(0, 4, size=3).tolist() == ref.integers(0, 4, size=3).tolist()
        assert rng.normal(size=(2, 8, 2)).tobytes() == ref.normal(size=(2, 8, 2)).tobytes()
        assert rng.uniform(1e-6, 0.5) == ref.uniform(1e-6, 0.5)
        assert rng.random(3, dtype=np.float32).tobytes() == ref.random(3, dtype=np.float32).tobytes()


def test_search_builds_one_philox_per_call(monkeypatch):
    built = []
    real = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *args, **kw: built.append(1) or real(*args, **kw))
    rep = search_uqt(0.45, 2 * explorer.SEARCH_BLOCK + 3, seed=1)
    assert len(built) == 1 and rep.hits


def test_search_validates_each_candidate_once(monkeypatch):
    # the lambda_star_nu candidate is one checked_rows block, validated and
    # classified by one call, and a block's candidates by one more
    calls = []
    real = channels.validate_stack
    monkeypatch.setattr(channels, "validate_stack", lambda kraus: calls.append(1) or real(kraus))
    rep = search_uqt(0.45, explorer.SEARCH_BLOCK, seed=1)
    assert len(calls) == 2 and rep.hits


def _reference_search(concurrence, budget, seed, block):
    """search_uqt evaluated one candidate at a time: the same samples, each
    on a Philox of its own (`_sample_rng`), and one random_kraus call per
    random candidate, then per candidate `_reference_candidate`,
    apply_to_bob and profile. Returns the report's JSON and the situations
    its blocks met."""
    state = states.pure_state_from_concurrence(concurrence)
    star = _reference_entry(families.lambda_star_nu(concurrence), state)
    hits, frontier, seen = [], [], set()
    for first in range(0, budget, block):
        picks = []
        for i in range(first, min(first + block, budget)):
            rng = _sample_rng(seed, i)
            kind = int(rng.integers(0, 4))
            if kind in (0, 1):
                rank = 3 if kind == 0 else 4
                picks.append((rank, channels.random_kraus(rng, rank)))
            elif kind == 2:
                p2 = float(rng.uniform(1e-6, families.lambda_tilde_p2_max(concurrence)
                                       * (1.0 - 1e-9)))
                picks.append(_reference_entry(families.lambda_tilde_nu(concurrence, p2), state))
            else:
                picks.append(star)
        kraus_counts = {4 for p in picks if p is not star and not isinstance(p, tuple)}
        if all(p is star for p in picks):
            seen.add("no candidate")
        for entry in picks:
            if isinstance(entry, tuple):
                ch, outcome = _reference_candidate(entry[1], entry[0])
                seen.add(outcome)
                if ch is None:
                    continue
                kraus_counts.add(len(ch.kraus))
                entry = _reference_entry(ch, state)
            if entry["uqt"]:
                if len(hits) < explorer.MAX_HITS and entry not in hits:
                    hits.append(entry)
            elif entry["f_max"] is not None:
                if not any(_zero_spread(e) <= _zero_spread(entry) and e["f_max"] >= entry["f_max"]
                           for e in frontier):
                    frontier = [e for e in frontier if not (_zero_spread(entry) <= _zero_spread(e)
                                                            and entry["f_max"] >= e["f_max"])]
                    frontier.append(entry)
        if len(kraus_counts) > 1:
            seen.add("mixed Kraus counts")
    frontier.sort(key=lambda e: (_zero_spread(e), -e["f_max"]))
    report = explorer.SearchReport(concurrence=concurrence, budget=budget, seed=seed,
                                   hits=tuple(hits), frontier=tuple(frontier[:10]))
    return json.dumps(report.to_jsonable()), seen


def _search_json(concurrence, budget, seed, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "SEARCH_BLOCK", block)
        return json.dumps(search_uqt(concurrence, budget, seed=seed).to_jsonable())


@pytest.mark.parametrize("rank", [3, 4])
def test_random_nonunital_channel_is_the_per_candidate_path(rank):
    for key in range(6):
        ch = random_nonunital_channel(np.random.Generator(np.random.Philox(key=key)), rank)
        kraus = channels.random_kraus(np.random.Generator(np.random.Philox(key=key)), rank)
        ref, _ = _reference_candidate(kraus, rank)
        assert (ch is None) == (ref is None)
        assert ch is None or (np.array_equal(ch.kraus, ref.kraus) and ch.name == ref.name)


def test_search_entries_match_the_per_candidate_path():
    # blocks of 8 mix rank-3 (three Kraus operators) and rank-4 or
    # lambda_tilde_nu (four) members; blocks of 1 hold only lambda_star_nu
    # at times
    seen = set()
    for c, budget, seed, block in [(0.45, 40, 4, 8), (0.7, 40, 5, 1), (0.6, 40, 6, 8),
                                   (0.45, 300, 1, 128)]:
        expected, met = _reference_search(c, budget, seed, block)
        assert_same_results(json.loads(_search_json(c, budget, seed, block)),
                            json.loads(expected))
        seen |= met
    assert {"mixed Kraus counts", "no candidate", "kept"} <= seen


@settings(max_examples=60, deadline=None)
@given(concurrence=st.floats(0.05, 0.95), budget=st.integers(1, 20),
       seed=st.integers(-2**70, 2**70), block=st.integers(1, 8))
def test_search_matches_the_per_candidate_path(concurrence, budget, seed, block):
    expected, _ = _reference_search(concurrence, budget, seed, block)
    assert_same_results(json.loads(_search_json(concurrence, budget, seed, block)),
                        json.loads(expected))


def test_search_frontier_counts_rounding_noise_deviation_as_zero():
    # two lambda_tilde_nu entries of zero deviation, one of them 3.3e-17 by
    # rounding: the one of larger f_max dominates the other, whatever the noise
    frontier = search_uqt(0.45, 100, seed=3615836353).frontier
    zero = [e for e in frontier if e["delta"] <= states.EPS_UQT]
    assert [e["params"]["p2"] for e in zero] == [pytest.approx(0.5994477246330541)]
    assert frontier[0] is zero[0]
    for i, a in enumerate(frontier):
        for b in frontier[i + 1:]:
            assert _zero_spread(a) <= _zero_spread(b) and a["f_max"] < b["f_max"]


def _widen_search_p2_window(monkeypatch, wide):
    """Widen the p2 window of search_uqt's lambda_tilde_nu draws to (0, wide)."""
    windows = iter([wide])  # the search's one call; the builders see the true window
    true_window = families.lambda_tilde_p2_max
    monkeypatch.setattr(families, "lambda_tilde_p2_max",
                        lambda p1: next(windows, None) or true_window(p1))


def test_search_raises_the_first_lambda_tilde_build_error_in_sample_order(monkeypatch):
    # with the search's p2 window widened to (0, 2), most lambda_tilde_nu
    # draws fail to build; the block's one checked_rows call must raise the
    # error of the first of them
    c, wide = 0.45, 2.0
    for i in range(explorer.SEARCH_BLOCK):
        rng = _sample_rng(7, i)
        kind = int(rng.integers(0, 4))
        if kind in (0, 1):
            channels.random_kraus(rng, 3 if kind == 0 else 4)
        elif kind == 2:
            p2 = float(rng.uniform(1e-6, wide * (1.0 - 1e-9)))
            if p2 >= families.lambda_tilde_p2_max(c):
                break
    with pytest.raises(ValueError) as first:
        families.checked_build("lambda_tilde_nu", p1=c, p2=p2)
    _widen_search_p2_window(monkeypatch, wide)
    with pytest.raises(ValueError) as raised:
        search_uqt(c, explorer.SEARCH_BLOCK, seed=7)
    assert (type(raised.value), str(raised.value)) == (type(first.value), str(first.value))


def _block_p2s(c, seed):
    """The p2 of each lambda_tilde_nu sample of a search's first block, in
    sample order."""
    p2s = []
    for i in range(explorer.SEARCH_BLOCK):
        rng = _sample_rng(seed, i)
        if int(rng.integers(0, 4)) == 2:
            p2s.append(float(rng.uniform(1e-6, families.lambda_tilde_p2_max(c) * (1.0 - 1e-9))))
    return p2s


def _scale_tilde_rows_above(monkeypatch, cut):
    """Wrap lambda_tilde_nu's builder so that a row of p2 above `cut` builds
    its Kraus operators times 1 + p2: not trace preserving, with a
    completeness residual (1 + p2)^2 - 1 that names the row."""
    fam = families.FAMILIES["lambda_tilde_nu"]

    def build(p1, p2):
        ops, recorded, errors = fam.build(p1=p1, p2=p2)
        scale = np.where(p2 > cut, 1.0 + p2, 1.0)
        return ops * scale[:, None, None, None], recorded, errors
    monkeypatch.setitem(families.FAMILIES, "lambda_tilde_nu", dataclasses.replace(fam, build=build))


def test_search_raises_the_first_lambda_tilde_validation_error_in_sample_order(monkeypatch):
    # the rows above the median p2 of the block build but fail validation;
    # the search must raise the error of the first of them
    c = 0.45
    p2s = _block_p2s(c, seed=7)
    cut = float(np.median(p2s))
    _scale_tilde_rows_above(monkeypatch, cut)
    first, second = [p2 for p2 in p2s if p2 > cut][:2]
    texts = []
    for p2 in (first, second):
        with pytest.raises(channels.ChannelValidationError) as expected:
            families.noise_channel("lambda_tilde_nu", p1=c, p2=p2)
        texts.append(str(expected.value))
    assert texts[0] != texts[1]
    with pytest.raises(channels.ChannelValidationError) as raised:
        search_uqt(c, explorer.SEARCH_BLOCK, seed=7)
    assert str(raised.value) == texts[0]


def test_search_skips_random_candidates_that_validation_rejects(monkeypatch):
    # every rank-4 draw builds 1.1 times an isometry's Kraus operators, so
    # validation rejects every rank-4 candidate: each is skipped, none raises
    def entries():
        doc = search_uqt(0.2, budget=150, seed=11).to_jsonable()
        return [e["channel"] for e in doc["hits"] + doc["frontier"]]
    assert {"random_rank3", "random_rank4"} <= set(entries())
    real = channels.isometry_kraus
    monkeypatch.setattr(channels, "isometry_kraus",
                        lambda g: real(g) * (1.1 if g.shape[-2] == 8 else 1.0))
    assert "random_rank3" in entries() and "random_rank4" not in entries()


@pytest.mark.parametrize("fault", ["build", "validation"])
def test_search_error_frees_the_search_frame_without_the_collector(monkeypatch, fault):
    # a raised error that a name or container of the search frame still
    # holds ties the frame, and the blocks it holds, into a reference cycle
    # with the error's traceback; dropped, the error must free them at once
    c = 0.45
    if fault == "build":
        _widen_search_p2_window(monkeypatch, 2.0)
    else:
        _scale_tilde_rows_above(monkeypatch, 0.0)
    blocks = []
    real = families.checked_rows

    def spy(family_id, columns):
        block = real(family_id, columns)
        blocks.append(weakref.ref(block))
        return block
    monkeypatch.setattr(families, "checked_rows", spy)
    gc.disable()
    try:
        try:
            search_uqt(c, explorer.SEARCH_BLOCK, seed=7)
        except ValueError:
            pass
        else:
            pytest.fail("the search raised no error")
        alive = [ref() is not None for ref in blocks]
    finally:
        gc.enable()
    assert alive == [False, False]  # the lambda_star_nu block and the lambda_tilde_nu block


@pytest.mark.parametrize("kwargs", [
    {"budget": 2.5}, {"budget": True}, {"budget": "3"}, {"seed": 1.5},
    {"seed": float("nan")}, {"seed": True}, {"budget": 0}, {"concurrence": 0.0},
    {"concurrence": "0.45"}, {"concurrence": True}, {"concurrence": float("nan")},
    {"concurrence": 1.0},
])
def test_search_rejects_bad_arguments_before_work(kwargs):
    args = dict({"concurrence": 0.45, "budget": 3, "seed": 0}, **kwargs)
    with pytest.raises(SweepSpecError):
        search_uqt(**args)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


ANY_ARG = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.floats(),
                    st.integers(-2**70, 2**70))


@settings(max_examples=200, deadline=None)
@given(concurrence=st.one_of(st.floats(0.0, 1.0), ANY_ARG),
       budget=st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0), st.booleans(), st.text(max_size=2)),
       seed=st.one_of(st.integers(-2**70, 2**70), ANY_ARG))
def test_search_arguments_end_in_a_report_or_a_spec_error(concurrence, budget, seed):
    valid = (isinstance(concurrence, (int, float)) and not isinstance(concurrence, bool)
             and 0.0 < concurrence < 1.0 and _is_int(budget) and budget >= 1
             and _is_int(seed))
    try:
        rep = search_uqt(concurrence, budget, seed=seed)
    except SweepSpecError:
        assert not valid
        return
    assert valid
    doc = json.loads(json.dumps(rep.to_jsonable(), allow_nan=False))
    assert (doc["concurrence"], doc["budget"], doc["seed"]) == (concurrence, budget, seed)
    assert len(doc["hits"]) <= explorer.MAX_HITS
    assert doc["conclusive"] is False


def test_search_uqt_finds_hits_above_both_thresholds():
    rep = search_uqt(0.6, budget=200, seed=11)
    assert len(rep.hits) > 0
    names = {h["channel"] for h in rep.hits}
    assert names & {"lambda_tilde_nu", "lambda_star_nu"}


def test_search_uqt_finds_hits_below_half():
    rep = search_uqt(0.45, budget=200, seed=11)
    assert any(h["channel"] == "lambda_star_nu" for h in rep.hits)


def test_search_uqt_no_hits_at_low_concurrence():
    rep = search_uqt(0.2, budget=150, seed=11)
    assert len(rep.hits) == 0
    assert rep.to_jsonable()["conclusive"] is False  # a negative result is inconclusive
    assert len(rep.frontier) > 0
    deltas = [e["delta"] for e in rep.frontier]
    assert deltas == sorted(deltas)


def test_search_uqt_seeds_give_independent_streams():
    # a key mixing seed and index, such as seed XOR i, gives seeds 0 and 1
    # the same streams in swapped pairs
    a = search_uqt(0.45, budget=60, seed=0).to_jsonable()
    b = search_uqt(0.45, budget=60, seed=1).to_jsonable()
    assert (a["hits"], a["frontier"]) != (b["hits"], b["frontier"])


def test_search_uqt_reports_each_hit_once():
    rep = search_uqt(0.45, budget=200, seed=11)
    names = [h["channel"] for h in rep.hits]
    assert names.count("lambda_star_nu") == 1
    assert all(a != b for i, a in enumerate(rep.hits) for b in rep.hits[i + 1:])


def test_search_reports_at_most_max_hits_distinct_hits():
    # this search finds more than MAX_HITS distinct hits and reports exactly MAX_HITS
    hits = search_uqt(0.6, budget=1000, seed=1).hits
    assert len(hits) == explorer.MAX_HITS == 20
    assert all(a != b for i, a in enumerate(hits) for b in hits[i + 1:])


def test_search_reports_at_most_ten_frontier_entries():
    # the untruncated front of this search has 17 entries
    frontier = search_uqt(0.2, budget=300, seed=1).frontier
    assert len(frontier) == 10
    assert all(a["f_max"] < b["f_max"] for a, b in zip(frontier, frontier[1:]))


def test_search_skips_random_candidates_that_land_on_unital_channels(monkeypatch):
    # every draw returns the Kraus operators of a unital channel of the
    # target rank; both channels make the input UQT-useful, so a skip that
    # let them through would put random_rank entries among the hits
    c = 0.7
    p0 = 1.0 / (2.0 - c)  # the largest weight uqt_unital_for_pure allows: Pauli weight p3 = 0
    unital = {4: families.uqt_unital_for_pure(c, (p0 + (1.0 + 2.0 * c) / (6.0 * c)) / 2.0),
              3: families.pauli_mixture(p0, (1.0 - p0) / 2.0, (1.0 - p0) / 2.0, 0.0)}
    state = states.pure_state_from_concurrence(c)
    for rank, ch in unital.items():
        assert ch.choi_rank == rank and channels.report(ch).unital
        assert states.profile(channels.apply_to_bob(state, ch)).uqt
    monkeypatch.setattr(channels, "isometry_kraus", lambda g: np.broadcast_to(
        unital[g.shape[-2] // 2].kraus, g.shape[:-2] + (g.shape[-2] // 2, 2, 2)))
    rep = search_uqt(c, budget=60, seed=2)
    entries = rep.to_jsonable()["hits"] + rep.to_jsonable()["frontier"]
    assert entries and not any(e["channel"].startswith("random_rank") for e in entries)
    for rank in (3, 4):
        assert random_nonunital_channel(np.random.Generator(np.random.Philox(key=rank)), rank) is None


def test_search_uqt_deterministic():
    a = search_uqt(0.45, budget=60, seed=3)
    b = search_uqt(0.45, budget=60, seed=3)
    assert a == b


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_rank4_example():
    rep = analyze(families.example_rank4_uqt())
    assert rep.profile.f_max == pytest.approx(0.75, abs=1e-12)
    assert rep.profile.uqt and rep.oracle_agrees
    assert rep.choi_rank == 4 and not rep.unital


def test_analyze_universal_only_example():
    rep = analyze(families.example_rank3_universal_only())
    assert rep.profile.f_max == pytest.approx(0.55, abs=1e-12)
    assert not rep.profile.useful and rep.oracle_agrees


def test_analyze_gadc_values():
    rep = analyze(families.gadc(0.5, 0.7))
    f_ref = 0.5 + (2 * np.sqrt(0.5) + 0.5) / 6
    d_ref = np.sqrt(0.5) * (1 - np.sqrt(0.5)) / (3 * S5)
    assert rep.profile.f_max == pytest.approx(f_ref, abs=1e-12)
    assert rep.profile.delta == pytest.approx(d_ref, abs=1e-12)
    assert rep.oracle_agrees


def test_evaluate_point_matched_requires_matched_family():
    with pytest.raises(SweepSpecError, match="matched"):
        evaluate_point("dephasing", {"p": 0.5}, initial="matched")


@pytest.mark.parametrize("family_id,params,f_law", [
    ("lambda_star_nu", {"C": 0.6},
     lambda c: (3 - np.sqrt(1 - c * c)
                + np.sqrt(3 * c * c - 2 + 2 * np.sqrt(1 - c * c))) / 4),
    ("lambda_tilde_nu", {"C": 0.6, "p2": 0.6}, lambda c: (1 + 0.6 * c) / 2),
    ("lambda_u4", {"C": 0.7}, lambda c: (3 + 4 * c) / (6 + 3 * c)),
    ("uqt_unital_for_pure", {"C": 0.7, "p0": 0.7}, lambda c: None),
])
def test_evaluate_point_matched_concurrence(family_id, params, f_law):
    # "matched" pairs the input concurrence with the right channel parameter
    c = params["C"]
    _, _, prof = evaluate_point(family_id, params, initial="matched")
    assert prof.delta <= 1e-10
    expected = f_law(c)
    if expected is not None:
        assert prof.f_max == pytest.approx(expected, abs=1e-10)


def test_parse_initial():
    assert np.allclose(explorer.parse_initial("bell3").rho, states.bell_state(3).rho)
    assert np.allclose(explorer.parse_initial("pure:0.8").rho, states.pure_state(0.8).rho)
    with pytest.raises(SweepSpecError):
        explorer.parse_initial("thermal")
