import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtchan import channels, explorer, families, states
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
    # a sweep is a deterministic grid: "seed", like any unknown key, is ignored
    spec = SweepSpec.from_jsonable({
        "family": {"id": "dephasing"}, "seed": "none",
        "axes": [{"param": "p", "start": 0.1, "stop": 0.3, "step": 0.1}]})
    assert spec.family.family_id == "dephasing"


def test_sweep_grid_cap():
    spec = make_spec("dephasing", {}, [("p", 0.0, 1.0, 1e-8)])
    with pytest.raises(SweepSpecError, match="cap"):
        run_sweep(spec)


def test_axis_validation():
    with pytest.raises(SweepSpecError, match="step"):
        Axis("p", 0.0, 1.0, -0.1).values()
    with pytest.raises(SweepSpecError, match="start"):
        Axis("p", 1.0, 0.0, 0.1).values()


def scalar_row(family_id, params, initial, idx):
    """The value and error columns of grid row idx, built from evaluate_point
    and report one point at a time, and whether its oracle check failed."""
    try:
        ch, final, prof = evaluate_point(family_id, params, initial)
    except ValueError as exc:
        return (None,) * len(CSV_FIELDS) + (str(exc),), False
    rep = channels.report(ch)
    checked = idx % explorer.ORACLE_EVERY == 0
    failed = checked and not explorer.oracle_check(final, prof)[0]
    return (prof.f_max, prof.delta, prof.det_t, rep.choi_rank, rep.unital, prof.useful,
            prof.universal, prof.uqt, checked, ""), failed


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
        values, failed = scalar_row(family_id, point, initial, idx)
        expected = (family_id, *combo, *values)
        assert row == expected
        assert [type(v) for v in row] == [type(v) for v in expected]
        failures += failed
    assert result.oracle_failures == failures


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


# ---------------------------------------------------------------------------
# randomized search
# ---------------------------------------------------------------------------

def test_random_nonunital_channel_properties():
    rng = np.random.Generator(np.random.Philox(key=5))
    ch = random_nonunital_channel(rng, rank=3)
    assert ch is not None
    rep = channels.report(ch)
    assert not rep.unital
    assert rep.choi_rank <= 3
    assert channels.completeness_residual(ch.kraus) < 1e-9


def _starts(n, seed=21):
    """n starting points, one Philox stream each; even members rank 4, odd rank 3."""
    ranks = [4 if j % 2 == 0 else 3 for j in range(n)]
    starts = [explorer._random_start(np.random.Generator(np.random.Philox(key=seed + j)), r)
              for j, r in enumerate(ranks)]
    return np.array(starts), ranks


def _same_eigenpairs(a, b):
    return (a is None) == (b is None) and (a is None or all(
        np.max(np.abs(x - y)) <= 1e-12 for x, y in zip(a, b)))


def test_block_projection_matches_one_candidate_calls():
    starts, ranks = _starts(12)
    for max_iters in (1, 200):
        block = explorer._project_block(starts, ranks, max_iters)
        for x, r, pairs in zip(starts, ranks, block):
            assert _same_eigenpairs(pairs, explorer._project_block(x[None], [r], max_iters)[0])
        converged = sum(pairs is not None for pairs in block)
        # members converge at different iterations: some at the first, all by 200
        assert 0 < converged < 12 if max_iters == 1 else converged == 12


def test_block_member_out_of_iterations_gives_none_alone():
    starts, ranks = _starts(12)
    short = explorer._project_block(starts, ranks, 5)
    full = explorer._project_block(starts, ranks, 200)
    assert any(pairs is None for pairs in short) and any(pairs is not None for pairs in short)
    for s, f in zip(short, full):
        assert s is None or _same_eigenpairs(s, f)
    rng = np.random.Generator(np.random.Philox(key=22))
    assert random_nonunital_channel(rng, rank=3, max_iters=5) is None


def test_search_blocks_match_one_sample_blocks(monkeypatch):
    budget = 2 * explorer.SEARCH_BLOCK + 30
    blocked = search_uqt(0.45, budget=budget, seed=4).to_jsonable()
    monkeypatch.setattr(explorer, "SEARCH_BLOCK", 1)
    single = search_uqt(0.45, budget=budget, seed=4).to_jsonable()
    assert len(blocked["hits"]) > 0 and len(blocked["frontier"]) > 0
    for key in ("hits", "frontier"):
        assert [e["channel"] for e in blocked[key]] == [e["channel"] for e in single[key]]
        for a, b in zip(blocked[key], single[key]):
            assert a["uqt"] == b["uqt"] and a["params"] == pytest.approx(b["params"], abs=1e-12)
            assert a["f_max"] == pytest.approx(b["f_max"], abs=1e-12)
            assert a["delta"] == pytest.approx(b["delta"], abs=1e-12)


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
    assert not rep.conclusive  # negative result is explicitly inconclusive
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


def test_analyze_file_round_trip(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(channels.channel_to_json(families.example_rank4_uqt()))
    rep = explorer.analyze_file(str(path))
    assert rep.profile.f_max == pytest.approx(0.75, abs=1e-12)
    doc = rep.to_jsonable()
    json.dumps(doc)  # serializable
    assert doc["profile"]["uqt"] is True


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
