import json

import numpy as np
import pytest

from uqtchan import channels, explorer, families
from uqtchan.cli import main


def write_channel(tmp_path, ch, name="channel.json"):
    path = tmp_path / name
    path.write_text(channels.channel_to_json(ch))
    return str(path)


def test_analyze_ok(tmp_path, capsys):
    path = write_channel(tmp_path, families.example_rank4_uqt())
    assert main(["analyze", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["profile"]["uqt"] is True
    assert doc["oracle"]["agrees"] is True


def test_analyze_pure_initial(tmp_path, capsys):
    path = write_channel(tmp_path, families.lambda_star_nu(0.6))
    assert main(["analyze", path, "--initial", "pure:0.9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["channel"]["name"] == "lambda_star_nu"


def test_analyze_validation_failure_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"name": "bad", "kraus": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]}))
    assert main(["analyze", str(path)]) == 2
    assert "completeness" in capsys.readouterr().err


def test_analyze_missing_file_exit_2(capsys):
    assert main(["analyze", "/nonexistent/channel.json"]) == 2


def test_analyze_nan_channel_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(
        {"name": "nan", "kraus": [[[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}))
    assert main(["analyze", str(path)]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("excess,code", [(8e-10, 2), (8e-11, 2), (4e-11, 0)])
def test_analyze_completeness_at_trace_tolerance(tmp_path, capsys, excess, code):
    # sqrt(1 + excess) I has completeness residual `excess`: above half the
    # Choi trace tolerance (5e-11) it is rejected, below it analyzes
    r = float(np.sqrt(1.0 + excess))
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(
        {"name": "scaled", "kraus": [[[r, 0.0], [0.0, 0.0], [0.0, 0.0], [r, 0.0]]]}))
    assert main(["analyze", str(path)]) == code


def test_sweep_csv_deterministic(tmp_path, capsys):
    spec = {"family": {"id": "dephasing"},
            "axes": [{"param": "p", "start": 0.1, "stop": 0.9, "step": 0.2}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", str(spec_path), "-o", str(out1)]) == 0
    assert main(["sweep", str(spec_path), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("family,param:p,f_max,delta,det_t,choi_rank")
    assert len(lines) == 6


def test_sweep_bad_spec_exit_3(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"axes": []}))
    assert main(["sweep", str(spec_path)]) == 3


@pytest.mark.parametrize("initial", ["bell9", "pure:1.5", "ghz"])
def test_sweep_bad_initial_exit_3(tmp_path, capsys, initial):
    spec = {"family": {"id": "dephasing"}, "initial": initial,
            "axes": [{"param": "p", "start": 0.1, "stop": 0.9, "step": 0.2}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", str(spec_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "initial state" in captured.err


@pytest.mark.parametrize("family,initial,message", [
    ("nope", "bell1", "unknown family"),
    ("gadc", "matched", "initial='matched'"),
])
def test_sweep_spec_level_error_exit_3(tmp_path, capsys, family, initial, message):
    spec = {"family": {"id": family, "params": {"N": 0.5}}, "initial": initial,
            "axes": [{"param": "gamma", "start": 0.1, "stop": 0.9, "step": 0.2}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", str(spec_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("axis", [
    {"start": 0.1, "stop": float("inf"), "step": 0.2},
    {"start": float("nan"), "stop": 0.9, "step": 0.2},
    {"start": 0.1, "stop": 0.9, "step": float("nan")},
    {"start": -1e308, "stop": 1e308, "step": 1e-300},
])
def test_sweep_non_finite_axis_exit_3(tmp_path, capsys, axis):
    spec = {"family": {"id": "dephasing"}, "axes": [dict(axis, param="p")]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))  # json writes Infinity / NaN tokens
    assert main(["sweep", str(spec_path)]) == 3
    assert "axis 'p'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_sweep_non_finite_fixed_param_exit_3(tmp_path, capsys, value):
    spec = {"family": {"id": "gadc", "params": {"N": value}},
            "axes": [{"param": "gamma", "start": 0.1, "stop": 0.9, "step": 0.2}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))  # json writes Infinity / NaN tokens
    assert main(["sweep", str(spec_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "family params must be finite" in captured.err
    assert "'N'" in captured.err


def test_sweep_overflowing_time_law_is_an_error_row(tmp_path, capsys):
    spec = {"family": {"id": "pln_nm", "params": {"G": 1.0, "t": 1e100}},
            "axes": [{"param": "g", "start": 1e100, "stop": 1e100, "step": 1.0}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out.csv"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",pln_nm: derived p(t) overflows; the parameter regime is unphysical")


def test_sweep_grid_cap_counts_exactly(tmp_path, capsys):
    # 2**32 x 2**32 points: the row count must not wrap around to 0
    axis = {"start": 0.0, "stop": float(2**32 - 1), "step": 1.0}
    spec = {"family": {"id": "gadc"},
            "axes": [dict(axis, param="gamma"), dict(axis, param="N")]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", str(spec_path)]) == 3
    assert "exceeds the cap" in capsys.readouterr().err


def test_threshold_werner(capsys):
    assert main(["threshold", "--family", "werner", "--param", "p",
                 "--bracket", "0.3,0.9", "--predicate", "useful"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["critical_value"] == pytest.approx(0.5, abs=1e-8)


def test_threshold_fixed_params(capsys):
    assert main(["threshold", "--family", "gadc", "--param", "gamma",
                 "--bracket", "0.1,1.0", "--predicate", "useful",
                 "--fixed", "N=0.7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["critical_value"] == pytest.approx(2 * (np.sqrt(2) - 1), abs=1e-8)


def test_threshold_bad_bracket_exit_3(capsys):
    assert main(["threshold", "--family", "werner", "--param", "p",
                 "--bracket", "0.6,0.9", "--predicate", "useful"]) == 3


@pytest.fixture
def point_calls(monkeypatch):
    """Counts the predicate evaluations of a bisection; a bisection that
    does not stop raises, so the test fails instead of hanging."""
    calls = []
    evaluate = explorer.evaluate_point

    def counted(*args, **kwargs):
        calls.append(args)
        if len(calls) > 200:
            raise RuntimeError("bisection did not stop")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(explorer, "evaluate_point", counted)
    return calls


@pytest.mark.parametrize("args, message", [
    (["--family", "werner", "--param", "p", "--bracket", "0.3,0.9", "--tol", "0"], "tol"),
    (["--family", "werner", "--param", "p", "--bracket", "0.3,0.9", "--tol", "nan"], "tol"),
    (["--family", "werner", "--param", "p", "--bracket", "0.9,0.3"], "increasing"),
    (["--family", "adc_m", "--param", "t", "--bracket", "0.1,inf", "--fixed", "gamma=1"],
     "finite"),
], ids=["tol 0", "tol nan", "decreasing bracket", "infinite bracket"])
def test_threshold_bad_input_exit_3(capsys, point_calls, args, message):
    assert main(["threshold", "--predicate", "useful"] + args) == 3
    assert message in capsys.readouterr().err
    assert point_calls == []


def test_threshold_tol_below_float_spacing_returns(capsys, point_calls):
    assert main(["threshold", "--family", "werner", "--param", "p", "--bracket", "0.3,0.9",
                 "--predicate", "useful", "--tol", "1e-20"]) == 0
    lo, hi = json.loads(capsys.readouterr().out)["bracket"]
    assert hi == np.nextafter(lo, 1.0)
    assert len(point_calls) <= 2 + 64


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_search_uqt_bad_budget_exit_3(capsys, budget):
    assert main(["search-uqt", "--concurrence", "0.45", "--budget", budget]) == 3
    assert "budget" in capsys.readouterr().err


def test_search_uqt_writes_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["search-uqt", "--concurrence", "0.45", "--budget", "50",
                 "--seed", "7", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 7
    assert "hits" in doc and "frontier" in doc


def test_list_families(capsys):
    assert main(["list-families"]) == 0
    out = capsys.readouterr().out
    for fam in families.NOISE_IDS:
        assert fam in out
    assert "lambda_star_nu" in out


def test_list_families_json(capsys):
    assert main(["list-families", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {"family", "params", "doc"} <= set(rows[0])


def test_verify_single_criterion(capsys):
    assert main(["verify", "--only", "5"]) == 0
    out = capsys.readouterr().out
    assert "criterion  5" in out and "PASS" in out
