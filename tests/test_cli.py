import contextlib
import copy
import functools
import io
import json
import operator
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtchan import acceptance, channels, explorer, families
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


def test_analyze_oracle_agrees_is_null_where_nothing_was_compared(tmp_path, capsys):
    # det T = 0.024 > 0 on bell1: no closed form, so the oracle compares nothing
    path = write_channel(tmp_path, families.pauli_mixture(0.0, 0.4, 0.4, 0.2))
    assert main(["analyze", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["profile"]) == ["f_max", "delta", "det_t", "abs_t", "useful",
                                    "universal", "uqt", "formula_valid"]
    assert doc["profile"]["formula_valid"] is False
    assert doc["profile"]["f_max"] is None and doc["profile"]["delta"] is None
    assert doc["profile"]["det_t"] == pytest.approx(0.024, abs=1e-12)
    assert doc["oracle"]["agrees"] is None


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


def test_analyze_overflowing_channel_exit_2(tmp_path, capsys):
    # finite entries whose products overflow fail completeness (residual
    # NaN): an invalid channel, not a failed computation
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(
        {"kraus": [[[1e200, 0.0], [1e200, 0.0], [1e200, 0.0], [-1e200, 0.0]]]}))
    assert main(["analyze", str(path)]) == 2
    assert "completeness violated: ||sum K^dag K - I||_max = nan" in capsys.readouterr().err


_BIG = "1" + "0" * 400  # a JSON integer too large for a float
_IDENTITY = '"kraus": [[[1, 0], [0, 0], [0, 0], [1, 0]]]'


@pytest.mark.parametrize("text,message", [
    ("[]", "expected a JSON object, got list"),
    ("null", "expected a JSON object, got NoneType"),
    ("5", "expected a JSON object, got int"),
    ("{%s, \"params\": {\"x\": %s}}" % (_IDENTITY, _BIG), "too large to convert to float"),
    ("{%s, \"params\": {\"x\": NaN}}" % _IDENTITY, "params must be finite"),
    ("{%s, \"params\": {\"x\": 1e999}}" % _IDENTITY, "params must be finite"),
    ("[" * 100000 + "]" * 100000, "invalid JSON"),
    (b"\xff\xfe{}", "can't decode byte 0xff"),  # like a missing or a non-JSON file
    ('{"kraus": [[[true, 0], [0, 0], [0, 0], [1, 0]]]}', "expected a number, got True"),
    ('{"kraus": [[["1", 0], [0, 0], [0, 0], [1, 0]]]}', "expected a number, got '1'"),
    ('{%s, "params": {"p": true}}' % _IDENTITY, "expected a number, got True"),
    ('{%s, "params": {"p": "0.5"}}' % _IDENTITY, "expected a number, got '0.5'"),
    ('{%s, "params": [["p", 0.5]]}' % _IDENTITY, "params an object"),
    ('{%s, "name": null}' % _IDENTITY, "name must be a string"),
    ('{%s, "name": {"a": 1}}' % _IDENTITY, "name must be a string"),
])
def test_analyze_outside_document_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "channel.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


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


def test_sweep_unwritable_output_exit_3(tmp_path, capsys, monkeypatch):
    # the output file fails before any row is computed
    monkeypatch.setattr(explorer, "run_sweep", lambda spec: pytest.fail("ran the sweep"))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"family": {"id": "dephasing"},
                                     "axes": [{"param": "p", "start": 0.1, "stop": 0.9,
                                               "step": 0.2}]}))
    out = tmp_path / "no_such_dir" / "x.csv"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "no_such_dir" in captured.err
    assert captured.out == "" and not out.parent.exists()


def test_sweep_bad_spec_exit_3(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"axes": []}))
    assert main(["sweep", str(spec_path)]) == 3


_GAMMA = '{"param": "gamma", "start": 0.1, "stop": 0.2, "step": 0.1}'


@pytest.mark.parametrize("text,message", [
    ('{"family": {"id": "gadc", "params": null}, "axes": [%s]}' % _GAMMA,
     "family params must be a JSON object"),
    ('{"family": {"id": "gadc", "params": [0.1]}, "axes": [%s]}' % _GAMMA,
     "family params must be a JSON object"),
    ('{"family": {"id": "gadc", "params": {"N": %s}}, "axes": [%s]}' % (_BIG, _GAMMA),
     "too large to convert to float"),
    ('{"family": {"id": "gadc", "params": {"N": 0.1}}, '
     '"axes": [{"param": "gamma", "start": 0.1, "stop": %s, "step": 0.1}]}' % _BIG,
     "too large to convert to float"),
    ('{"family": {"id": "gadc", "params": {"N": 0.1}}, '
     '"axes": [{"param": "gamma", "start": 0.1, "stop": 0.2, "step": %s}]}' % _BIG,
     "too large to convert to float"),
    ('{"family": {"id": "gadc", "params": {"N": 0.1}}, "axes": [%s, '
     '{"param": "gamma", "start": 0.5, "stop": 0.6, "step": 0.1}]}' % _GAMMA,
     "gadc: gamma and gamma both set gamma"),
    ('{"family": {"id": "lambda_tilde_nu", "params": {"p2": 0.1}}, "axes": ['
     '{"param": "C", "start": 0.5, "stop": 0.6, "step": 0.1}, '
     '{"param": "p1", "start": 0.5, "stop": 0.6, "step": 0.1}]}',
     "lambda_tilde_nu: C and p1 both set p1"),
    ('{"family": {"id": "gadc", "params": {"N": 0.1}}, "axes": ['
     '{"param": "x", "start": 0.1, "stop": 0.3, "step": 0.1}]}',
     "gadc: unknown parameter 'x'"),
    ('{"family": {"id": "gadc"}, "axes": [%s]}' % _GAMMA, "gadc: missing parameters ['N']"),
    ("[" * 100000 + "]" * 100000, "recursion"),
    (b"\xff\xfe{}", "can't decode byte 0xff"),
    ('{"family": {"id": "gadc", "params": {"N": true}}, "axes": [%s]}' % _GAMMA,
     "expected a number, got True"),
    ('{"family": {"id": "gadc", "params": {"N": "0.1"}}, "axes": [%s]}' % _GAMMA,
     "expected a number, got '0.1'"),
    ('{"family": {"id": "gadc", "params": {"N": 0.1}}, '
     '"axes": [{"param": "gamma", "start": "0", "stop": 0.2, "step": 0.1}]}',
     "expected a number, got '0'"),
    ('{"family": {"id": "gadc", "params": {"N": 0.1}}, '
     '"axes": [{"param": "gamma", "start": 0.1, "stop": 0.2, "step": false}]}',
     "expected a number, got False"),
])
def test_sweep_outside_document_exit_3(tmp_path, capsys, text, message):
    path = tmp_path / "spec.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["sweep", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


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
    spec_path, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", str(spec_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    # run_sweep rejects the spec before its first row: no output file is
    # left, and an existing one is kept as it was
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 3
    assert message in capsys.readouterr().err and not out.exists()
    out.write_text("old")
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 3
    assert out.read_text() == "old"


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


@pytest.mark.parametrize("outputs", ["f_max", ["f_max", "f_max"], []],
                         ids=["string", "repeated", "empty"])
def test_sweep_outputs_not_distinct_names_exit_3(tmp_path, capsys, outputs):
    # a string would be split into characters, a repeated name written twice,
    # and no name would leave a valid row nothing to print
    spec = {"family": {"id": "dephasing"}, "outputs": outputs,
            "axes": [{"param": "p", "start": 0.1, "stop": 0.9, "step": 0.2}]}
    spec_path, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "outputs must be a list of distinct field names" in captured.err


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
    """Counts the predicate evaluations of a bisection, the row engine's
    calls; a bisection that does not stop raises, so the test fails instead
    of hanging."""
    calls = []
    classify = explorer._classify_rows

    def counted(*args, **kwargs):
        calls.append(args)
        if len(calls) > 200:
            raise RuntimeError("bisection did not stop")
        return classify(*args, **kwargs)

    monkeypatch.setattr(explorer, "_classify_rows", counted)
    return calls


@pytest.mark.parametrize("args, message", [
    (["--family", "werner", "--param", "p", "--bracket", "0.3,0.9", "--tol", "0"], "tol"),
    (["--family", "werner", "--param", "p", "--bracket", "0.3,0.9", "--tol", "nan"], "tol"),
    (["--family", "werner", "--param", "p", "--bracket", "0.9,0.3"], "increasing"),
    (["--family", "adc_m", "--param", "t", "--bracket", "0.1,inf", "--fixed", "gamma=1"],
     "finite"),
    (["--family", "werner", "--param", "p", "--bracket", "0.1"],
     "error: --bracket takes two numbers LO,HI, got '0.1'\n"),
    (["--family", "werner", "--param", "p", "--bracket", "a,b"],
     "error: --bracket takes two numbers LO,HI, got 'a,b'\n"),
    (["--family", "gadc", "--param", "gamma", "--bracket", "0.1,1.0", "--fixed", "N"],
     "error: --fixed takes NAME=VALUE with a number VALUE, got 'N'\n"),
    (["--family", "gadc", "--param", "gamma", "--bracket", "0.1,1.0", "--fixed", "N=x"],
     "error: --fixed takes NAME=VALUE with a number VALUE, got 'N=x'\n"),
], ids=["tol 0", "tol nan", "decreasing bracket", "infinite bracket", "bracket of one value",
        "bracket of no numbers", "fixed without =", "fixed of no number"])
def test_threshold_bad_input_exit_3(capsys, point_calls, args, message):
    assert main(["threshold", "--predicate", "useful"] + args) == 3
    assert message in capsys.readouterr().err
    assert point_calls == []


def test_threshold_tol_below_float_spacing_returns(capsys, point_calls):
    assert main(["threshold", "--family", "werner", "--param", "p", "--bracket", "0.3,0.9",
                 "--predicate", "useful", "--tol", "1e-20"]) == 0
    lo, hi = json.loads(capsys.readouterr().out)["bracket"]
    assert hi == np.nextafter(lo, 1.0)
    assert 2 < len(point_calls) <= 2 + 64


@pytest.mark.parametrize("args", [
    ["--family", "gadc", "--param", "gamma", "--bracket", "0.1,1.0", "--predicate", "useful",
     "--fixed", "N=0.1", "--fixed", "gamma=0.5"],
    ["--family", "lambda_tilde_nu", "--param", "C", "--bracket", "0.4,0.7", "--predicate", "uqt",
     "--fixed", "p1=0.5"],
], ids=["by name", "by alias"])
def test_threshold_fixed_param_on_the_bisected_one_exit_3(capsys, point_calls, args):
    assert main(["threshold"] + args) == 3
    assert "both set" in capsys.readouterr().err
    assert point_calls == []


def test_threshold_repeated_fixed_name_exit_3(capsys, point_calls):
    # the second value would otherwise silently replace the first
    assert main(["threshold", "--family", "gadc", "--param", "gamma", "--bracket", "0.1,1.0",
                 "--predicate", "useful", "--fixed", "N=0.1", "--fixed", "N=0.7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --fixed N given twice\n"
    assert point_calls == []


_CLI_NUMBERS = st.sampled_from(["0.1", "0.5", "0.9", "1.0", "-1", "0", "2", "nan", "inf",
                                "1e300", "x", ""])
#: threshold arguments with a threshold in the bracket
_SCENARIOS = [
    ["--family", "werner", "--param", "p", "--bracket=0.3,0.9", "--predicate", "useful"],
    ["--family", "gadc", "--param", "gamma", "--bracket=0.1,1.0", "--predicate", "useful",
     "--fixed", "N=0.7"],
    ["--family", "lambda_star_nu", "--param", "C", "--bracket=0.3,0.6", "--predicate", "uqt"],
]


def _threshold_argv(data, tmp):
    # flags of a scenario with a threshold replaced by arbitrary or malformed ones
    argv = ["threshold"] + data.draw(st.sampled_from(_SCENARIOS))
    for flag, values in (
            ("--family", st.sampled_from(["gadc", "werner", "lambda_tilde_nu", "nope", ""])),
            ("--param", st.sampled_from(["gamma", "N", "p", "C", "p1", "p2", "x"])),
            ("--bracket", st.tuples(_CLI_NUMBERS, _CLI_NUMBERS).map(",".join) | _CLI_NUMBERS),
            ("--predicate", st.sampled_from(["useful", "universal", "uqt", "bogus"])),
            ("--tol", st.sampled_from(["1e-6", "1e-20", "0", "-1", "nan", "x"])),
            ("--initial", st.sampled_from(["bell1", "matched", "pure:0.8", "pure:2", "bell9"])),
            ("--fixed", st.tuples(st.sampled_from(["N", "gamma", "p1", "C", "x", ""]),
                                  _CLI_NUMBERS).map("=".join) | st.sampled_from(["N", "="]))):
        if data.draw(st.sampled_from([False, False, False, True])):
            argv.append(f"{flag}={data.draw(values)}")
    return argv


#: JSON values a mutated document holds in place of a field: other types,
#: names, and numbers that keep a spec's grid at most 49 rows, or take it over
#: MAX_GRID_ROWS or out of the floats, so every run stays small
_ODD_JSON = st.sampled_from([
    None, True, False, "", "x", "0.5", "gamma", "N", "p", "bell2", "matched", "f_max",
    [], [0.5], {}, {"N": 0.5}, -1, 0, 0.5, 1, 2, 1e308, -1e308, 1e-300, 5e-324,
    float("nan"), float("inf"), float("-inf"), 10**400])
_SPECS = [
    {"family": {"id": "gadc", "params": {"N": 0.1}}, "initial": "bell1",
     "axes": [{"param": "gamma", "start": 0, "stop": 1, "step": 0.5}], "outputs": ["uqt"]},
    {"family": {"id": "gadc"}, "initial": "bell2",
     "axes": [{"param": "gamma", "start": 0, "stop": 1, "step": 0.5},
              {"param": "N", "start": 0, "stop": 0.5, "step": 0.5}], "outputs": ["f_max", "delta"]},
    {"family": {"id": "lambda_star_nu"}, "initial": "matched",
     "axes": [{"param": "C", "start": 0.3, "stop": 0.6, "step": 0.1}], "outputs": ["oracle_checked"]},
]
_CHANNELS = [json.loads(channels.channel_to_json(ch)) for ch in
             (families.example_rank4_uqt(), families.gadc(0.5, 0.7), families.werner(0.4))]


def _paths(node, path=()):
    """The path of every node of a JSON document, the document's own first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _mutated(data, doc):
    """A copy of a JSON document with up to three nodes replaced by an
    _ODD_JSON value, dropped from their object or, a list, cut short."""
    holder = [copy.deepcopy(doc)]
    for _ in range(data.draw(st.integers(0, 3))):
        *parents, key = data.draw(st.sampled_from(list(_paths(holder))[1:]))
        parent = functools.reduce(operator.getitem, parents, holder)
        how = data.draw(st.sampled_from(["replace", "drop", "cut"]))
        if how == "replace":
            parent[key] = copy.deepcopy(data.draw(_ODD_JSON))  # a cut must not change the pool
        elif how == "drop" and isinstance(parent, dict):
            del parent[key]
        elif how == "cut" and isinstance(parent[key], list):
            del parent[key][data.draw(st.integers(0, len(parent[key]))):]
    return holder[0]


_RAW_FILES = {"not UTF-8": b"\xff\xfe{}", "not JSON": b"{", "nested": b"[" * 5000 + b"]" * 5000}


def _file(data, tmp, documents):
    """The path of a file holding a mutated document or one of _RAW_FILES, of
    no file, or of a directory."""
    kind = data.draw(st.sampled_from(["document"] * 5 + [*_RAW_FILES, "missing", "directory"]))
    path = os.path.join(tmp, "input.json")
    if kind == "directory":
        return tmp
    if kind == "document":
        with open(path, "w") as fh:
            json.dump(_mutated(data, data.draw(st.sampled_from(documents))), fh)
    elif kind != "missing":
        with open(path, "wb") as fh:
            fh.write(_RAW_FILES[kind])
    return path


def _output(data, tmp):
    target = data.draw(st.sampled_from([None, None, "out", os.path.join("missing", "out"), "."]))
    return [] if target is None else ["-o", os.path.join(tmp, target)]


def _analyze_argv(data, tmp):
    initial = data.draw(st.sampled_from(["bell1", "bell4", "pure:0.8", "pure:2", "bell9", "x"]))
    return ["analyze", _file(data, tmp, _CHANNELS), "--initial", initial]


def _sweep_argv(data, tmp):
    return ["sweep", _file(data, tmp, _SPECS)] + _output(data, tmp)


def _search_argv(data, tmp):
    return ["search-uqt", f"--concurrence={data.draw(_CLI_NUMBERS)}",
            f"--budget={data.draw(st.sampled_from(['-1', '0', '1', '3', '8', 'x']))}",
            f"--seed={data.draw(st.sampled_from(['0', '7', '-1', str(2**64), 'x']))}",
            ] + _output(data, tmp)


def _list_families_argv(data, tmp):
    return ["list-families"] + data.draw(st.sampled_from([[], ["--json"], ["--bogus"]]))


def _verify_argv(data, tmp):
    return ["verify", f"--only={data.draw(st.sampled_from([str(n) for n in range(-1, 13)] + ['x']))}"]


#: command -> (argv strategy, the codes the README gives it besides argparse's 2)
_COMMANDS = {
    "analyze": (_analyze_argv, (0, 2, 3, 4)),
    "sweep": (_sweep_argv, (0, 3, 4)),
    "threshold": (_threshold_argv, (0, 3)),
    "search-uqt": (_search_argv, (0, 3)),
    "list-families": (_list_families_argv, (0,)),
    "verify": (_verify_argv, (0, 1, 3)),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(_COMMANDS)), data=st.data())
def test_cli_exits_with_a_code(command, data):
    # arbitrary or malformed input to each command ends in one of its codes:
    # argparse rejects a malformed flag with SystemExit(2); anything else is
    # returned by main, a 2 or 3 with one `error: ` line, never a traceback
    draw_argv, codes = _COMMANDS[command]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(draw_argv(data, tmp))
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert code in codes
    if code in (2, 3):
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


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


def test_search_uqt_unwritable_output_exit_3(tmp_path, capsys, monkeypatch):
    # the output file fails before any sample is drawn
    monkeypatch.setattr(explorer, "search_uqt", lambda *a, **k: pytest.fail("ran the search"))
    out = tmp_path / "no_such_dir" / "x.json"
    assert main(["search-uqt", "--concurrence", "0.45", "--budget", "3",
                 "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "no_such_dir" in captured.err
    assert captured.out == "" and not out.parent.exists()


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


@pytest.mark.parametrize("only", ["0", "12", "-1"])
def test_verify_rejects_a_criterion_that_does_not_exist(monkeypatch, capsys, only):
    # 0 used to run all eleven, 12 to end in an IndexError, -1 to run the
    # tenth as "criterion -1"
    monkeypatch.setattr(acceptance, "run_criterion", lambda i: pytest.fail(f"ran {i}"))
    assert main(["verify", "--only", only]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "1..11" in captured.err
    assert captured.out == ""


def test_verify_single_criterion(capsys):
    assert main(["verify", "--only", "5"]) == 0
    out = capsys.readouterr().out
    assert "criterion  5" in out and "PASS" in out
