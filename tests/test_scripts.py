import json
import os
import subprocess
import sys

import numpy as np
import pytest

from uqtchan import families

from conftest import SCRIPTS, load_script


def test_search_critical_concurrence_without_zero_deviation_entry(capsys):
    # at seed 0 the only frontier entry is a random rank-3 channel with delta 0.066
    load_script("search_critical_concurrence").main(["--budget", "1", "--grid", "0.3"])
    row = capsys.readouterr().out.splitlines()[2].split()
    assert row == ["0.3000", "0", "n/a"]


@pytest.mark.parametrize("argv,message", [
    (["--grid", "0.3,abc"], "could not convert string to float: 'abc'"),
    (["--grid", "1.5"], "must lie in (0, 1), got [1.5]"),
    (["--grid", "0.3,nan"], "must lie in (0, 1), got [nan]"),
    (["--budget", "0", "--grid", "0.3"], "--budget must be at least 1"),
])
def test_search_critical_concurrence_bad_arguments_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        load_script("search_critical_concurrence").main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_reproduce_noise_catalog_rows(capsys):
    module = load_script("reproduce_noise_catalog")
    module.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [fam for fam in families.NOISE_IDS
                                        for _ in module.POINTS[fam]]
    # only the two depolarizing rows ever leave the Bell output UQT-useful
    assert {row[0] for row in rows if row[-1] == "True"} <= {"depolarizing_m", "depolarizing_nm"}
    assert {row[-1] for row in rows} == {"True", "False"}


def test_run_threshold_suite_errors(capsys):
    module = load_script("run_threshold_suite")
    module.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [case[0] for case in module.CASES]
    assert all(float(row[5]) <= 1e-7 for row in rows), rows


def _compare(tmp_path, a, b):
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    return load_script("compare_references").compare(str(tmp_path / "a.json"),
                                                      str(tmp_path / "b.json"))


_REFERENCE = {"sweep": {"rows": [["gadc", 0.1, 0.9, True, 4, ""]], "oracle_failures": 0},
              "search": {"hits": [{"channel": "x", "params": {"p2": 0.5}, "f_max": 0.7}]}}


def test_compare_references_counts_identical_items_and_float_moves(tmp_path, capsys):
    moved = json.loads(json.dumps(_REFERENCE))
    moved["search"]["hits"][0]["f_max"] += 3e-16
    assert _compare(tmp_path, _REFERENCE, _REFERENCE) == 0
    assert capsys.readouterr().out.splitlines() == [
        "items: 2", "byte-identical: 2", "largest float difference: 0",
        "sweep: 1/1 byte-identical", "search: 1/1 byte-identical"]
    assert _compare(tmp_path, _REFERENCE, moved) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "byte-identical: 1" and out[2].startswith("largest float difference: 3.")
    assert out[3:5] == ["sweep: 1/1 byte-identical", "search: 0/1 byte-identical"]
    assert out[5:] == [f"not byte-identical: search (largest float difference {out[2][26:]})"]


def test_compare_references_names_every_item_that_moved(tmp_path, capsys):
    # every moved item by name, in dump order, each with its own largest
    # float difference (0 where only a non-float value moved), more than 20
    a = {f"grid family{i}": {"rows": [[0.5, True, ""]]} for i in range(50)}
    b = json.loads(json.dumps(a))
    for i in range(2, 50, 2):  # 0.5 + i ulp, exact
        b[f"grid family{i}"]["rows"][0][0] += i * 2.0**-53
    b["grid family1"]["rows"][0][2] = "error"
    assert _compare(tmp_path, a, b) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["items: 50", "byte-identical: 25",
                       f"largest float difference: {48 * 2.0**-53:.3g}", "grid: 25/50 byte-identical"]
    assert out[4:] == [
        "not byte-identical: grid family1 (largest float difference 0)",
        *(f"not byte-identical: grid family{i} (largest float difference {i * 2.0**-53:.3g})"
          for i in range(2, 50, 2)),
        "differs: ['grid family1']['rows'][0][2]: '' != 'error'"]


def test_compare_references_dump_gates_the_record_without_closed_forms(tmp_path, capsys):
    module = load_script("compare_references")
    path = str(tmp_path / "dump.json")
    assert module.main(["dump", path]) == 0
    capsys.readouterr()
    with open(path, encoding="utf-8") as fh:
        items = json.load(fh)
    item = items["analyze pauli_mixture(0, 0.4, 0.4, 0.2) bell1"]  # det T = 0.024 > 0
    prof = item["profile"]
    assert prof["formula_valid"] is False and prof["f_max"] is None and prof["delta"] is None
    assert item["oracle"]["agrees"] is None
    # the Kraus-list contract: a Pauli mixture omits its zero-weight operators
    # and gadc keeps all four at the ends of its ranges
    assert len(items["channel pauli_mixture (1.0, 0.0, 0.0, 0.0)"]["kraus"]) == 1
    assert len(items["channel pauli_mixture (0.0, 0.5, 0.0, 0.5)"]["kraus"]) == 2
    assert [len(items[f"channel gadc {end}"]["kraus"]) for end in ("gamma=0", "N=0", "N=1")] \
        == [4, 4, 4]
    assert items["channel pauli_mixture p0=0"]["error"].startswith("ValueError: probabilities")
    # the stacked oracle against its one-member view, state by state
    stack = items["oracle stack"]
    singles = [items[f"oracle state {k}"] for k in range(len(stack["mean_f"]))]
    assert len(singles) == 30
    for key in ("mean_f", "delta"):
        assert max(abs(a - b[key]) for a, b in zip(stack[key], singles)) <= 1e-14
    # random_kraus draws: the two-draw isometry's bits and generator state
    for rank in range(1, 5):
        rng = np.random.default_rng(rank)
        for draw in items[f"draw random_kraus rank {rank}"]["draws"]:
            g = rng.normal(size=(2 * rank, 2)) + 1j * rng.normal(size=(2 * rank, 2))
            pairs = np.array(draw["kraus"])
            kraus = pairs[..., 0] + 1j * pairs[..., 1]
            assert kraus.tobytes() == np.linalg.qr(g)[0].reshape(rank, 4).tobytes()
            assert draw["state"] == rng.bit_generator.state
    assert {"search 0.45 300 -1", f"search 0.45 300 {2**64 + 5}"} <= set(items)
    assert module.compare(path, path) == 0
    tally = capsys.readouterr().out.splitlines()[3:]
    categories = ("sweep", "grid", "search", "analyze", "channel", "validate", "draw", "threshold",
                  "verify", "oracle")
    assert [line.split(":")[0] for line in tally] == list(categories)
    assert all(same == total for same, total in (line.split()[1].split("/") for line in tally))


def test_compare_references_compare_runs_without_the_library(tmp_path):
    # compare reads two dumps only; it must not need uqtchan on the path
    (tmp_path / "a.json").write_text(json.dumps(_REFERENCE))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(SCRIPTS / "compare_references.py"), "compare",
                           "a.json", "a.json"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[:3] == ["items: 2", "byte-identical: 2",
                                            "largest float difference: 0"]


def test_compare_references_stops_quietly_when_its_reader_closes_stdout(tmp_path):
    # `compare A B | head -n 1`: 20,000 moved items print far more than a
    # pipe holds, so the writes after the reader is gone fail
    a = {f"grid family{i}": [0.5] for i in range(20000)}
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps({name: [0.5 + 2.0**-52] for name in a}))
    with subprocess.Popen([sys.executable, str(SCRIPTS / "compare_references.py"), "compare",
                           "a.json", "b.json"], cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "items: 20000\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (1, "")


@pytest.mark.parametrize("path,value", [
    (("sweep", "rows", 0, 2), 0.9 + 2e-12),  # a float moved beyond 1e-12
    (("sweep", "rows", 0, 3), False),  # a verdict
    (("sweep", "rows", 0, 4), 4.0),  # an int became a float
    (("sweep", "rows", 0, 5), "out of range"),  # an error text
    (("sweep", "oracle_failures"), 1),
    (("search", "hits"), []),  # a hit lost
    (("search", "hits", 0, "params"), {"p2": 0.5, "p1": 0.45}),  # a key added
])
def test_compare_references_fails_on_any_other_difference(tmp_path, capsys, path, value):
    changed = json.loads(json.dumps(_REFERENCE))
    target = changed
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert _compare(tmp_path, _REFERENCE, changed) == 1
    assert _compare(tmp_path, changed, _REFERENCE) == 1
    capsys.readouterr()
