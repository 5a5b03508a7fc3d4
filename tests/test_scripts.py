import importlib.util
from pathlib import Path

import pytest

from uqtchan import families

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_critical_concurrence_without_zero_deviation_entry(capsys):
    # at seed 0 the only frontier entry is a random rank-3 channel with delta 0.11
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
