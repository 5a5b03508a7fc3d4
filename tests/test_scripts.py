import importlib.util
from pathlib import Path

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
