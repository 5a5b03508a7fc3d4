"""The benchmark's tracer names library functions by string; a rename or
removal in uqtchan must fail here, not silently in a `--trace 1` run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

NAMES = [f"{mod}.{qual}" for table in (tracing.TRACED, tracing.ENTRY_POINTS)
         for mod, quals in table.items() for qual in quals]


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    mod_name, qual = name.split(".", 1)
    owner = importlib.import_module(f"uqtchan.{mod_name}")  # no earlier test need import it
    if "." in qual:  # Class.method, wrapped in the class dict
        cls_name, meth = qual.split(".")
        owner, qual = getattr(owner, cls_name), meth
        assert qual in vars(owner)
    assert callable(getattr(owner, qual))


def test_hooked_names_are_traced():
    assert set(tracing.HOOKED) <= set(NAMES)
