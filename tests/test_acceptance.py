"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them all)."""

import dataclasses
import json

import pytest

from uqtchan import acceptance


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
