#!/usr/bin/env python3
"""Show that every output check of the benchmark trips on a wrong value.

    python3 perfbench/selfcheck.py

Runs one small unit of each workload, confirms that the real outputs pass
their checks, then feeds each check a copy with one deliberately wrong
value and confirms that it reports a failure. It also confirms that the
metric names the benchmark prints are the ones BENCHMARK.json lists.
Exits 1 if any check stays silent.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import uqtchan as uq  # noqa: E402
import uqtchan.acceptance  # noqa: E402,F401

import worker  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, failed: int, want_failure: bool = True) -> None:
    ok = (failed > 0) == want_failure
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {failed} failed")
    if not ok:
        FAILURES.append(label)


def mutate_row(outputs, family: str, pick, column: str, value):
    """Copy of sweep outputs with `column` of the first row matching `pick` set to value."""
    out = []
    done = False
    for fam, res in outputs:
        rows = list(res.rows)
        if fam == family and not done:
            for i, row in enumerate(rows):
                r = dict(zip(res.header, row))
                if pick(r):
                    r[column] = value(r[column]) if callable(value) else value
                    rows[i] = tuple(r[h] for h in res.header)
                    done = True
                    break
        out.append((fam, dataclasses.replace(res, rows=tuple(rows))))
    assert done, f"no {family} row to mutate"
    return out


def check_sweep() -> None:
    unit = wl.sweep_run(uq, wl.sweep_inputs(uq, 0, 0))
    expect("sweep: real outputs", wl.sweep_check(uq, None, unit.outputs)[0], want_failure=False)
    valid = lambda r: not r["error"]  # noqa: E731
    errored = lambda r: bool(r["error"])  # noqa: E731
    cases = [
        ("gadc", valid, "f_max", lambda v: v + 1e-9),
        ("gadc", valid, "delta", lambda v: v + 1e-9),
        ("gadc", valid, "useful", lambda v: not v),
        ("gadc", valid, "error", "raised"),
        ("uqt_nonunital_rank4", valid, "f_max", lambda v: v + 1e-9),
        ("uqt_nonunital_rank4", valid, "delta", 1e-9),
        ("uqt_nonunital_rank4", valid, "uqt", False),
        ("uqt_nonunital_rank4", valid, "choi_rank", 3),
        ("uqt_nonunital_rank4", valid, "unital", True),
        ("uqt_nonunital_rank4", valid, "error", "raised"),
        ("uqt_nonunital_rank4", errored, "error", ""),
    ]
    for family, pick, column, value in cases:
        bad = mutate_row(unit.outputs, family, pick, column, value)
        row = "error row" if pick is errored else "valid row"
        expect(f"sweep: {family} {row} {column}", wl.sweep_check(uq, None, bad)[0])
    fam, res = unit.outputs[0]
    bad = [(fam, dataclasses.replace(res, oracle_failures=1))] + unit.outputs[1:]
    expect("sweep: oracle_failures", wl.sweep_check(uq, None, bad)[0])


def check_search() -> None:
    points = wl.search_inputs(uq, 0, 0)
    unit = wl.search_run(uq, points)
    expect("search: real outputs", wl.search_check(uq, points, unit.outputs)[0], want_failure=False)
    expect("search: repeat", not wl.search_outputs_match(unit, wl.search_run(uq, points)),
           want_failure=False)
    k = next(i for i, (_, doc) in enumerate(unit.outputs) if doc["hits"])
    cases = {
        "hit f_max": lambda d: d["hits"][0].update(f_max=d["hits"][0]["f_max"] + 1e-9),
        "hit params": lambda d: d["hits"][0]["params"].update(
            p1=d["hits"][0]["params"]["p1"] + 1e-3),
        "hit uqt": lambda d: d["hits"][0].update(uqt=False),
        "hit name": lambda d: d["hits"][0].update(channel="random_rank3"),
        "frontier order": lambda d: d["frontier"].reverse(),
        "frontier dominated": lambda d: d["frontier"].append(dict(d["frontier"][0])),
        "frontier uqt": lambda d: d["frontier"][0].update(uqt=True),
    }
    for label, change in cases.items():
        outputs = copy.deepcopy(unit.outputs)
        change(outputs[k][1])
        expect(f"search: {label}", wl.search_check(uq, points, outputs)[0])
    again = copy.deepcopy(unit)
    again.outputs[k][1]["frontier"][0]["delta"] += 1e-15
    expect("search: repeat differs", not wl.search_outputs_match(unit, again))


def check_analyze() -> None:
    items = wl.analyze_inputs(uq, 0, 0)[:40]
    unit = wl.analyze_run(uq, items)
    expect("analyze: real outputs", wl.analyze_check(uq, items, unit.outputs)[0],
           want_failure=False)
    j = next(i for i, rep in enumerate(unit.outputs)
             if rep.profile.formula_valid and items[i].rank == 3)
    prof = unit.outputs[j].profile
    cases = {
        "f_max": {"profile": dataclasses.replace(prof, f_max=prof.f_max + 1e-9)},
        "delta": {"profile": dataclasses.replace(prof, delta=prof.delta + 1e-9)},
        "useful": {"profile": dataclasses.replace(prof, useful=not prof.useful)},
        "formula_valid": {"profile": dataclasses.replace(prof, formula_valid=False, f_max=None)},
        "oracle_agrees": {"oracle_agrees": False},
        "choi_rank": {"choi_rank": 4},
        "unital": {"unital": not unit.outputs[j].unital},
    }
    for label, fields in cases.items():
        reports = list(unit.outputs)
        reports[j] = dataclasses.replace(reports[j], **fields)
        expect(f"analyze: {label}", wl.analyze_check(uq, items, reports)[0])


def check_verify() -> None:
    # criterion 5 for real; the others stand in as passed, to keep this quick
    real = uq.acceptance.run_all(only=5)[0]
    results = [dataclasses.replace(real, index=i) for i in range(1, 12)]
    expect("verify: passing results", wl.verify_check(uq, None, results)[0], want_failure=False)
    failed = list(results)
    failed[4] = dataclasses.replace(real, passed=False)
    expect("verify: passed", wl.verify_check(uq, None, failed)[0])
    expect("verify: missing criterion", wl.verify_check(uq, None, results[:-1])[0])


def check_metric_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    work = worker.WORKLOADS["search"]
    traced = set(worker.traced_run(uq, work, 0, None)["metrics"])
    timed = set(worker.timed_run(uq, work, 0, 0.1)["metrics"]) | {"setup_s"}
    for label, printed, listed in (("per_layer", traced, bench["per_layer"]),
                                   ("end_to_end", timed, bench["end_to_end"])):
        names = {m["name"] for m in listed}
        ok = printed == names
        print(f"{'ok  ' if ok else 'FAIL'} {label} names: printed-listed "
              f"{sorted(printed - names)}, listed-printed {sorted(names - printed)}")
        if not ok:
            FAILURES.append(f"{label} names")


def main() -> int:
    check_sweep()
    check_search()
    check_analyze()
    check_verify()
    check_metric_names()
    if FAILURES:
        print(f"{len(FAILURES)} checks did not behave: {FAILURES}")
        return 1
    print("every check passes real outputs and trips on a wrong value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
