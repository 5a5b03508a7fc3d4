"""One benchmark process: import uqtchan, warm up, run one workload, print JSON.

Started by run.py with BLAS/OpenMP threads pinned to 1 and PYTHONPATH set
to the checkout's src/. It prints "ready <setup_s>" after the import and
one warm-up call of the workload's entry point, with the CPU time spent
since the process started scaled as in speed.py; then, unless
--setup-only, one JSON line with the workload's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import speed

if __name__ == "__main__":
    # sample machine speed from the start, so that set-up time is scaled too
    SAMPLER = speed.SpeedSampler().start()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


#: traced item ids are unit * ITEM_STRIDE + call index within the unit
ITEM_STRIDE = 10**4


@dataclass
class Workload:
    """Inputs, timed run and checks of one workload."""

    name: str
    inputs: Callable  # (uq, seed, unit index) -> inputs of one unit
    run: Callable  # (uq, inputs, tracer=None, item_base=0) -> UnitResult
    check: Callable  # (uq, inputs, outputs) -> (failed items, outcome counters)
    warmup: Callable  # (uq) -> None: one call of the entry point
    min_units: int = 1
    trace_units: int = 1


def _sweep_warmup(uq):
    doc = {"family": {"id": "gadc"}, "axes": [
        {"param": "gamma", "start": 0.1, "stop": 0.35, "step": 0.2},
        {"param": "N", "start": 0.3, "stop": 0.3, "step": 0.1}]}
    uq.explorer.run_sweep(uq.explorer.SweepSpec.from_jsonable(doc))


WORKLOADS = {
    "sweep": Workload("sweep", wl.sweep_inputs, wl.sweep_run, wl.sweep_check, _sweep_warmup),
    "search": Workload("search", wl.search_inputs, wl.search_run, wl.search_check,
                       lambda uq: uq.explorer.search_uqt(0.45, 4, seed=0)),
    "analyze": Workload(
        "analyze", wl.analyze_inputs, wl.analyze_run, wl.analyze_check,
        lambda uq: uq.explorer.analyze(uq.families.noise_channel("gadc", gamma=0.3, N=0.2)),
        min_units=wl.ANALYZE_MIN_CALLS // wl.ANALYZE_UNIT,
        trace_units=wl.ANALYZE_MIN_CALLS // wl.ANALYZE_UNIT),
    # two passes, so that every run has the same two suite latencies
    "verify": Workload("verify", wl.verify_inputs, wl.verify_run, wl.verify_check,
                       lambda uq: uq.acceptance.run_all(only=1), min_units=2),
}


def _check_units(uq, work: Workload, units) -> tuple[int, int, dict]:
    """(attempted, failed, outcome counters) over (inputs, UnitResult) pairs."""
    attempted = failed = 0
    counters: dict = {}
    for inputs, unit in units:
        attempted += unit.items
        try:
            bad, counts = work.check(uq, inputs, unit.outputs)
        except Exception:  # a check that crashes fails the unit, not the run
            traceback.print_exc()
            bad, counts = unit.items, {}
        failed += min(bad, unit.items)
        for key, val in counts.items():
            counters[key] = counters.get(key, 0) + val
    return attempted, failed, counters


def _repeat_failures(work: Workload, first, again) -> int:
    """Search only: a unit repeated with the same seed must give the same JSON."""
    if work.name != "search" or wl.search_outputs_match(first, again):
        return 0
    print("search: repeating a unit with the same seed gave different JSON", file=sys.stderr)
    return first.items


def wall_clock(start: tuple, end: tuple) -> float:
    return end[0] - start[0]


def _wall_seconds(units) -> float:
    return sum(wall_clock(a, b) for _, u in units for call in u.calls for a, b in call)


def timing_metrics(units, clock) -> dict:
    """items_per_s (median over units) and call latency percentiles, timed by clock."""
    def seconds(call):
        return sum(clock(a, b) for a, b in call)

    calls_ms = [1e3 * seconds(call) for _, u in units for call in u.calls]
    rates = [u.items / sum(seconds(call) for call in u.calls) for _, u in units]
    return {"items_per_s": statistics.median(rates),
            "call_ms_p50": float(np.percentile(calls_ms, 50)),
            "call_ms_p99": float(np.percentile(calls_ms, 99))}


def timed_run(uq, work: Workload, seed: int, seconds: float, sampler=None) -> dict:
    """Run units until the next one would end after `seconds`, checking each.

    Outputs are checked as each unit ends and then dropped, so neither the
    heap nor peak memory grows with the length of the run. With a sampler,
    timings are scaled to the reference machine speed; the plain
    wall-clock figures are returned under "wall".
    """
    units = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        inputs = work.inputs(uq, seed, len(units))
        unit = work.run(uq, inputs)
        att, bad, _ = _check_units(uq, work, [(inputs, unit)])
        attempted, failed = attempted + att, failed + bad
        if units:
            unit.outputs = None
        units.append((inputs, unit))
        spent = time.perf_counter() - start
        if len(units) >= work.min_units and spent * (len(units) + 1) / len(units) > seconds:
            break
    if sampler is not None:
        sampler.stop()
    if work.name == "search":
        inputs, first = units[0]
        failed = min(attempted, failed + _repeat_failures(work, first, work.run(uq, inputs)))
    metrics = timing_metrics(units, sampler.scaled if sampler is not None else wall_clock)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"attempted": attempted, "failed": failed, "units": len(units),
            "calls": sum(len(u.calls) for _, u in units),
            "wall": timing_metrics(units, wall_clock), "metrics": metrics}


def _per_layer(uq, funcs: dict, counters: dict, tracer, items: int) -> dict:
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0}
    out = {}
    for mod, names in tracing.TRACED.items():
        for fn in names:
            row = funcs.get(f"{mod}.{fn}", zero)
            for key in ("calls", "self_s", "total_s", "errors"):
                out[f"{mod}.{fn}.{key}"] = row[key]
    for mod in tracing.MODULES:
        rows = [r for name, r in funcs.items() if name.split(".")[0] == mod]
        out[f"{mod}.calls"] = sum(r["calls"] for r in rows)
        out[f"{mod}.self_s"] = sum(r["self_s"] for r in rows)
    for i, (crit, _fn) in enumerate(uq.acceptance.CRITERIA, start=1):
        out[f"acceptance.criterion.{crit}.total_s"] = tracer.criterion_s.get(i, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    rnc_calls = funcs.get("explorer.random_nonunital_channel", zero)["calls"]
    out.update({
        "linalg.hermitian_eig.per_item": ratio(out["linalg.hermitian_eig.calls"], items),
        "oracle.numeric_moments.per_item": ratio(out["oracle.numeric_moments.calls"], items),
        "explorer.random_nonunital_channel.accept_ratio": ratio(tracer.rnc_accepted, rnc_calls),
        "explorer.search_uqt.distinct_hit_ratio": ratio(counters.get("distinct_hits", 0),
                                                        counters.get("hits", 0)),
        "explorer.run_sweep.error_row_ratio": ratio(counters.get("error_rows", 0),
                                                    counters.get("rows", 0)),
        "oracle.max_residual": tracer.max_residual,
        "sweep.error_rows": counters.get("error_rows", 0),
        "sweep.oracle_checked_rows": counters.get("oracle_checked_rows", 0),
        "search.hits": counters.get("hits", 0),
        "search.distinct_hits": counters.get("distinct_hits", 0),
        "search.rejected_candidates": rnc_calls - tracer.rnc_accepted,
        "analyze.not_formula_valid": counters.get("not_formula_valid", 0),
    })
    return out


def traced_run(uq, work: Workload, seed: int, spans_path: str | None) -> dict:
    """A fixed amount of work (trace_units units), so counts repeat exactly.

    The same inputs then run untraced; traced minus untraced time is the
    tracing overhead.
    """
    inputs = [work.inputs(uq, seed, k) for k in range(work.trace_units)]
    tracer = tracing.Tracer()
    tracer.install(uq)
    try:
        traced = [(inp, work.run(uq, inp, tracer=tracer, item_base=k * ITEM_STRIDE))
                  for k, inp in enumerate(inputs)]
    finally:
        tracer.uninstall()
    untraced = [(inp, work.run(uq, inp)) for inp in inputs]
    if spans_path:
        tracer.write(spans_path)
    attempted, failed, counters = _check_units(uq, work, traced)
    u_att, u_failed, _ = _check_units(uq, work, untraced)
    failed = min(attempted + u_att,
                 failed + u_failed + _repeat_failures(work, traced[0][1], untraced[0][1]))
    metrics = _per_layer(uq, tracer.summary(), counters, tracer, attempted)
    metrics["trace.overhead_s"] = _wall_seconds(traced) - _wall_seconds(untraced)
    metrics["failed_frac"] = failed / (attempted + u_att)
    return {"attempted": attempted + u_att, "failed": failed, "units": 2 * len(inputs),
            "spans": len(tracer.spans), "metrics": metrics}


def main(argv=None, sampler=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="directory the uqtchan package must come from")
    parser.add_argument("--spans", default=None, help="gzip CSV file for the traced spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import uqtchan as uq  # timed as part of set-up
    import uqtchan.acceptance  # noqa: F401

    where = os.path.realpath(os.path.dirname(uq.__file__))
    if os.path.dirname(where) != os.path.realpath(args.src):
        print(f"uqtchan imported from {where}, not from {args.src}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    work.warmup(uq)
    # CPU time since the process started, at the reference speed
    setup_s = sampler.scaled((0.0, 0.0), speed.stamp()) if sampler else time.process_time()
    print(f"ready {setup_s!r}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        if sampler is not None:
            sampler.stop()
        result = traced_run(uq, work, args.seed, args.spans)
    else:
        result = timed_run(uq, work, args.seed, args.seconds, sampler)
    result["numpy"] = np.__version__
    result["uqtchan"] = uq.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main(sampler=SAMPLER)
    finally:
        SAMPLER.stop()
    sys.exit(code)
