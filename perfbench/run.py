#!/usr/bin/env python3
"""uqtchan benchmark: run one seeded workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: sweep, search, analyze, verify (see perfbench/README.md). With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a separate traced run. The line before it
is the run manifest. Every process is started with BLAS/OpenMP threads
pinned to 1 and imports uqtchan from this checkout's src/. Timings are
process CPU time scaled to a reference core speed (see speed.py); the
manifest holds the plain wall-clock figures too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "search", "analyze", "verify")
#: set-up is measured this many times per run (fresh process each) and the median reported
SETUP_SAMPLES = 5
#: never used while tuning; recheck later claims on it
HELD_OUT_SEED = 9973
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


@contextlib.contextmanager
def worker(args, extra):
    """A worker process and its start time; killed and reaped if still running at exit."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", SRC] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    try:
        yield proc, t0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def wait_ready(proc: subprocess.Popen, t0: float) -> tuple[float, float]:
    """Set-up time (process start to import + warm-up call done): scaled, wall."""
    fields = proc.stdout.readline().split()
    wall = time.perf_counter() - t0
    if len(fields) != 2 or fields[0] != "ready":
        raise RuntimeError(f"worker did not get ready (exit {proc.wait()})")
    return float(fields[1]), wall


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def run(args) -> tuple[dict, dict]:
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            with worker(args, ["--setup-only"]) as (proc, t0):
                setup.append(wait_ready(proc, t0))
                finish(proc)
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(OUT, f"spans-{stem}.csv.gz") if args.trace else None
    with worker(args, ["--spans", spans] if spans else []) as (proc, t0):
        ready = wait_ready(proc, t0)
        lines = finish(proc).strip().splitlines()
    res = json.loads(lines[-1])
    metrics = dict(res["metrics"])
    if not args.trace:
        setup.append(ready)
        metrics["setup_s"] = statistics.median(s for s, _ in setup)
        res["wall"]["setup_s"] = statistics.median(w for _, w in setup)
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": res["numpy"], "uqtchan": res["uqtchan"], "machine": platform.machine(),
        "threads": {var: "1" for var in THREAD_VARS},
        "units": res["units"], "spans_file": spans and os.path.relpath(spans, ROOT),
        "speed_probe": {"period_s": speed.PERIOD_S, "ref_probe_s": speed.REF_PROBE_S},
        **{k: res[k] for k in ("calls", "spans", "wall") if k in res},
    }
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }
    with open(os.path.join(OUT, f"run-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"manifest": manifest, "result": result}, fh, indent=1)
    return manifest, result


UNITS = {"items_per_s": "1/s", "call_ms_p50": "ms", "call_ms_p99": "ms", "peak_rss_mb": "MB",
         "oracle.max_residual": "1"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".per_item", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uqtchan", "__init__.py")):
        print(f"no uqtchan sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    # a terminated benchmark still stops its workers (the finally in worker())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        manifest, result = run(args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
