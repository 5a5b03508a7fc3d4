#!/usr/bin/env python3
"""Probe the open region of the critical concurrence: for which initial
concurrences can some non-unital channel still deliver a UQT-useful state?

Hits above sqrt(5 - 2 sqrt(3))/3 (about 0.4131) are expected from the
damping construction; the interesting question is whether any random
non-unital channel succeeds below it. An empty hit list is evidence of
absence, not proof.
"""

import argparse

import numpy as np

from uqtchan import explorer, states


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=2000, help="samples per grid point")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", default="0.20,0.30,0.38,0.41,0.4132,0.45,0.52,0.60",
                        help="comma-separated concurrence values")
    args = parser.parse_args(argv)
    try:
        grid = [float(text) for text in args.grid.split(",")]
    except ValueError as exc:
        parser.error(f"--grid: {exc}")
    bad = [c for c in grid if not 0.0 < c < 1.0]
    if bad:
        parser.error(f"--grid: concurrences must lie in (0, 1), got {bad}")
    if args.budget < 1:
        parser.error(f"--budget must be at least 1, got {args.budget}")

    known_bound = np.sqrt(5.0 - 2.0 * np.sqrt(3.0)) / 3.0
    print(f"analytic non-unital bound: C > {known_bound:.6f}")
    print(f"{'C':>8s} {'hits':>6s} {'best f_max at delta~0':>22s}")
    for c in grid:
        rep = explorer.search_uqt(c, budget=args.budget, seed=args.seed)
        best = max((e["f_max"] for e in rep.frontier if e["delta"] <= states.EPS_UQT), default=None)
        best_text = "n/a" if best is None else f"{best:.6f}"
        print(f"{c:8.4f} {len(rep.hits):6d} {best_text:>22s}")
    print("empty hit rows are inconclusive (sampled evidence only)")


if __name__ == "__main__":
    main()
