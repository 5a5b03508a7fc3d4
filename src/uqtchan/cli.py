"""Command-line interface.

Exit codes: 0 success, 1 a failed acceptance criterion, 2 channel validation
failure or a malformed command line, 3 invalid or out-of-range specification
or an output file that cannot be written, 4 oracle disagreement beyond tolerance.
Configuration is via flags only.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance, explorer, families
from .channels import ChannelValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SPEC = 3
EXIT_ORACLE = 4


def _emit(text: str, path: str | None) -> bool:
    """Write text to the file at path, or to stdout without one; False, with
    the error on stderr, if the file cannot be written."""
    if not path:
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_analyze(args) -> int:
    try:
        rep = explorer.analyze_file(args.channel, initial=args.initial)
    except (ChannelValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:  # SweepSpecError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    print(json.dumps(rep.to_jsonable(), indent=2))
    return EXIT_OK if rep.oracle_agrees else EXIT_ORACLE


def _cmd_sweep(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = explorer.SweepSpec.from_jsonable(json.load(fh))
        result = explorer.run_sweep(spec)
    except (explorer.SweepSpecError, json.JSONDecodeError, UnicodeDecodeError,
            RecursionError, OSError) as exc:  # RecursionError: JSON nested too deep
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    if not _emit(explorer.sweep_to_csv(result), args.output):
        return EXIT_SPEC
    if result.oracle_failures:
        print(f"error: {result.oracle_failures} oracle disagreements",
              file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def _cmd_threshold(args) -> int:
    try:
        lo, hi = (float(x) for x in args.bracket.split(","))
        fixed = {}
        for item in args.fixed or []:
            key, value = item.split("=", 1)
            if key in fixed:
                raise explorer.SweepSpecError(f"--fixed {key} given twice")
            fixed[key] = float(value)
        res = explorer.find_threshold(args.family, args.param, (lo, hi),
                                      args.predicate, tol=args.tol, fixed=fixed,
                                      initial=args.initial)
    except ValueError as exc:  # SweepSpecError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    print(json.dumps({
        "family": args.family, "param": res.param, "predicate": res.predicate,
        "critical_value": res.critical_value, "bracket_width": res.bracket_width,
        "bracket": [res.low, res.high],
    }, indent=2))
    return EXIT_OK


def _cmd_search_uqt(args) -> int:
    try:
        rep = explorer.search_uqt(args.concurrence, args.budget, seed=args.seed)
    except explorer.SweepSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    if not _emit(json.dumps(rep.to_jsonable(), indent=2) + "\n", args.output):
        return EXIT_SPEC
    return EXIT_OK


def _cmd_list_families(args) -> int:
    rows = families.list_families()
    if args.json:
        print(json.dumps(rows, indent=2))
        return EXIT_OK
    for row in rows:
        params = ", ".join(f"{p['name']} in {p['range']}" for p in row["params"]) or "(none)"
        print(f"{row['family']}\n    params: {params}\n    {row['doc']}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        results = acceptance.run_all(only=args.only)
    except ValueError as exc:  # no such criterion
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    failed = sum(1 for r in results if not r.passed)
    for r in results:
        print(acceptance.format_result(r))
    print(f"{len(results) - failed}/{len(results)} acceptance criteria passed")
    return EXIT_OK if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqtchan",
        description="Classify qubit channels for universal quantum teleportation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validate a channel JSON file and profile its output")
    p.add_argument("channel", help="channel definition JSON file")
    p.add_argument("--initial", default="bell1", help="bell1..bell4 or pure:<a> (default bell1)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="run a parameter sweep from a spec JSON")
    p.add_argument("spec", help="sweep spec JSON file")
    p.add_argument("-o", "--output", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("threshold", help="bisect a predicate flip point")
    p.add_argument("--family", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--bracket", required=True, help="lo,hi")
    p.add_argument("--predicate", required=True, choices=explorer.PREDICATES)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--initial", default=None)
    p.add_argument("--fixed", action="append", metavar="NAME=VALUE",
                   help="fix another family parameter (repeatable)")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("search-uqt", help="randomized search for UQT-producing non-unital channels")
    p.add_argument("--concurrence", type=float, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="JSON report path (default stdout)")
    p.set_defaults(func=_cmd_search_uqt)

    p = sub.add_parser("list-families", help="enumerate the channel catalog")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_list_families)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", type=int, default=None, metavar="N",
                   help=f"run a single criterion, 1..{len(acceptance.CRITERIA)}")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
