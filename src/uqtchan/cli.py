"""Command-line interface.

Exit codes: 0 success, 1 a failed acceptance criterion, 2 channel validation
failure or a malformed command line, 3 invalid or out-of-range specification
or an output file that cannot be written, 4 oracle disagreement beyond tolerance.
The command handlers raise; `main` maps an escaping error to its code, once.
Configuration is via flags only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import acceptance, explorer, families
from .channels import ChannelValidationError, channel_from_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SPEC = 3
EXIT_ORACLE = 4


def _emit(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_output(path: str | None) -> None:
    """Fail now, not after the computation, if the file at path cannot be
    opened for writing; keep an existing file, remove one this creates."""
    if path:
        created = not os.path.lexists(path)
        open(path, "a", encoding="utf-8").close()
        if created:
            os.remove(path)


def _two_fields(flag: str, form: str, text: str, sep: str, first=str) -> tuple:
    """A flag's text split at its first sep: the head read by `first`, the tail
    as a number; SweepSpecError naming the flag, its form and the text if
    there is no sep or a field does not read."""
    head, found, tail = text.partition(sep)
    try:
        if found:
            return first(head), float(tail)
    except ValueError:
        pass
    raise explorer.SweepSpecError(f"{flag} takes {form}, got {text!r}")


def _cmd_analyze(args) -> int:
    try:  # a file that cannot be read or is not UTF-8 is no channel, as invalid JSON is
        with open(args.channel, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ChannelValidationError(str(exc)) from exc
    rep = explorer.analyze(channel_from_json(text), initial=args.initial)
    print(json.dumps(rep.to_jsonable(), indent=2))
    return EXIT_OK if rep.oracle_agrees else EXIT_ORACLE


def _cmd_sweep(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = explorer.SweepSpec.from_jsonable(json.load(fh))
    _check_output(args.output)
    result = explorer.run_sweep(spec)
    _emit(explorer.sweep_to_csv(result), args.output)
    if result.oracle_failures:
        print(f"error: {result.oracle_failures} oracle disagreements",
              file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def _cmd_threshold(args) -> int:
    bracket = _two_fields("--bracket", "two numbers LO,HI", args.bracket, ",", first=float)
    fixed = {}
    for item in args.fixed or []:
        key, value = _two_fields("--fixed", "NAME=VALUE with a number VALUE", item, "=")
        if key in fixed:
            raise explorer.SweepSpecError(f"--fixed {key} given twice")
        fixed[key] = value
    res = explorer.find_threshold(args.family, args.param, bracket,
                                  args.predicate, tol=args.tol, fixed=fixed,
                                  initial=args.initial)
    print(json.dumps({
        "family": args.family, "param": res.param, "predicate": res.predicate,
        "critical_value": res.critical_value, "bracket_width": res.bracket_width,
        "bracket": [res.low, res.high],
    }, indent=2))
    return EXIT_OK


def _cmd_search_uqt(args) -> int:
    _check_output(args.output)
    rep = explorer.search_uqt(args.concurrence, args.budget, seed=args.seed)
    _emit(json.dumps(rep.to_jsonable(), indent=2) + "\n", args.output)
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
    results = acceptance.run_all(only=args.only)
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
    """Run a command line; an error that escapes the command ends in one
    `error: ...` line on stderr and its code: 2 for a ChannelValidationError,
    3 for any other ValueError (SweepSpecError, invalid JSON or UTF-8), an
    OSError or a RecursionError (JSON nested too deep)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, ChannelValidationError) else EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
