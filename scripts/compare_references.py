#!/usr/bin/env python3
"""Reference outputs of the library, and a comparison of two such dumps.

    compare_references.py dump OUT.json
    compare_references.py compare A.json B.json

`dump` runs a fixed reference set and writes every output as JSON:
  * the benchmark's sweep units k = 0..2 of seeds 1, 2 and 9973 (two grids each);
  * a grid over up to two parameters of every catalog family on bell1,
    pure:0.8 and, for the matched-concurrence families, matched;
  * search_uqt(c, 300, seed=s) for c in {0.38, 0.45, 0.6}, s in {1, 5, 77, 123},
    search_uqt(0.45, 300, seed=s) for s in {-1, 2**64 + 5}, the ends of the
    seed word of a sample's Philox key, and the benchmark's search units
    k = 0, 1 of seeds 1, 2 and 9973;
  * the analyze JSON of one catalog point per family on bell1..bell4 and pure:0.8,
    and of pauli_mixture(0, 0.4, 0.4, 0.2) on bell1 (det T = 0.024 > 0: f_max,
    delta and the oracle's agrees are null);
  * the channel JSON (Kraus list and params) of noise_channel at each family's
    catalog point, at that point with one param moved to a closed end of its
    range, and at the Pauli mixtures (1, 0, 0, 0) and (0, 0.5, 0, 0.5): the
    error type and text where the point builds no channel;
  * validate of fixed Kraus lists: the identity, dephasing at 0.3,
    amplitude damping at 0.4, gadc(0.3, 0.5) (unital), the rank-4 family
    at its catalog point, sqrt(1 + f EPS_COMPLETE) I for f = 0.999 and
    1.001, a NaN list and a list whose finite entries overflow: the Choi
    rank and report's unital and unitality_residual, or the error type and text;
  * DRAWS random_kraus draws at each rank 1..4 from default_rng(rank): the
    Kraus operators and the bit generator's state after each draw;
  * find_threshold on the five run_threshold_suite.py cases at tol 1e-8 and
    at tol 1e-20, which bisects down to adjacent floats;
  * the 11 acceptance criteria of `uqtchan verify`: index, name, passed, detail;
  * numeric_moments(canonicalize(st)) and the rotated T of 30 seeded states:
    every third of rank 1 to 3, and every sixth a product state (det T = 0);
    and their moments as one stack, by oracle.canonical_moments.
It exits 1 if a sweep reports an oracle failure, an analysis disagrees with
the oracle or an acceptance criterion fails. Run it on two versions of
the library (PYTHONPATH=<src>) and `compare` the dumps, which needs no
library on the path: it prints the item count, how many items are
byte-identical, the largest float difference and, per category (the first
word of an item's name: sweep, grid, search, analyze, channel, validate,
draw, threshold, verify, oracle), the identical and total item counts; then the
name and largest float difference of every item that is not
byte-identical, and the first 20 non-float differences. It exits 1 if a non-float
value differs (type, key, order, length or value) or a float moves by more
than 1e-12. Either command exits 1, without a traceback, if its reader
closes stdout early (`compare A B | head`).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

FLOAT_TOL = 1e-12
SCRIPTS = Path(__file__).resolve().parent
BENCH = SCRIPTS.parent / "perfbench"
SEEDS = (1, 2, 9973)
#: points per axis of a family grid, and the step as a share of the sampling span
GRID_POINTS = 4
GRID_STEP = 0.02
#: seeded states whose canonical form and oracle moments are dumped
ORACLE_STATES = 30
#: random_kraus draws dumped per rank
DRAWS = 3


def _module(directory: Path, name: str):
    """A module of another directory, such as the benchmark's input
    generators, read as it is."""
    sys.path.insert(0, str(directory))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(directory))


def _sweep_item(doc: dict) -> dict:
    res = explorer.run_sweep(explorer.SweepSpec.from_jsonable(doc))
    return {"header": list(res.header), "rows": [list(row) for row in res.rows],
            "oracle_failures": res.oracle_failures}


def _catalog_point(family_id: str) -> dict:
    """A draw of the family's parameters, seeded by the family's place in the catalog."""
    return families.get_family(family_id).sample_params(
        np.random.default_rng(sorted(families.FAMILIES).index(family_id)))


def _family_grid(family_id: str, initial: str) -> dict:
    """Up to two axes of GRID_POINTS points from `_catalog_point`, the other
    parameters fixed at the draw; some points fall out of range."""
    params = _catalog_point(family_id)
    axes = []
    for spec in families.get_family(family_id).params[:2]:
        lo = spec.sample_low if spec.sample_low is not None else spec.low
        hi = spec.sample_high if spec.sample_high is not None else spec.high
        step = GRID_STEP * (hi - lo if lo is not None and hi is not None else 1.0)
        start = params.pop(spec.name)
        axes.append({"param": spec.name, "start": start,
                     "stop": start + (GRID_POINTS - 0.5) * step, "step": step})
    return {"family": {"id": family_id, "params": params}, "initial": initial, "axes": axes}


def _channel_item(family_id: str, params: dict) -> dict:
    """The channel JSON of noise_channel(family_id, **params), or its error."""
    try:
        return channels.channel_to_jsonable(families.noise_channel(family_id, **params))
    except ValueError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _channel_points(family_id: str) -> dict:
    """name -> params: the catalog point, and the point with one param at
    each closed end of its range."""
    point = _catalog_point(family_id)
    points = {"catalog": point}
    for spec in families.get_family(family_id).params:
        for end, is_open in ((spec.low, spec.low_open), (spec.high, spec.high_open)):
            if end is not None and not is_open:
                points[f"{spec.name}={end:g}"] = {**point, spec.name: end}
    return points


def _validate_lists() -> dict:
    """name -> Kraus list of the `validate` items."""
    gamma = 0.4
    scaled = {f"sqrt(1 + {f} EPS_COMPLETE) I": [np.sqrt(1.0 + f * channels.EPS_COMPLETE) * np.eye(2)]
              for f in (0.999, 1.001)}
    return {"identity": [np.eye(2)],
            "dephasing 0.3": [np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * np.diag([1.0, -1.0])],
            "amplitude damping 0.4": [np.diag([1.0, np.sqrt(1.0 - gamma)]),
                                      np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])],
            "gadc(0.3, 0.5)": families.gadc(0.3, 0.5).kraus,
            "uqt_nonunital_rank4 catalog": families.noise_channel(
                "uqt_nonunital_rank4", **_catalog_point("uqt_nonunital_rank4")).kraus,
            **scaled,
            "nan": [np.full((2, 2), np.nan)],
            "overflow": [np.array([[1e200, 1e200], [1e200, -1e200]])]}


def _validate_item(kraus) -> dict:
    """validate's Choi rank and report's unital and unitality_residual, or its error."""
    try:
        rep = channels.report(channels.validate(kraus))
    except ValueError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"choi_rank": rep.choi_rank, "unital": rep.unital,
            "unitality_residual": rep.unitality_residual}


def _draw_item(rank: int) -> dict:
    """DRAWS random_kraus draws of the rank from default_rng(rank): the Kraus
    operators as [re, im] pairs and the bit generator's state after each."""
    rng = np.random.default_rng(rank)
    draws = []
    for _ in range(DRAWS):
        kraus = channels.random_kraus(rng, rank)
        draws.append({"kraus": [[[z.real, z.imag] for z in k.reshape(4).tolist()] for k in kraus],
                      "state": rng.bit_generator.state})
    return {"draws": draws}


def _density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return g @ g.conj().T / np.linalg.norm(g) ** 2


def _oracle_state(k: int) -> states.TwoQubitState:
    """Seeded state k: of rank 1 + k // 3 % 3 when k % 3 == 1, a product
    state when k % 6 == 2, else of full rank."""
    rng = np.random.default_rng(k)
    if k % 6 == 2:
        rho = np.kron(_density(rng, 2, 2), _density(rng, 2, 1 + k // 6 % 2))
    else:
        rho = _density(rng, 4, 1 + k // 3 % 3 if k % 3 == 1 else 4)
    return states.from_density(rho)


def _oracle_item(st: states.TwoQubitState) -> dict:
    """The oracle's moments and rotated T of one state, one at a time."""
    canonical, _ = oracle.canonicalize(st)
    mom = oracle.numeric_moments(canonical)
    return {"mean_f": mom.mean_f, "delta": mom.delta, "t": canonical.hs.t_mat.tolist()}


def _oracle_stack(sts: list) -> dict:
    """The oracle's moments of the states as one stack, by
    `oracle.canonical_moments` of their Pauli coefficients (of their density
    matrices in library versions whose canonical_moments takes `rho`, so that
    a dump of an older commit still compares)."""
    rho = np.array([st.rho for st in sts])
    older = "rho" in inspect.signature(oracle.canonical_moments).parameters
    mean, delta = oracle.canonical_moments(rho if older else states.pauli_coefficients(rho))
    return {"mean_f": mean.tolist(), "delta": delta.tolist()}


def reference_items() -> dict:
    workloads = _module(BENCH, "workloads")
    items = {}
    for seed in SEEDS:
        for k in range(3):
            for doc in workloads.sweep_inputs(None, seed, k):
                items[f"sweep unit {k} seed {seed} {doc['family']['id']}"] = _sweep_item(doc)
    for family_id in sorted(families.FAMILIES):
        matched = family_id in families.MATCHED_CONCURRENCE_IDS
        for initial in ("bell1", "pure:0.8") + (("matched",) if matched else ()):
            items[f"grid {family_id} {initial}"] = _sweep_item(_family_grid(family_id, initial))
    searches = [(c, 300, s) for c in (0.38, 0.45, 0.6) for s in (1, 5, 77, 123)]
    searches += [(0.45, 300, s) for s in (-1, 2**64 + 5)]
    searches += [(c, workloads.SEARCH_BUDGET, s) for seed in SEEDS for k in range(2)
                 for c, s in workloads.search_inputs(None, seed, k)]
    for c, budget, s in searches:
        items[f"search {c} {budget} {s}"] = explorer.search_uqt(c, budget, seed=s).to_jsonable()
    for family_id in sorted(families.FAMILIES):
        ch = families.noise_channel(family_id, **_catalog_point(family_id))
        for initial in ("bell1", "bell2", "bell3", "bell4", "pure:0.8"):
            items[f"analyze {family_id} {initial}"] = explorer.analyze(ch, initial).to_jsonable()
    ch = families.pauli_mixture(0.0, 0.4, 0.4, 0.2)  # det T > 0 on bell1: no closed form
    items["analyze pauli_mixture(0, 0.4, 0.4, 0.2) bell1"] = explorer.analyze(ch).to_jsonable()
    for family_id in sorted(families.FAMILIES):
        for name, params in _channel_points(family_id).items():
            items[f"channel {family_id} {name}"] = _channel_item(family_id, params)
    for weights in ((1.0, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.5)):  # zero weights are omitted
        params = dict(zip(("p0", "p1", "p2", "p3"), weights))
        items[f"channel pauli_mixture {weights}"] = _channel_item("pauli_mixture", params)
    for name, kraus in _validate_lists().items():
        items[f"validate {name}"] = _validate_item(kraus)
    for rank in range(1, 5):
        items[f"draw random_kraus rank {rank}"] = _draw_item(rank)
    cases = _module(SCRIPTS, "run_threshold_suite").CASES
    for family_id, param, bracket, predicate, fixed, *_ in cases:
        for tol in (1e-8, 1e-20):
            res = explorer.find_threshold(family_id, param, bracket, predicate, tol=tol,
                                          fixed=fixed)
            items[f"threshold {family_id} {param} tol {tol:g}"] = dataclasses.asdict(res)
    for res in acceptance.run_all():  # an older library may store a numpy bool
        items[f"verify {res.index} {res.name}"] = dict(dataclasses.asdict(res),
                                                       passed=bool(res.passed))
    sts = [_oracle_state(k) for k in range(ORACLE_STATES)]
    for k, st in enumerate(sts):
        items[f"oracle state {k}"] = _oracle_item(st)
    items["oracle stack"] = _oracle_stack(sts)
    return items


def _problems(items: dict) -> list[str]:
    return [name for name, item in items.items()
            if item.get("oracle_failures") or item.get("oracle", {}).get("agrees") is False
            or item.get("passed") is False]


def differences(a, b, where: str = "") -> tuple[list[str], float]:
    """The non-float differences between two JSON values, and the largest
    difference of two floats at the same place (inf if one is not finite
    and they are not equal)."""
    if type(a) is not type(b):
        return [f"{where}: {a!r} != {b!r}"], 0.0
    if isinstance(a, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return [], 0.0
        return [], abs(a - b) if math.isfinite(a - b) else math.inf
    if isinstance(a, dict):
        if list(a) != list(b):
            return [f"{where}: keys {list(a)} != {list(b)}"], 0.0
        pairs = [(a[k], b[k], f"{where}[{k!r}]") for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} != {len(b)}"], 0.0
        pairs = [(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return ([] if a == b else [f"{where}: {a!r} != {b!r}"]), 0.0
    found, worst = [], 0.0
    for x, y, at in pairs:
        diffs, delta = differences(x, y, at)
        found += diffs
        worst = max(worst, delta)
    return found, worst


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    found, worst = differences(a, b)
    if not (isinstance(a, dict) and isinstance(b, dict)):  # one item
        a, b = {"document": a}, {"document": b}
    tally = {}  # category: [byte-identical items, items]
    changed = []  # per item that is not byte-identical: its name and largest float difference
    for k in a:
        counts = tally.setdefault(k.split(" ", 1)[0], [0, 0])
        same = json.dumps(a[k]) == json.dumps(b.get(k))
        counts[0] += same
        counts[1] += 1
        if not same:
            changed.append(f"not byte-identical: {k} (largest float difference "
                           f"{differences(a[k], b.get(k))[1]:.3g})")
    print(f"items: {len(a)}")
    print(f"byte-identical: {sum(same for same, _ in tally.values())}")
    print(f"largest float difference: {worst:.3g}")
    for category, (same, total) in tally.items():
        print(f"{category}: {same}/{total} byte-identical")
    for line in changed:
        print(line)
    for line in found[:20]:
        print(f"differs: {line}")
    if worst > FLOAT_TOL:
        print(f"float difference above {FLOAT_TOL:g}")
    return 1 if found or worst > FLOAT_TOL else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="write the reference outputs as JSON")
    p.add_argument("out")
    p = sub.add_parser("compare", help="compare two dumps")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    try:
        code = compare(args.a, args.b) if args.command == "compare" else dump(args.out)
        sys.stdout.flush()  # a closed pipe shows here, where it is caught
    except BrokenPipeError:  # the reader, such as `head`, closed stdout: stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return 1
    return code


def dump(out: str) -> int:
    """Write the reference items to `out`. The library is imported here, so
    that `compare`, which only reads two dumps, runs without it."""
    global acceptance, channels, explorer, families, oracle, states
    from uqtchan import acceptance, channels, explorer, families, oracle, states
    items = reference_items()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(items, fh, indent=1)
    problems = _problems(items)
    print(f"{len(items)} items written to {out}")
    for name in problems:
        print(f"oracle disagreement or failed criterion: {name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
