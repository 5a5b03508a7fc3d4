"""Span recording around the library's public functions, from outside.

`Tracer.install` replaces each listed function at every module binding
where callers look it up (for example `oracle.from_density`, and
`linalg.hermitian_eig` as `numeric_rank` sees it), and `uninstall` puts the
originals back. Each call records a span (name, start, end, parent, item
id, raised) in memory; self time is derived from the spans afterwards.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

#: the traced layers: module -> public functions (Class.method for methods)
TRACED = {
    "linalg": ("hermitian_eig", "numeric_rank", "partial_trace"),
    "states": ("from_density", "profile", "concurrence"),
    "channels": ("validate", "apply_to_bob", "choi_matrix", "report", "kraus_from_choi"),
    "families": ("noise_channel",),
    "oracle": ("canonicalize", "numeric_moments", "teleport_output", "QuadratureSpec.nodes"),
    "explorer": ("evaluate_point", "parse_initial", "oracle_check", "random_nonunital_channel",
                 "find_threshold"),
    "acceptance": ("run_criterion",),
}
#: workload entry points: traced so that module self time adds up, not reported singly
ENTRY_POINTS = {"explorer": ("run_sweep", "search_uqt", "analyze"), "acceptance": ("run_all",)}
MODULES = tuple(TRACED)
#: functions whose arguments or results feed a counter (Tracer._after)
HOOKED = ("acceptance.run_criterion", "explorer.oracle_check", "explorer.random_nonunital_channel")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, item, raised)
        self.item = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.max_residual = 0.0  # largest |oracle - closed form| seen by oracle_check
        self.rnc_accepted = 0  # random_nonunital_channel calls that returned a channel
        self.criterion_s: dict[int, float] = defaultdict(float)  # run_criterion time by index

    # -- hooks on return values, measured where the work happens ------------

    def _after(self, name: str, args, result, seconds: float) -> None:
        if name == "acceptance.run_criterion":
            self.criterion_s[args[0]] += seconds
        elif name == "explorer.oracle_check":
            prof, info = args[1], result[1]
            if prof.formula_valid:
                self.max_residual = max(self.max_residual, abs(info["mean_f"] - prof.f_max),
                                        abs(info["delta"] - prof.delta))
        elif name == "explorer.random_nonunital_channel" and result is not None:
            self.rnc_accepted += 1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hooked = name in HOOKED

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item, raised)
            if hooked:
                self._after(name, args, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, uq) -> None:
        mods = [m for key, m in sys.modules.items()
                if key == "uqtchan" or key.startswith("uqtchan.")]
        for table in (TRACED, ENTRY_POINTS):
            for mod_name, funcs in table.items():
                mod = getattr(uq, mod_name)
                for qual in funcs:
                    name = f"{mod_name}.{qual}"
                    if "." in qual:
                        cls_name, meth = qual.split(".")
                        cls = getattr(mod, cls_name)
                        orig = cls.__dict__[meth]
                        setattr(cls, meth, self._wrap(name, orig))
                        self._restore.append((cls, meth, orig))
                        continue
                    orig = getattr(mod, qual)
                    wrapper = self._wrap(name, orig)
                    for m in mods:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapper)
                                self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- derived figures ------------------------------------------------------

    def summary(self) -> dict:
        """Per function name: calls, self_s, total_s, errors.

        total_s counts only the outermost span of a name, so recursion is not
        counted twice; self_s subtracts the time covered by direct children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _item, _raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0})
        for idx, (name, start, end, parent, _item, raised) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["errors"] += raised
            row["self_s"] += (end - start) - child[idx]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["total_s"] += end - start
        return dict(out)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("name,start_s,end_s,parent,item,raised\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, item, raised in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{item},{int(raised)}\n")
