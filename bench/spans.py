"""In-memory span tracer that wraps binident's public functions from outside.

Every wrapped call records a span (name, start, end, parent span, op id) and
bumps work counters computed from the call's inputs and result.  Callers
inside the package bind names with ``from .x import f``, so a wrapper is
installed on every ``binident`` module namespace that holds the original
object; class-level targets (``Distribution.__init__``,
``HardInstancePair.build``) are patched on the class itself.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _bound(fn: Callable) -> Callable:
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


# Counter hooks: (bound arguments, result, exception) -> increments.  Counts
# marked "computed" in the report come from these closed forms, not from
# inside the program.
def _bin_cells(a, r, e):
    return {"cells": (a["p_hat"].n + 1) * a["q"].n,
            "infeasible": int(type(e).__name__ == "InfeasibleBinningError")}


def _ak_cells(a, r, e):
    return {"cells": (a["d1"].n + 1) * a["ell"]}


def _draws(a, r, e):
    return {"draws": a["s"]}


def _verdicts(a, r, e):
    if r is None:
        return {}
    return {"accepts": int(r.verdict == "accept"), "rejects": int(r.verdict == "reject")}


def _compositions(a, r, e):
    return {"compositions": 1 << (a["s"] - 1) if a["s"] >= 1 else 0}


def _strings(a, r, e):
    b = a["b"]
    return {"strings": math.comb(b, b // 2), "found": int(r is not None)}


def _shifts(a, r, e):
    return {"shifts": int(r is not None and r.is_shift)}


def _transitions(a, r, e):
    k, s, m = a["k_prime"], a["s"], a["m"]
    return {"transitions": k * (s + 1) * (min(m, s) + 1) if s > m else 0}


def _csv_bytes(a, r, e):
    return {"bytes": os.path.getsize(a["path"]) if e is None else 0}


def _exit_2(a, r, e):
    return {"exit_2": int(r == 2)}


def _refused(a, r, e):
    return {"refused": int(type(e).__name__ == "BudgetExceededError")}


@dataclass(frozen=True)
class Target:
    """One wrapped callable: `attr` may be "Class.method"."""

    module: str
    attr: str
    counter: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr.removesuffix('.__init__')}"


TARGETS = (
    Target("distributions", "Distribution.__init__"),
    Target("distributions", "sample", _draws),
    Target("distributions", "empirical"),
    Target("distributions", "ak_distance", _ak_cells),
    Target("binning", "min_binned_discrepancy", _bin_cells),
    Target("binning", "coarsening_distance"),
    Target("tester", "bin_identity_test", _verdicts),
    Target("fingerprints", "moment_vector", _compositions),
    Target("lowerbound", "find_hard_pair", _strings),
    Target("lowerbound", "is_partial_cyclic_shift", _shifts),
    Target("lowerbound", "HardInstancePair.build"),
    Target("lowerbound", "verify_distance_claim"),
    Target("lowerbound", "block_overflow_probability", _transitions),
    Target("lowerbound", "block_overflow_trial"),
    Target("harness", "load_distribution"),
    Target("harness", "run_experiment"),
    Target("harness", "write_rows_csv", _csv_bytes),
    Target("harness", "store_hard_pair"),
    Target("harness", "load_hard_pair"),
    Target("cli", "main", _exit_2),
    Target("budgets", "check", _refused),
)

# Per-layer metrics reported by the traced run.  Ratio entries are
# (numerator, denominator, scale, unit) over the raw totals of one span name.
COUNT_METRICS = {
    "binning.min_binned_discrepancy": ("calls", "cells", "self_s", "infeasible"),
    "binning.coarsening_distance": ("calls", "self_s"),
    "distributions.sample": ("calls", "draws", "self_s"),
    "distributions.empirical": ("calls", "self_s"),
    "distributions.ak_distance": ("calls", "cells", "self_s"),
    "distributions.Distribution": ("calls", "self_s"),
    "tester.bin_identity_test": ("calls", "self_s", "accepts", "rejects"),
    "fingerprints.moment_vector": ("calls", "compositions", "self_s"),
    "lowerbound.find_hard_pair": ("calls", "strings", "found", "self_s"),
    "lowerbound.is_partial_cyclic_shift": ("calls", "self_s"),
    "lowerbound.HardInstancePair.build": ("calls", "self_s"),
    "lowerbound.verify_distance_claim": ("calls", "self_s"),
    "lowerbound.block_overflow_probability": ("calls", "transitions", "self_s"),
    "lowerbound.block_overflow_trial": ("calls", "self_s"),
    "harness.load_distribution": ("calls", "self_s"),
    "harness.run_experiment": ("calls", "self_s"),
    "harness.write_rows_csv": ("calls", "bytes", "self_s"),
    "harness.store_hard_pair": ("calls", "self_s"),
    "harness.load_hard_pair": ("calls", "self_s"),
    "cli.main": ("calls", "self_s", "exit_2"),
    "budgets.check": ("calls", "refused"),
}
RATIO_METRICS = {
    "binning.min_binned_discrepancy.ns_per_cell": ("self_s", "cells", 1e9, "ns"),
    "distributions.sample.ns_per_draw": ("self_s", "draws", 1e9, "ns"),
    "distributions.sample.us_per_call": ("self_s", "calls", 1e6, "us"),
    "lowerbound.is_partial_cyclic_shift.shift_ratio": ("shifts", "calls", 1.0, "ratio"),
}
HIGHER_IS_BETTER = ("found", "accepts")


def per_layer_specs() -> list[dict]:
    """Name, unit and direction of every per-layer metric, in report order."""
    out = []
    for span, fields in COUNT_METRICS.items():
        for f in fields:
            unit = "s" if f == "self_s" else ("bytes" if f == "bytes" else "count")
            better = "higher" if f in HIGHER_IS_BETTER else "lower"
            out.append({"name": f"{span}.{f}", "unit": unit, "better": better})
    for name, (_, _, _, unit) in RATIO_METRICS.items():
        out.append({"name": name, "unit": unit, "better": "lower"})
    out.append({"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"})
    return out


class Tracer:
    """Records spans and counters while installed and an op id is set."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | None = None  # set around each op; None records nothing
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        bind = _bound(fn) if counter else None
        calls_key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
                counts[calls_key] += 1
                if counter is not None:
                    for key, inc in counter(bind(args, kwargs), result, exc).items():
                        counts[f"{name}.{key}"] += inc

        return wrapper

    def install(self) -> None:
        """Wrap each target on every binident namespace that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "binident" or n.startswith("binident."))]
        for t in TARGETS:
            owner = sys.modules[f"binident.{t.module}"]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(t.name, raw.__func__, t.counter))
                else:
                    new = self._wrap(t.name, raw, t.counter)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(owner, t.attr)
            wrapper = self._wrap(t.name, original, t.counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child span time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac; absent work is 0."""
        selfs = self.self_times()
        raw = dict(self.counts)
        for name, value in selfs.items():
            raw[f"{name}.self_s"] = value
        out = {}
        for span, fields in COUNT_METRICS.items():
            for f in fields:
                out[f"{span}.{f}"] = raw.get(f"{span}.{f}", 0.0)
        for name, (num, den, scale, _) in RATIO_METRICS.items():
            span = name.rsplit(".", 1)[0]
            d = raw.get(f"{span}.{den}", 0.0)
            out[name] = raw.get(f"{span}.{num}", 0.0) * scale / d if d else 0.0
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
