"""Serialization and seeded experiment orchestration.

Distributions travel as ``{"n": <int>, "pmf": [<entry>, ...]}`` where each
entry is a number or an exact string like ``"3/10"``; exact mode insists on
strings.  Stored files always use the exact string form, so a store/load
round trip reproduces identical rationals.  Experiments write one CSV row
per (trial, parameter point) with fixed columns; identical specs produce
bit-identical files, and summaries are always recomputed from rows.  Spec
fields and runner parameters are type-checked by name before any work, and
paths must be strings: open() takes an int as a file descriptor.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Any, Mapping

from . import budgets
from .binning import IntervalPartition
from .distributions import Distribution, as_fraction, trial_seeds
from .lowerbound import (
    DEFAULT_RHO,
    HardInstancePair,
    MassString,
    find_hard_pair,
    make_hard_instance,
    sample_size_curve,
    shift_threshold,
)
from .tester import DEFAULT_LEARN_CONSTANT, accept_rate, calibration_curve, error_curve


def _entry_to_fraction(entry: Any, exact: bool, position: int) -> Fraction:
    if isinstance(entry, str):
        try:
            return Fraction(entry)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"entry {position}: not a rational string: {entry!r}") from exc
    if exact:
        raise ValueError(
            f"entry {position}: exact mode requires rational strings, got {entry!r}"
        )
    if isinstance(entry, bool) or not isinstance(entry, (int, float)):
        raise ValueError(f"entry {position}: not a number: {entry!r}")
    try:
        return Fraction(entry)
    except (ValueError, OverflowError) as exc:
        # json.load accepts Infinity, NaN and overflowing literals like 1e400.
        raise ValueError(f"entry {position}: not a finite number: {entry!r}") from exc


def _integer(value: Any, field: str) -> int:
    """`value` when it is an int and not a bool; int() would truncate 2.7."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _string(value: Any, field: str) -> str:
    """`value` when it is a str; open() takes an int as a file descriptor."""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


def _rational(value: Any, field: str) -> Fraction:
    """as_fraction(value), or a refusal that names the field."""
    try:
        return as_fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"{field} must be a rational number, got {value!r}") from None


def distribution_from_json(data: Mapping[str, Any], exact: bool = False) -> Distribution:
    if not isinstance(data, Mapping) or "n" not in data or "pmf" not in data:
        raise ValueError('distribution JSON must carry "n" and "pmf"')
    n = _integer(data["n"], "n")
    pmf = data["pmf"]
    if not isinstance(pmf, list) or len(pmf) != n:
        raise ValueError(f'"pmf" must be a list of length n = {n}')
    masses = [_entry_to_fraction(v, exact, i + 1) for i, v in enumerate(pmf)]
    return Distribution(masses)


def distribution_to_json(d: Distribution) -> dict:
    return {"n": d.n, "pmf": [str(v) for v in d.pmf]}


def load_distribution(path: str, exact: bool = False) -> Distribution:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return distribution_from_json(data, exact=exact)


def store_distribution(d: Distribution, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(distribution_to_json(d), fh)
        fh.write("\n")


def partition_to_json(partition: IntervalPartition) -> list[int]:
    return list(partition.bounds)


def partition_from_json(data: Any) -> IntervalPartition:
    if not isinstance(data, list):
        raise ValueError("partition JSON must be an integer array of bounds")
    return IntervalPartition(data)


def hard_pair_to_json(pair: HardInstancePair) -> dict:
    """The six scalars that fix a pair; the loader rebuilds the rest."""
    return {
        "m": pair.m,
        "b": pair.b,
        "rho": str(pair.rho),
        "k_prime": pair.k_prime,
        "x": pair.x.symbols,
        "y": pair.y.symbols,
    }


def hard_pair_from_json(data: Mapping[str, Any]) -> HardInstancePair:
    """Rebuild and re-verify a pair; distributions that older files carry
    must equal the rebuilt ones."""
    for key in ("m", "rho", "k_prime", "x", "y"):
        if not isinstance(data, Mapping) or key not in data:
            raise ValueError(f'hard pair JSON must carry "{key}"')
    x, y = (MassString(_string(data[key], key)) for key in ("x", "y"))
    if "b" in data and _integer(data["b"], "b") != x.b:
        raise ValueError(f"b must equal len(x) = {x.b}, got {data['b']!r}")
    pair = HardInstancePair.build(
        x, y, _integer(data["m"], "m"), as_fraction(data["rho"]),
        _integer(data["k_prime"], "k_prime"),
    )
    for key in ("p_base", "q_base", "p_big", "q_big"):
        if key in data:
            stored = distribution_from_json(data[key], exact=True)
            if stored != getattr(pair, key):
                raise ValueError(f"stored {key} disagrees with the rebuilt pair")
    return pair


def store_hard_pair(pair: HardInstancePair, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(hard_pair_to_json(pair), fh, indent=2)
        fh.write("\n")


def load_hard_pair(path: str) -> HardInstancePair:
    with open(path, "r", encoding="utf-8") as fh:
        return hard_pair_from_json(json.load(fh))


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment kind with parameters, seed, trial count, output."""

    kind: str
    parameters: Mapping[str, Any]
    master_seed: int
    trials: int
    output_path: str

    def __post_init__(self):
        _integer(self.master_seed, "master_seed")
        _integer(self.trials, "trials")
        if _string(self.kind, "kind") not in _RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not isinstance(self.parameters, Mapping):
            raise ValueError(f"parameters must be a mapping, got {self.parameters!r}")
        # Every path is checked before any file is opened.
        _string(self.output_path, "output_path")
        for key in ("p_file", "q_file", "pair_file"):
            if key in self.parameters:
                _string(self.parameters[key], key)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class ExperimentResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary: dict


def write_rows_csv(path: str, columns: tuple[str, ...], rows) -> None:
    """Header, then rows of str(cell) with None empty; flag columns hold 0/1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _required(params: Mapping[str, Any], key: str) -> Any:
    if key not in params:
        raise ValueError(f'parameters need "{key}"')
    return params[key]


def _required_integer(params: Mapping[str, Any], key: str) -> int:
    return _integer(_required(params, key), key)


def _required_list(params: Mapping[str, Any], key: str) -> list:
    value = _required(params, key)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    if not value:
        raise ValueError(f"{key} must not be empty")
    return value


def _resolve_distribution(params: Mapping[str, Any], key: str) -> Distribution:
    file_key = f"{key}_file"
    try:
        if key in params:
            return distribution_from_json(params[key], exact=False)
        if file_key in params:
            return load_distribution(params[file_key])
    except (OSError, ValueError) as exc:
        raise ValueError(f"{key if key in params else file_key}: {exc}") from exc
    raise ValueError(f'parameters need "{key}" (inline JSON) or "{file_key}" (path)')


def _table(
    spec: ExperimentSpec,
    columns: tuple[str, ...],
    lead: Mapping[str, Any],
    rows,
) -> tuple[tuple, ...]:
    """CSV rows over `columns` (two or more), one per library row.

    Each cell comes from the library row when it has that column, and
    otherwise from the spec-level values: kind, master_seed and `lead`.
    """
    fixed = {"kind": spec.kind, "master_seed": spec.master_seed, **lead}
    cells = itemgetter(*columns)
    return tuple(cells({**fixed, **r}) for r in rows)


def _run_test_curve(spec: ExperimentSpec) -> ExperimentResult:
    params = spec.parameters
    p = _resolve_distribution(params, "p")
    q = _resolve_distribution(params, "q")
    epsilons = [
        _rational(e, f"epsilons[{i}]") for i, e in enumerate(_required_list(params, "epsilons"))
    ]
    constant = _rational(params.get("constant", DEFAULT_LEARN_CONSTANT), "constant")
    curve = error_curve(p, q, epsilons, spec.trials, spec.master_seed, constant)
    columns = (
        "kind", "epsilon", "constant", "master_seed",
        "trial", "seed", "samples", "delta", "threshold", "verdict",
    )
    rows = _table(spec, columns, {"constant": constant}, curve)
    summary = {
        "accept_rate": {str(eps): str(accept_rate(curve, eps)) for eps in epsilons}
    }
    return ExperimentResult(columns, rows, summary)


def _run_calibration(spec: ExperimentSpec) -> ExperimentResult:
    params = spec.parameters
    k = _required_integer(params, "k")
    epsilon = _rational(_required(params, "epsilon"), "epsilon")
    constant = _rational(params.get("constant", DEFAULT_LEARN_CONSTANT), "constant")
    p = _resolve_distribution(params, "p") if "p" in params or "p_file" in params else None
    n = _required_integer(params, "n") if p is None else p.n
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, n = {n}], got {k}")
    # ak_distance charges the same cells, but only after sampling.
    budgets.check("binning_cells", (n + 1) * k, "DP cells")
    if p is None:
        p = Distribution.uniform(n)
    curve = calibration_curve(p, k, epsilon, spec.trials, spec.master_seed, constant)
    columns = (
        "kind", "n", "k", "epsilon", "constant", "master_seed",
        "trial", "seed", "samples", "ak_error", "target", "passed",
    )
    lead = {"n": p.n, "k": k, "epsilon": epsilon, "constant": constant}
    flagged = ({**r, "passed": int(r["passed"])} for r in curve)
    rows = _table(spec, columns, lead, flagged)
    passed = sum(r["passed"] for r in curve)
    summary = {"pass_fraction": str(Fraction(passed, spec.trials))}
    return ExperimentResult(columns, rows, summary)


def _run_overflow_curve(spec: ExperimentSpec) -> ExperimentResult:
    params = spec.parameters
    s_grid = [_integer(s, f"s_grid[{i}]") for i, s in enumerate(_required_list(params, "s_grid"))]
    if "pair_file" in params:
        try:
            pair = load_hard_pair(params["pair_file"])
        except (OSError, ValueError) as exc:
            raise ValueError(f"pair_file: {exc}") from exc
    else:
        m = _required_integer(params, "m")
        b = _required_integer(params, "b")
        rho = _rational(params.get("rho", DEFAULT_RHO), "rho")
        pair = make_hard_instance(m, b, rho, _required_integer(params, "k_prime"))
    curve = sample_size_curve(pair, s_grid, spec.trials, spec.master_seed)
    seeds = trial_seeds(spec.master_seed, spec.trials)
    columns = (
        "kind", "m", "b", "k_prime", "master_seed",
        "s", "trial", "seed", "overflow", "exact_probability",
    )
    lead = {"m": pair.m, "b": pair.b, "k_prime": pair.k_prime}
    rows = []
    for r in curve:
        size = {**lead, "s": r["s"], "exact_probability": r["exact_probability"]}
        trials = (
            {"trial": t, "seed": seed, "overflow": int(overflow)}
            for t, (seed, overflow) in enumerate(zip(seeds, r["outcomes"]))
        )
        rows += _table(spec, columns, size, trials)
    summary = {
        "overflow_fraction": {str(r["s"]): str(r["overflow_fraction"]) for r in curve},
        "exact_probability": {str(r["s"]): str(r["exact_probability"]) for r in curve},
    }
    return ExperimentResult(columns, tuple(rows), summary)


def _run_hard_pair_search(spec: ExperimentSpec) -> ExperimentResult:
    params = spec.parameters
    m = _required_integer(params, "m")
    b = _required_integer(params, "b")
    rho = _rational(params.get("rho", DEFAULT_RHO), "rho")
    found = find_hard_pair(m, b, rho)
    columns = ("kind", "m", "b", "rho", "shift_threshold", "found", "x", "y")
    x, y = ("", "") if found is None else (v.symbols for v in found)
    rows = ((spec.kind, m, b, rho, shift_threshold(rho, b), int(found is not None), x, y),)
    summary = {"found": False} if found is None else {"found": True, "x": x, "y": y}
    return ExperimentResult(columns, rows, summary)


_RUNNERS = {
    "test-curve": _run_test_curve,
    "overflow-curve": _run_overflow_curve,
    "hard-pair-search": _run_hard_pair_search,
    "calibration": _run_calibration,
}


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Dispatch an experiment, write its CSV, and return rows plus summary."""
    result = _RUNNERS[spec.kind](spec)
    if spec.output_path:
        write_rows_csv(spec.output_path, result.columns, result.rows)
    return result


def experiment_spec_from_json(data: Mapping[str, Any]) -> ExperimentSpec:
    if not isinstance(data, Mapping) or "kind" not in data:
        raise ValueError('spec JSON must carry "kind"')
    return ExperimentSpec(
        kind=data["kind"],
        parameters=data.get("parameters", {}),
        master_seed=data.get("master_seed", 0),
        trials=data.get("trials", 1),
        output_path=data.get("output_path", ""),
    )


def load_experiment_spec(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return experiment_spec_from_json(json.load(fh))
