"""Benchmark for binident: three seeded workloads, end to end and per layer.

    python3 bench/run.py --workload tester --seed 1 --seconds 30 --trace 0

runs one workload in this process against the package under ``src/`` and
prints a report; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  ``--trace 0`` times ops with no
wrappers installed and reports the end-to-end metrics; ``--trace 1`` runs the
workload's fixed schedule once plain and once with span wrappers on every
traced function, and reports the per-layer metrics.  ``--workload all`` runs
every workload, untraced and traced, each in a fresh process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
NAMES = ("tester", "calibration", "lab")
SETUP_REPEATS = 7
COMPUTED = ("cells", "draws", "compositions", "strings", "transitions", "bytes")
# Mean time of `_probe` on an uncontended core of the host the baseline was
# recorded on (Python 3.11); reported times are at that host speed.
PROBE_REF_S = 0.0005


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the least value with a share q of values at or below it.

    A lab round repeats one cell set, so this lands on the same cell however
    many rounds a run completes, where interpolation would mix two cells.
    """
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def _probe() -> int:
    """Fixed pure-Python kernel (ints, dicts, Fractions) that gauges host speed."""
    acc, table = 0, {}
    for i in range(1500):
        acc = (acc * 31 + i * 2654435761) % 1000000007
        table[i & 127] = table.get(i & 127, 0) + acc
    f = sum(Fraction(i, 7919) for i in range(1, 30))
    return acc + len(table) + f.numerator


class HostGauge:
    """Rescales timed sections to the host speed PROBE_REF_S stands for.

    Other tenants of a shared host slow every op by up to ~1.6x, in bursts
    that change share from second to second and drift over minutes.  After
    each timed section the gauge runs the fixed probe for 5% of the
    section's time; the section is rescaled by the mean probe time on both
    sides of it, which tracks the host speed the section ran at.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._last = self._burst(0.005)

    def _burst(self, seconds: float) -> list[float]:
        out = []
        while not out or sum(out) < seconds:
            start = time.perf_counter()
            _probe()
            out.append(time.perf_counter() - start)
        self.probes.extend(out)
        return out

    def scaled(self, seconds: float) -> float:
        after = self._burst(0.05 * seconds)
        around = statistics.fmean(self._last + after)
        self._last = after
        return seconds * PROBE_REF_S / around


class Runner:
    """Executes ops of one workload, checking and digesting every output."""

    def __init__(self, workload):
        self.wl = workload
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, key, digest=None, op_id=None) -> float:
        """Run one op, traced as `op_id` when a tracer is set; return its seconds."""
        if self.tracer is not None:
            self.tracer.op = op_id
        start = time.perf_counter()
        try:
            record = self.wl.execute(key)
        except Exception as exc:  # a raising op is a failed op, not a crash
            record = exc
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.op = None  # checks below are not traced
        self.attempted += 1
        if isinstance(record, Exception):
            problems, data = [f"raised {type(record).__name__}: {record}"], repr(record).encode()
        else:
            problems, data = self.wl.check(key, record)
        if problems:
            self.failed += 1
            self.problems.extend(f"{key}: {p}" for p in problems)
        if digest is not None:
            digest.update(data)
        return elapsed

    def schedule(self, rounds: int) -> list:
        return [key for r in range(rounds) for key in self.wl.round(r)]


def _import_seconds() -> float:
    """Time `import binident` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import binident; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return float(out)


def _setup(make, seed: int, repeats: int, gauge: HostGauge | None = None):
    """Set up `repeats` times: fresh import, inputs, set-up checks, warm-up op.

    Returns the last workload, a runner that has counted every warm-up op,
    and (raw, rescaled) seconds of each set-up when a gauge is given.
    """
    times, problems, failed = [], [], 0
    for _ in range(repeats):
        raw = _import_seconds() if gauge else 0.0
        start = time.perf_counter()
        wl = make(seed)
        setup_problems = wl.setup()
        warm = wl.warmup()
        record = wl.execute(warm)
        raw += time.perf_counter() - start
        if gauge:
            times.append((raw, gauge.scaled(raw)))
        warm_problems, _ = wl.check(warm, record)
        failed += bool(warm_problems)
        problems += [f"set-up: {p}" for p in setup_problems + warm_problems]
    runner = Runner(wl)
    runner.attempted, runner.failed, runner.problems = repeats, failed, problems
    return wl, runner, times


def run_untraced(make, args) -> tuple[Runner, dict, list[str]]:
    gauge = HostGauge()
    wl, runner, setups = _setup(make, args.seed, SETUP_REPEATS, gauge)
    digest = hashlib.sha256()
    raw: list[float] = []
    scaled: list[float] = []
    r = 0
    while r < wl.fixed_rounds or sum(raw) < args.seconds:
        for key in wl.round(r):
            dt = runner.op(key, digest if r < wl.fixed_rounds else None)
            raw.append(dt)
            scaled.append(gauge.scaled(dt))
        r += 1
    ms = [1000 * v for v in scaled]
    raw_ms = [1000 * v for v in raw]
    metrics = {
        "ops_per_s": (len(ms) * 1000 / sum(ms), "1/s"),
        "op_ms_p50": (_quantile(ms, 0.5), "ms"),
        "op_ms_p90": (_quantile(ms, 0.9), "ms"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"ops          n={len(ms)} ops in {r} rounds, {sum(raw):.3f} s of op time",
        f"raw          ops_per_s {len(raw) / sum(raw):.4f}, op_ms_p50 "
        f"{_quantile(raw_ms, 0.5):.4f}, op_ms_p90 {_quantile(raw_ms, 0.9):.4f}, setup_s "
        f"{statistics.median(t for t, _ in setups):.4f} (as measured, before rescaling)",
        f"host probe   median {1000 * statistics.median(gauge.probes):.4f} ms over "
        f"{len(gauge.probes)} probes; reference {1000 * PROBE_REF_S:g} ms",
        f"setup_s      median of {SETUP_REPEATS} set-ups: "
        + ", ".join(f"{s:.4f}" for _, s in setups) + " s",
        "peak_rss_mb  ru_maxrss of this process",
        f"failed_frac  {runner.failed / runner.attempted:.6g} "
        f"({runner.failed} of {runner.attempted} ops, warm-ups included)",
        f"digest       sha256:{digest.hexdigest()} "
        f"(outputs of the first {wl.fixed_rounds} rounds)",
    ]
    return runner, metrics, notes


def run_traced(make, args) -> tuple[Runner, dict, list[str]]:
    import spans

    wl, runner, _ = _setup(make, args.seed, 1)
    keys = runner.schedule(wl.fixed_rounds)
    gauge = HostGauge()  # both passes rescaled alike, so overhead_frac is not host noise
    plain = hashlib.sha256()
    untraced_s = sum(gauge.scaled(runner.op(k, plain)) for k in keys)
    tracer = spans.Tracer()
    traced = hashlib.sha256()
    tracer.install()
    runner.tracer = tracer
    try:
        traced_s = sum(gauge.scaled(runner.op(k, traced, op_id=i)) for i, k in enumerate(keys))
    finally:
        runner.tracer = None
        tracer.uninstall()
    if traced.digest() != plain.digest():
        runner.problems.append("traced outputs differ from untraced outputs")
        runner.failed += 1
    values = tracer.metrics()
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    units = {m["name"]: m["unit"] for m in spans.per_layer_specs()}
    metrics = {name: (values[name], units[name]) for name in units}

    expected = {"cli.main.exit_2": 0, "budgets.check.refused": 0,
                "binning.min_binned_discrepancy.infeasible": 0, **wl.expected(keys)}
    missed = [f"{k}: traced {values[k]:g}, expected {v}"
              for k, v in expected.items() if values[k] != v]
    if missed:
        sys.stderr.write("coverage assertion failed (a binding was not wrapped?):\n  "
                         + "\n  ".join(missed) + "\n")
        raise SystemExit(3)

    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{wl.name}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    notes = [
        f"traced       {len(keys)} ops, untraced {untraced_s:.3f} s, traced {traced_s:.3f} s "
        "(rescaled to the reference host speed; per-layer times are raw)",
        f"coverage     {len(expected)} counts match the schedule",
        f"spans        {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}",
    ]
    return runner, metrics, notes


def run_one(args) -> int:
    init = os.path.join(SRC, "binident", "__init__.py")
    if not os.path.isfile(init):
        sys.stderr.write(f"bench: no package source at {init}\n")
        return 2
    os.environ.pop("BINIDENT_BUDGET", None)
    sys.path.insert(0, SRC)
    import binident

    if os.path.dirname(os.path.abspath(binident.__file__)) != os.path.dirname(init):
        sys.stderr.write(f"bench: imported binident from {binident.__file__}\n")
        return 2
    import workloads

    make = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        if args.trace:
            runner, metrics, notes = run_traced(make, args)
        else:
            runner, metrics, notes = run_untraced(make, args)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        tag = " (computed)" if name.rsplit(".", 1)[-1] in COMPUTED else ""
        print(f"  {name:<50} {value:>18.6f} {unit}{tag}")
    for line in notes:
        print(f"  {line}")
    for p in runner.problems[:20]:
        print(f"  FAILED {p}")
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                sys.stderr.write(f"bench: {name} trace {trace} exited {proc.returncode}\n")
                return proc.returncode or 1
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for k, v in res["metrics"].items():
                combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
