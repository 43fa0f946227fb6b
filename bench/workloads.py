"""The three benchmark workloads: seeded inputs, op schedule, checks.

A workload writes its inputs (distribution JSON, experiment specs) into the
current directory, then hands the program one call at a time through its
public entry points, ``binident.cli.main`` and
``binident.harness.run_experiment``.  An op is one `binident test` run, one
calibration trial, or one lab cell, named by a key.  Round r of the schedule
is a fixed list of keys derived from the seed; the first `fixed_rounds`
rounds feed the result digest and the traced run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from fractions import Fraction

from binident import cli, harness
from binident.binning import coarsening_distance
from binident.distributions import Distribution

import checks


def _write_dist(path: str, pmf: list[Fraction]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": len(pmf), "pmf": [str(v) for v in pmf]}, fh)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Tester:
    """`binident test` on binnable and far instances, n in 200..260, k = n/20.

    Each op gets its own seed.  Binnable instances bin p exactly onto q;
    far ones put mass 1/2 on one element against a near-uniform q, so the
    coarsening distance is at least 2*eps.  Both are checked in set-up.
    """

    name = "tester"
    fixed_rounds = 16  # 128 ops

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[str]:
        rng = random.Random(f"tester:{self.seed}")
        self.instances = []
        problems = []
        for i in range(8):
            n = 200 + 20 * (i // 2)
            k = n // 20
            eps = "1/4" if i % 4 < 2 else "1/5"
            if i % 2 == 0:
                w = [rng.randint(1, 9) for _ in range(n)]
                cuts = [0, *sorted(rng.sample(range(1, n), k - 1)), n]
                total = sum(w)
                p = [Fraction(v, total) for v in w]
                q = [Fraction(sum(w[a:b]), total) for a, b in zip(cuts, cuts[1:])]
            else:
                spike = rng.randrange(n)
                w = [rng.randint(1, 9) for _ in range(n)]
                rest = 2 * (sum(w) - w[spike])
                p = [Fraction(1, 2) if j == spike else Fraction(v, rest)
                     for j, v in enumerate(w)]
                v = [rng.randint(9, 11) for _ in range(k)]
                q = [Fraction(x, sum(v)) for x in v]
            _write_dist(f"p{i}.json", p)
            _write_dist(f"q{i}.json", q)
            dist = coarsening_distance(Distribution(p), Distribution(q))
            if (dist != 0) if i % 2 == 0 else (dist < 2 * Fraction(eps)):
                problems.append(f"instance {i}: coarsening distance {dist}")
            self.instances.append({"n": n, "eps": eps, "p": p, "q": q})
        self.op_seed = rng.getrandbits(40)
        return problems

    def warmup(self) -> tuple[int, int]:
        return 0, self.op_seed - 1

    def round(self, r: int) -> list[tuple[int, int]]:
        return [(i, self.op_seed + 8 * r + i) for i in range(8)]

    def execute(self, key):
        i, op_seed = key
        inst = self.instances[i]
        return _run_cli(["test", "--p", f"p{i}.json", "--q", f"q{i}.json",
                         "--n", str(inst["n"]), "--eps", inst["eps"],
                         "--seed", str(op_seed)])

    def check(self, key, record) -> tuple[list[str], bytes]:
        i, op_seed = key
        code, stdout = record
        problems = checks.check_test_output(self.instances[i], op_seed, code, stdout)
        return problems, f"{code}\n{stdout}".encode()

    def expected(self, keys: list) -> dict[str, int]:
        n_ops = len(keys)
        cells = draws = 0
        for i, _ in keys:
            inst = self.instances[i]
            k = len(inst["q"])
            cells += (inst["n"] + 1) * k
            draws += math.ceil(16 * k / Fraction(inst["eps"]) ** 2)
        return {
            "cli.main.calls": n_ops,
            "tester.bin_identity_test.calls": n_ops,
            "harness.load_distribution.calls": 2 * n_ops,
            "distributions.sample.calls": n_ops,
            "distributions.sample.draws": draws,
            "distributions.empirical.calls": n_ops,
            "binning.min_binned_discrepancy.calls": n_ops,
            "binning.min_binned_discrepancy.cells": cells,
        }


class Calibration:
    """A `calibration` experiment, n = 64, k = 8, eps = 1/20: s = 51200 per trial.

    One call is one ``run_experiment`` of a single trial writing its CSV, so
    each trial is timed on its own; the master seed advances by one per call
    and no trial repeats.
    """

    name = "calibration"
    fixed_rounds = 128
    n, k, eps, trials = 64, 8, Fraction(1, 20), 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[str]:
        rng = random.Random(f"calibration:{self.seed}")
        w = [rng.randint(1, 9) for _ in range(self.n)]
        self.p = [Fraction(v, sum(w)) for v in w]
        _write_dist("p.json", self.p)
        self.base = rng.getrandbits(40)
        with open("calibration.json", "w", encoding="utf-8") as fh:
            json.dump({"kind": "calibration", "master_seed": self.base,
                       "trials": self.trials, "output_path": "calibration.csv",
                       "parameters": {"p_file": "p.json", "k": self.k,
                                      "epsilon": str(self.eps)}}, fh)
        self.spec = harness.load_experiment_spec("calibration.json")
        return []

    def warmup(self) -> int:
        return self.base - 1

    def round(self, r: int) -> list[int]:
        return [self.base + r]

    def execute(self, master_seed: int):
        return harness.run_experiment(dataclasses.replace(self.spec, master_seed=master_seed))

    def check(self, master_seed: int, record) -> tuple[list[str], bytes]:
        data = _read("calibration.csv")
        problems = checks.check_calibration_csv(
            self.p, self.k, self.eps, master_seed, self.trials, data)
        return problems, data

    def expected(self, keys: list) -> dict[str, int]:
        trials = len(keys)
        s = math.ceil(16 * self.k / self.eps**2)
        return {
            "harness.run_experiment.calls": trials,
            "harness.write_rows_csv.calls": trials,
            "harness.load_distribution.calls": trials,
            "distributions.sample.calls": trials,
            "distributions.sample.draws": trials * s,
            "distributions.empirical.calls": trials,
            "distributions.ak_distance.calls": trials,
            "distributions.ak_distance.cells": trials * (self.n + 1) * self.k,
        }


class Lab:
    """The lower-bound lab over distinct (m, b) cells, each with a pair.

    A cell runs `gen-hard`, `verify-claim` (blow-up to b*k' <= 200 elements)
    and an `overflow-curve` experiment from the stored pair.  A round is one
    sweep of every cell in a seed-shuffled order.
    """

    name = "lab"
    fixed_rounds = 1
    # (3, 16) is left out so that the 90th-percentile op, (4, 16), costs
    # about twice its cheaper neighbours and half of (3, 18) at any number
    # of rounds; with (3, 16) in, p90 flipped between the two from run to run.
    cells = [(m, b) for m in (1, 2, 3, 4) for b in (10, 12, 14, 16) if (m, b) != (3, 16)]
    cells.append((3, 18))
    s_grid = [4, 8, 12, 16, 20, 24, 28, 32]
    trials = 400

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[str]:
        rng = random.Random(f"lab:{self.seed}")
        self.info = {}
        for m, b in self.cells:
            tag = f"m{m}_b{b}"
            info = {"m": m, "b": b, "k_prime": 200 // b, "s_grid": self.s_grid,
                    "trials": self.trials, "pair": f"pair_{tag}.json",
                    "csv": f"overflow_{tag}.csv", "spec": f"spec_{tag}.json"}
            with open(info["spec"], "w", encoding="utf-8") as fh:
                json.dump({"kind": "overflow-curve", "master_seed": rng.getrandbits(40),
                           "trials": self.trials, "output_path": info["csv"],
                           "parameters": {"pair_file": info["pair"],
                                          "s_grid": self.s_grid}}, fh)
            self.info[(m, b)] = info
        return []

    def warmup(self) -> tuple[int, int]:
        return 2, 10

    def round(self, r: int) -> list[tuple[int, int]]:
        order = list(self.cells)
        random.Random(f"lab:{self.seed}:{r}").shuffle(order)
        return order

    def execute(self, cell):
        c = self.info[cell]
        gen = _run_cli(["gen-hard", "--m", str(c["m"]), "--b", str(c["b"]),
                        "--k-prime", str(c["k_prime"]), "--out", c["pair"]])
        claim = _run_cli(["verify-claim", "--pair", c["pair"]])
        exp = _run_cli(["experiment", "--spec", c["spec"]])
        return gen, claim, exp

    def check(self, cell, record) -> tuple[list[str], bytes]:
        c = self.info[cell]
        try:
            pair = harness.load_hard_pair(c["pair"])
        except Exception as exc:  # any reload failure is a wrong output
            pair = exc
        csv_bytes = _read(c["csv"]) if record[2][0] == 0 else b""
        problems = checks.check_lab_cell(c, *record, pair, csv_bytes)
        digest = b"".join(out.encode() for _, out in record) + _read(c["pair"]) + csv_bytes
        return problems, digest

    def expected(self, keys: list) -> dict[str, int]:
        n_cells = len(keys)
        grid, t = len(self.s_grid), self.trials
        strings = cells = comps = 0
        for cell in keys:
            c = self.info[cell]
            strings += math.comb(c["b"], c["b"] // 2)
            dom = c["b"] * c["k_prime"]
            cells += (dom + 1) * dom
            comps += 6 * ((1 << c["m"]) - 1)
        return {
            "cli.main.calls": 3 * n_cells,
            "lowerbound.find_hard_pair.calls": n_cells,
            "lowerbound.find_hard_pair.found": n_cells,
            "lowerbound.find_hard_pair.strings": strings,
            "lowerbound.HardInstancePair.build.calls": 3 * n_cells,
            "harness.store_hard_pair.calls": n_cells,
            "harness.load_hard_pair.calls": 2 * n_cells,
            "lowerbound.verify_distance_claim.calls": n_cells,
            "binning.coarsening_distance.calls": n_cells,
            "binning.min_binned_discrepancy.calls": n_cells,
            "binning.min_binned_discrepancy.cells": cells,
            "fingerprints.moment_vector.calls": sum(6 * m for m, _ in keys),
            "fingerprints.moment_vector.compositions": comps,
            "harness.run_experiment.calls": n_cells,
            "lowerbound.block_overflow_probability.calls": n_cells * grid,
            "lowerbound.block_overflow_trial.calls": n_cells * grid * t,
            "distributions.sample.calls": n_cells * grid * t,
            "distributions.sample.draws": n_cells * t * sum(self.s_grid),
        }


WORKLOADS = {w.name: w for w in (Tester, Calibration, Lab)}
