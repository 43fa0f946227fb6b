"""Exactness checks on workload outputs, independent of the timed code.

Empirical counts are recomputed here with numpy from the documented sampling
rule (Philox 4x64 keyed by the seed mod 2**64; a raw draw u selects the
smallest element i with u < ceil(prefix_i * 2**64)) rather than through
``binident.sample``, so a checker error and a program error cannot cancel.
Every check returns a list of problems; an empty list means the output is
exact.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import accumulate

import numpy as np

_SCALE = 1 << 64


def empirical_counts(pmf: list[Fraction], s: int, seed: int) -> np.ndarray:
    """Per-element counts of s draws from pmf under the package's sampler."""
    thresholds = []
    acc = Fraction(0)
    for v in pmf:
        acc += v
        t = -((-acc.numerator * _SCALE) // acc.denominator)
        if t >= _SCALE:  # no 64-bit draw reaches it; the rest are equal or larger
            break
        thresholds.append(t)
    raws = np.random.Philox(key=int(seed) % _SCALE).random_raw(s)
    idx = np.searchsorted(np.array(thresholds, dtype=np.uint64), raws, side="right")
    return np.bincount(idx, minlength=len(pmf))


def _scaled(pmf: list[Fraction], counts, s: int) -> tuple[list[int], list[int], int]:
    scale = math.lcm(s, *(v.denominator for v in pmf))
    return ([int(c) * (scale // s) for c in counts],
            [v.numerator * (scale // v.denominator) for v in pmf], scale)


def interval_distance(diffs: list[int], ell: int) -> int:
    """max over splits of [n] into ell possibly empty intervals of sum |diffs[hi] - diffs[lo]|.

    `diffs` holds the n + 1 prefix differences; |x| = max(x, -x) turns the
    DP over split points into two running maxima per interval count.
    """
    best = [0] + [-math.inf] * (len(diffs) - 1)
    for _ in range(ell):
        up = down = -math.inf
        nxt = []
        for v, d in zip(best, diffs):
            up, down = max(up, v - d), max(down, v + d)
            nxt.append(max(up + d, down - d))
        best = nxt
    return best[-1]


def check_test_output(inst: dict, op_seed: int, code: int, stdout: str) -> list[str]:
    """`binident test` on one instance: witness, delta, verdict and exit code."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return [f"exit {code}: stdout is not JSON: {stdout[:80]!r}"]
    problems = []
    n, q, eps = inst["n"], inst["q"], Fraction(inst["eps"])
    k = len(q)
    s = math.ceil(16 * k / eps**2)
    threshold = eps / 4
    if out.get("samples") != s:
        problems.append(f"samples {out.get('samples')} != ceil(16k/eps^2) = {s}")
    if Fraction(out.get("threshold", "-1")) != threshold:
        problems.append(f"threshold {out.get('threshold')} != eps/4")
    w = out.get("witness")
    if not (isinstance(w, list) and len(w) == k + 1 and w[0] == 0 and w[-1] == n
            and all(a <= b for a, b in zip(w, w[1:]))):
        return problems + [f"witness {w} is not a {k}-interval partition of [{n}]"]
    if any(qj > 0 and w[j] == w[j + 1] for j, qj in enumerate(q)):
        problems.append("witness leaves a positive-mass bin empty")
    counts = empirical_counts(inst["p"], s, op_seed)
    prefix = np.concatenate(([0], np.cumsum(counts)))
    delta = sum(abs(Fraction(int(prefix[w[j + 1]] - prefix[w[j]]), s) - qj)
                for j, qj in enumerate(q))
    if Fraction(out.get("delta") or "-1") != delta:
        problems.append(f"delta {out.get('delta')} != recomputed {delta}")
    verdict = "accept" if delta <= threshold else "reject"
    if out.get("verdict") != verdict or code != (0 if verdict == "accept" else 1):
        problems.append(f"verdict {out.get('verdict')}/exit {code}, expected {verdict}")
    return problems


def check_calibration_csv(pmf: list[Fraction], k: int, eps: Fraction,
                          master_seed: int, trials: int, data: bytes) -> list[str]:
    """One row per trial; on a recomputed p-hat, ak_error is exact and 2KS <= it <= 2TV."""
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    if len(rows) != trials:
        return [f"{len(rows)} CSV rows, expected {trials}"]
    s = math.ceil(16 * k / eps**2)
    problems = []
    for t, row in enumerate(rows):
        seed = master_seed + t
        if (int(row["trial"]), int(row["seed"]), int(row["samples"])) != (t, seed, s):
            problems.append(f"row {t}: trial/seed/samples {row['trial']}/{row['seed']}/"
                            f"{row['samples']}")
            continue
        err = Fraction(row["ak_error"])
        counts, ref, scale = _scaled(pmf, empirical_counts(pmf, s, seed), s)
        tv2 = Fraction(sum(abs(a - b) for a, b in zip(counts, ref)), scale)
        ks = Fraction(max(abs(a - b) for a, b in zip(accumulate(counts),
                                                   accumulate(ref))), scale)
        if not 2 * ks <= err <= tv2:
            problems.append(f"row {t}: ak_error {err} outside [2KS, 2TV] = [{2 * ks}, {tv2}]")
        diffs = [0, *(a - b for a, b in zip(accumulate(counts), accumulate(ref)))]
        exact = Fraction(interval_distance(diffs, k), scale)
        if err != exact:
            problems.append(f"row {t}: ak_error {err} != recomputed {exact}")
        if row["passed"] != ("1" if err <= eps / 4 else "0"):
            problems.append(f"row {t}: passed={row['passed']} disagrees with eps/4")
    return problems


def overflow_exact(k_prime: int, s: int, m: int) -> Fraction:
    """P(some block gets > m of s uniform throws), by exponential generating function."""
    # s! [x^s] (sum_{c<=m} x^c / c!)^k' counts the throws with no overflow.
    base = [Fraction(1, math.factorial(c)) for c in range(min(m, s) + 1)]
    poly = [Fraction(1)]
    for _ in range(k_prime):
        nxt = [Fraction(0)] * min(len(poly) + len(base) - 1, s + 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(base[: s + 1 - i]):
                nxt[i + j] += a * b
        poly = nxt
    ok = poly[s] * math.factorial(s) if s < len(poly) else Fraction(0)
    return 1 - ok / Fraction(k_prime) ** s


def birthday(k_prime: int, s: int) -> Fraction:
    """Closed form of the m = 1 overflow probability: 1 - k'!/((k'-s)! k'^s)."""
    return 1 - Fraction(math.perm(k_prime, s), k_prime**s)


def check_lab_cell(cell: dict, gen: tuple, claim: tuple, exp: tuple,
                   pair, csv_bytes: bytes) -> list[str]:
    """gen-hard, verify-claim and overflow-curve outputs of one (m, b) cell.

    `pair` is the stored pair file reloaded through ``load_hard_pair`` (which
    re-verifies it), or the exception that reload raised.  The exact overflow
    column must match the birthday closed form at m = 1 and the generating
    function count otherwise.
    """
    problems = []
    for label, (code, stdout) in (("gen-hard", gen), ("verify-claim", claim),
                                  ("experiment", exp)):
        if code != 0:
            problems.append(f"{label} exit {code}: {stdout[-200:]!r}")
    if problems:
        return problems
    g, c, e = json.loads(gen[1]), json.loads(claim[1]), json.loads(exp[1])
    if isinstance(pair, Exception):
        return [f"stored pair does not reload: {pair}"]
    m, b, kp = cell["m"], cell["b"], cell["k_prime"]
    if (pair.m, pair.b, pair.k_prime, pair.x.symbols, pair.y.symbols) != (
            m, b, kp, g["x"], g["y"]):
        problems.append("reloaded pair disagrees with gen-hard output")
    if not (Fraction(c["distance"]) > 0 and c["positive"] is True):
        problems.append(f"verify-claim distance {c['distance']} is not positive")
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    grid, trials = cell["s_grid"], cell["trials"]
    if len(rows) != len(grid) * trials or e.get("rows") != len(rows):
        return problems + [f"{len(rows)} CSV rows, expected {len(grid) * trials}"]
    for i, s in enumerate(grid):
        block = rows[i * trials:(i + 1) * trials]
        want = birthday(kp, s) if m == 1 else overflow_exact(kp, s, m)
        if any(int(r["s"]) != s or Fraction(r["exact_probability"]) != want
               or r["overflow"] not in ("0", "1") for r in block):
            problems.append(f"s={s}: rows disagree with exact overflow {want}")
        if e["summary"]["overflow_fraction"][str(s)] != str(
                Fraction(sum(r["overflow"] == "1" for r in block), trials)):
            problems.append(f"s={s}: summary overflow fraction disagrees with rows")
    return problems
