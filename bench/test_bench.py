"""Self-tests of the benchmark: checkers, span arithmetic, computed counts.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import csv
import io
import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))

import binident  # noqa: E402
from binident import cli, harness, lowerbound  # noqa: E402
from binident.distributions import Distribution  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _write(path, pmf):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": len(pmf), "pmf": [str(v) for v in pmf]}, fh)


def _cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.fixture
def tester_case(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    p = [Fraction(w, 30) for w in (1, 2, 3, 0, 4, 5, 1, 2, 3, 4, 5)]
    q = [Fraction(6, 30), Fraction(10, 30), Fraction(14, 30)]
    _write("p.json", p)
    _write("q.json", q)
    inst = {"n": len(p), "eps": "1/2", "p": p, "q": q}
    code, out = _cli(["test", "--p", "p.json", "--q", "q.json", "--n", "11",
                      "--eps", "1/2", "--seed", "7"], capsys)
    return inst, code, out


def test_tester_check_accepts_the_program_output(tester_case):
    inst, code, out = tester_case
    assert code in (0, 1)
    assert checks.check_test_output(inst, 7, code, out) == []


@pytest.mark.parametrize("corrupt", ["delta", "witness", "empty-bin", "verdict", "seed"])
def test_tester_check_flags_corruption(tester_case, corrupt):
    inst, code, out = tester_case
    data = json.loads(out)
    seed = 7
    if corrupt == "delta":
        data["delta"] = str(Fraction(data["delta"]) + Fraction(1, 1000))
    elif corrupt == "witness":
        data["witness"] = [0, 1, 2, 11]  # valid, but not the reported delta
    elif corrupt == "empty-bin":
        data["witness"] = [0, 0, 5, 11]
    elif corrupt == "verdict":
        code = 1 - code
    else:
        seed = 8  # the same output cannot come from another op seed
    assert checks.check_test_output(inst, seed, code, json.dumps(data)) != []


@pytest.fixture
def calibration_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pmf = [Fraction(w, 20) for w in (1, 3, 0, 4, 2, 5, 1, 4)]
    _write("p.json", pmf)
    spec = harness.ExperimentSpec(
        "calibration", {"p_file": "p.json", "k": 2, "epsilon": "1/2"}, 5, 4, "c.csv")
    harness.run_experiment(spec)
    with open("c.csv", "rb") as fh:
        return pmf, fh.read()


def test_calibration_check_accepts_the_program_output(calibration_csv):
    pmf, data = calibration_csv
    assert checks.check_calibration_csv(pmf, 2, Fraction(1, 2), 5, 4, data) == []


def test_calibration_check_flags_truncated_and_perturbed_csv(calibration_csv):
    pmf, data = calibration_csv
    truncated = b"\n".join(data.split(b"\n")[:-2]) + b"\n"
    assert checks.check_calibration_csv(pmf, 2, Fraction(1, 2), 5, 4, truncated) != []
    rows = list(csv.reader(io.StringIO(data.decode())))
    col = rows[0].index("ak_error")
    rows[2][col] = str(Fraction(rows[2][col]) + 2)  # above 2 * TV
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert checks.check_calibration_csv(
        pmf, 2, Fraction(1, 2), 5, 4, buf.getvalue().encode()) != []


@pytest.fixture
def lab_cell(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cell = {"m": 1, "b": 6, "k_prime": 3, "s_grid": [2, 4], "trials": 5}
    with open("spec.json", "w", encoding="utf-8") as fh:
        json.dump({"kind": "overflow-curve", "master_seed": 9, "trials": 5,
                   "output_path": "o.csv",
                   "parameters": {"pair_file": "pair.json", "s_grid": [2, 4]}}, fh)
    gen = _cli(["gen-hard", "--m", "1", "--b", "6", "--k-prime", "3", "--out", "pair.json"],
               capsys)
    claim = _cli(["verify-claim", "--pair", "pair.json"], capsys)
    exp = _cli(["experiment", "--spec", "spec.json"], capsys)
    with open("o.csv", "rb") as fh:
        data = fh.read()
    return cell, (gen, claim, exp), harness.load_hard_pair("pair.json"), data


def test_lab_check_accepts_the_program_output(lab_cell):
    cell, record, pair, data = lab_cell
    assert checks.check_lab_cell(cell, *record, pair, data) == []


def test_lab_check_flags_wrong_exact_column_and_truncated_csv(lab_cell):
    cell, record, pair, data = lab_cell
    lines = data.decode().split("\n")
    truncated = "\n".join(lines[:-2]).encode()
    assert checks.check_lab_cell(cell, *record, pair, truncated) != []
    header = lines[0].split(",")
    col = header.index("exact_probability")
    row = lines[1].split(",")
    row[col] = "1/2"
    wrong = "\n".join([lines[0], ",".join(row), *lines[2:]]).encode()
    assert checks.check_lab_cell(cell, *record, pair, wrong) != []
    assert checks.check_lab_cell(cell, *record, ValueError("bad pair"), data) != []


def test_empirical_counts_replays_the_package_sampler():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 12)
        w = [rng.choice((0, 0, 1, 2, 7)) for _ in range(n)]
        if not any(w):
            w[-1] = 1
        d = Distribution.from_weights(w)
        seed = rng.choice((0, 1, -5, 2**64 + 3, rng.getrandbits(70)))
        s = rng.randint(1, 300)
        want = [0] * n
        for v in binident.sample(d, s, seed).values:
            want[v - 1] += 1
        assert checks.empirical_counts(list(d.pmf), s, seed).tolist() == want


def test_interval_distance_matches_the_enumeration_oracle():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 7)
        d1 = Distribution.from_weights([rng.randint(0, 4) for _ in range(n - 1)] + [1])
        d2 = Distribution.from_weights([rng.randint(0, 4) for _ in range(n - 1)] + [1])
        scale = math.lcm(*(v.denominator for v in (*d1.prefix, *d2.prefix)))
        diffs = [int((a - b) * scale) for a, b in zip(d1.prefix, d2.prefix)]
        for ell in range(1, n + 1):
            assert Fraction(checks.interval_distance(diffs, ell), scale) == (
                binident.brute_force_ak_distance(d1, d2, ell))


def test_overflow_forms_agree_with_the_program():
    for k_prime in (1, 2, 5, 11):
        for s in (0, 1, 3, 8, 14):
            assert checks.overflow_exact(k_prime, s, 1) == checks.birthday(k_prime, s)
            for m in (1, 2, 4):
                assert checks.overflow_exact(k_prime, s, m) == (
                    lowerbound.block_overflow_probability(k_prime, s, m))


def test_self_time_on_nested_spans():
    t = spans.Tracer()
    #   root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 7];  c [11, 12]
    t.spans = [["root", 0, 10, -1, 0], ["a", 1, 4, 0, 0], ["a1", 2, 3, 1, 0],
               ["b", 5, 7, 0, 0], ["c", 11, 12, -1, 1], ["b", 8, 9, 0, 0]]
    assert t.self_times() == {"root": 4, "a": 2, "a1": 1, "b": 3, "c": 1}


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    t.op = 0
    yield t
    t.op = None
    t.uninstall()


def test_computed_counts_match_closed_forms(tracer):
    p = Distribution.from_weights([1, 2, 0, 3, 1])
    q = Distribution(["1/2", "1/4", "1/4"])
    binident.min_binned_discrepancy(p, q, require_nonempty_on_support=True)
    binident.ak_distance(p, Distribution.uniform(5), 2)
    binident.moment_vector(q, 3)
    lowerbound.find_hard_pair(1, 6, 1)
    binident.block_overflow_probability(3, 4, 1)
    binident.block_overflow_probability(3, 1, 1)  # s <= m: no DP work
    m = tracer.metrics()
    assert m["binning.min_binned_discrepancy.cells"] == (5 + 1) * 3
    assert m["distributions.ak_distance.cells"] == (5 + 1) * 2
    assert m["fingerprints.moment_vector.compositions"] == 2 ** (3 - 1)
    assert m["lowerbound.find_hard_pair.strings"] == math.comb(6, 3)
    assert m["lowerbound.find_hard_pair.found"] == 1
    assert m["lowerbound.block_overflow_probability.transitions"] == 3 * 5 * 2
    assert m["lowerbound.block_overflow_probability.calls"] == 2
    assert m["binning.min_binned_discrepancy.ns_per_cell"] == pytest.approx(
        m["binning.min_binned_discrepancy.self_s"] * 1e9 / 18)
    # find_hard_pair(1, ...) consults the budget once for the strings
    assert m["budgets.check.calls"] >= 3


def test_wrappers_cover_every_binding_and_uninstall(tracer):
    p = Distribution(["1/2", "1/2"])
    binident.coarsening_distance(p, p)         # package namespace
    lowerbound.coarsening_distance(p, p)       # `from .binning import` binding
    assert tracer.metrics()["binning.coarsening_distance.calls"] == 2
    assert tracer.metrics()["binning.min_binned_discrepancy.calls"] == 2
    tracer.op = None
    binident.coarsening_distance(p, p)         # no op set: not recorded
    assert tracer.metrics()["binning.coarsening_distance.calls"] == 2
    wrapped = lowerbound.coarsening_distance
    tracer.uninstall()
    assert lowerbound.coarsening_distance is not wrapped
    assert lowerbound.coarsening_distance is binident.binning.coarsening_distance


def test_refusals_and_exit_codes_are_counted(tracer, tmp_path, capsys):
    with pytest.raises(binident.BudgetExceededError):
        list(lowerbound.balanced_strings(40))
    assert cli.main(["coarse-dist", "--p", str(tmp_path / "none.json"),
                     "--q", str(tmp_path / "none.json")]) == 2
    capsys.readouterr()
    m = tracer.metrics()
    assert m["budgets.check.refused"] == 1
    assert m["cli.main.exit_2"] == 1


def test_per_layer_specs_name_every_metric_once(tracer):
    names = [s["name"] for s in spans.per_layer_specs()]
    assert len(names) == len(set(names))
    assert set(names) == set(tracer.metrics()) | {"trace.overhead_frac"}


def test_quantile_is_nearest_rank():
    assert run._quantile([3, 1, 2], 0.5) == 2
    assert run._quantile([1, 2, 3, 4], 0.5) == 2
    assert run._quantile([5], 0.9) == 5
    cells = list(range(16))
    for rounds in (1, 2, 3, 4):  # the same lab cell at any number of rounds
        assert run._quantile(cells * rounds, 0.9) == 14
        assert run._quantile(cells * rounds, 0.5) == 7
