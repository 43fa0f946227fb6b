"""Tests for the command-line interface."""

import json
import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from binident import harness
from binident.cli import build_parser, main
from binident.harness import load_hard_pair, store_distribution
from binident import Distribution, block_overflow_probability
from binident.tester import DEFAULT_LEARN_CONSTANT
from test_harness import RUNNER_PARAMETERS


@pytest.fixture
def q4_file(tmp_path, reference_q4):
    path = tmp_path / "q4.json"
    store_distribution(reference_q4, str(path))
    return str(path)


@pytest.fixture
def p20_file(tmp_path, staircase_p20):
    path = tmp_path / "p20.json"
    store_distribution(staircase_p20, str(path))
    return str(path)


class TestTestCommand:
    def test_accept_exit_zero(self, p20_file, q4_file, capsys):
        rc = main([
            "test", "--p", p20_file, "--q", q4_file,
            "--n", "20", "--eps", "1/10", "--seed", "3",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "accept"

    def test_reject_exit_one(self, tmp_path, capsys):
        p = tmp_path / "point.json"
        store_distribution(Distribution(["1"]), str(p))
        q = tmp_path / "half.json"
        store_distribution(Distribution(["1/2", "1/2"]), str(q))
        rc = main([
            "test", "--p", str(p), "--q", str(q),
            "--n", "1", "--eps", "1/5",
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "reject"
        assert payload["delta"] is None

    def test_error_exit_two(self, q4_file, capsys):
        rc = main([
            "test", "--p", "/nonexistent.json", "--q", q4_file,
            "--n", "20", "--eps", "1/10",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["test", "coarse-dist", "akdist"])
    def test_binning_budget_exit_two(self, tmp_path, capsys, command):
        # (4000 + 1) * 1000 DP cells: refused before the table is built.
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        store_distribution(Distribution.uniform(4000), str(p))
        store_distribution(Distribution.uniform(1000), str(q))
        argv = ["--p", str(p), "--q", str(q)]
        if command == "test":
            argv += ["--n", "4000", "--eps", "1/2", "--samples", "10"]
        if command == "akdist":
            argv = ["--d1", str(p), "--d2", str(p), "--ell", "1000"]
        assert main([command, *argv]) == 2
        assert "binning_cells: 4001000 DP cells" in capsys.readouterr().err

    def test_scale_budget_exit_two(self, tmp_path, capsys):
        # A reference mass of 1/3^1400 (2219 bits) over the 128 draws' counts
        # needs a 2226-bit common scale.
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        store_distribution(Distribution.uniform(2), str(p))
        q.write_text(json.dumps({"n": 2, "pmf": [f"1/{3**1400}", f"{3**1400 - 1}/{3**1400}"]}))
        argv = ["test", "--p", str(p), "--q", str(q), "--n", "2", "--eps", "1/2"]
        assert main(argv) == 2
        assert "scale_bits: 2226 bits of common scale" in capsys.readouterr().err

    def test_explicit_sample_count(self, p20_file, q4_file, capsys):
        rc = main([
            "test", "--p", p20_file, "--q", q4_file,
            "--n", "20", "--eps", "1/10", "--samples", "500",
        ])
        assert rc in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 500

    def test_stdin_source(self, q4_file, capsys, monkeypatch):
        import io
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"n": 4, "pmf": ["3/10", "0", "1/2", "1/5"]}')
        )
        rc = main(["test", "--p", "-", "--q", q4_file, "--n", "4", "--eps", "1/10"])
        assert rc == 0


class TestParserReuse:
    """One parser serves every call; nothing carries over between calls."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_sample_count_does_not_carry_over(self, p20_file, q4_file, capsys):
        argv = ["test", "--p", p20_file, "--q", q4_file, "--n", "20", "--eps", "1/10"]
        assert main([*argv, "--samples", "40"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["samples"] == 40
        assert main(argv) in (0, 1)
        default = math.ceil(DEFAULT_LEARN_CONSTANT * 4 / Fraction(1, 10) ** 2)
        assert json.loads(capsys.readouterr().out)["samples"] == default

    def test_refused_call_then_valid_call(self, p20_file, q4_file, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["test", "--p", p20_file, "--n", "20", "--eps", "1/10"])
        assert refused.value.code == 2
        assert "--q" in capsys.readouterr().err
        argv = ["test", "--p", p20_file, "--q", q4_file, "--n", "20", "--eps", "1/10"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "accept"


class TestDistanceCommands:
    def test_akdist(self, p20_file, q4_file, tmp_path, capsys):
        rc = main(["akdist", "--d1", p20_file, "--d2", p20_file, "--ell", "4"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["distance"] == "0"

    def test_coarse_dist(self, tmp_path, capsys, two_mode_p6, two_mode_q6):
        p = tmp_path / "p6.json"
        q = tmp_path / "q6.json"
        store_distribution(two_mode_p6, str(p))
        store_distribution(two_mode_q6, str(q))
        rc = main(["coarse-dist", "--p", str(p), "--q", str(q)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] == "0"
        assert payload["in_property"] is True


class TestFingerprintCommands:
    def test_fingerprint(self, capsys):
        rc = main(["fingerprint", "--samples", "12,7,98,7"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fingerprint"] == "2+1+1"

    def test_fingerprint_csv(self, capsys):
        rc = main(["fingerprint", "--samples", "5,5,5", "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("fingerprint")
        assert out[1].startswith("3")

    def test_moments_keys(self, tmp_path, capsys):
        path = tmp_path / "u2.json"
        store_distribution(Distribution.uniform(2), str(path))
        rc = main(["moments", "--d", str(path), "--s", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["moments"] == {"1+1": "1/2", "2": "1/2"}

    def test_moments_csv(self, tmp_path, capsys):
        path = tmp_path / "d3.json"
        store_distribution(Distribution(["1/2", "1/3", "1/6"]), str(path))
        rc = main(["moments", "--d", str(path), "--s", "2", "--format", "csv"])
        assert rc == 0
        assert capsys.readouterr().out == "composition,probability\n1+1,11/18\n2,7/18\n"


class TestHardInstanceCommands:
    def test_gen_hard_then_verify(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        rc = main(["gen-hard", "--m", "1", "--b", "4", "--rho", "1", "--out", str(out)])
        assert rc == 0
        pair = load_hard_pair(str(out))
        assert pair.k_prime == 2
        capsys.readouterr()
        rc = main(["verify-claim", "--pair", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["positive"] is True

    def test_gen_hard_without_a_pair_exit_two(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        assert main(["gen-hard", "--m", "1", "--b", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "binident: error: no moment-matched pair exists at m=1, b=2\n"
        assert not out.exists()

    def test_oversized_blowup_exit_two(self, tmp_path, capsys):
        argv = [
            "gen-hard", "--m", "1", "--b", "4", "--rho", "1",
            "--k-prime", "10000000", "--out", str(tmp_path / "pair.json"),
        ]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        assert "blowup_elements: 40000000" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-claim", "experiment"])
    def test_long_pair_file_exit_two(self, tmp_path, capsys, command):
        # m = 1 matches every pair, so only the string guard refuses a
        # b = 40 file; it does so before the moment tables and the shift test.
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({
            "m": 1, "b": 40, "rho": "99/100", "k_prime": 2,
            "x": "23" * 20, "y": "2" * 20 + "3" * 20,
        }))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "overflow-curve",
            "parameters": {"pair_file": str(pair), "s_grid": [2]},
        }))
        argv = {
            "verify-claim": ["verify-claim", "--pair", str(pair)],
            "experiment": ["experiment", "--spec", str(spec)],
        }[command]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        assert "hard_pair_strings" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [({"m": -3}, "m must be at least 1"), ({"x": None}, 'hard pair JSON must carry "x"')],
    )
    def test_bad_pair_file_exit_two(self, tmp_path, capsys, change, message):
        pair = tmp_path / "pair.json"
        assert main(["gen-hard", "--m", "1", "--b", "4", "--rho", "1", "--out", str(pair)]) == 0
        data = json.loads(pair.read_text())
        for key, value in change.items():
            if value is None:
                del data[key]
            else:
                data[key] = value
        pair.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify-claim", "--pair", str(pair)]) == 2
        assert capsys.readouterr().err == f"binident: error: {message}\n"

    def test_overflow(self, capsys):
        rc = main(["overflow", "--k", "100", "--s", "10", "--m", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["probability"] == "145251363454963/390625000000000"

    def test_overflow_refused_by_the_transition_guard(self, capsys):
        # The guard charges 128-bit word operations of the recurrence: this
        # cell costs 3 * 2000 * 219 = 1 314 000 and runs in milliseconds.  Its
        # terms have 7349 digits, past what int() reads from a string.
        assert main(["overflow", "--k", "10000", "--s", "2000", "--m", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        num, den = (int(Decimal(v)) for v in payload["probability"].split("/"))
        assert Fraction(num, den) == block_overflow_probability(10000, 2000, 3)
        assert main(["overflow", "--k", "1000000", "--s", "1000000", "--m", "3"]) == 2
        assert capsys.readouterr().err == (
            "binident: error: overflow_transitions: 468753000000 word operations"
            " exceeds budget 2000000 (override with BINIDENT_BUDGET)\n"
        )

    def test_overflow_at_m_zero_is_charged_per_throw(self, capsys):
        # No term survives at m = 0, but the recurrence still takes s steps
        # and k'**s still has s bits here: without a charge per step this
        # call would build a list of 10^9 entries.
        assert main(["overflow", "--k", "2", "--s", "1000000000", "--m", "0"]) == 2
        assert capsys.readouterr().err == (
            "binident: error: overflow_transitions: 7812501000000000 word operations"
            " exceeds budget 2000000 (override with BINIDENT_BUDGET)\n"
        )
        assert main(["overflow", "--k", "2", "--s", "3", "--m", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["probability"] == "1"


def spec_with(kind, **parameters):
    """A valid spec of the given kind with some parameters replaced."""
    return {"kind": kind, "parameters": {**RUNNER_PARAMETERS[kind], **parameters}}


def run_spec(tmp_path, capsys, spec):
    """Exit code and stderr of `binident experiment` on the given spec."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["experiment", "--spec", str(spec_path)])
    return rc, capsys.readouterr().err


class TestExperimentCommand:
    def test_runs_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "rows.csv"
        spec_path.write_text(json.dumps({
            "kind": "calibration",
            "parameters": {"n": 20, "k": 2, "epsilon": "1/4"},
            "master_seed": 1,
            "trials": 3,
            "output_path": str(out_path),
        }))
        rc = main(["experiment", "--spec", str(spec_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 3
        assert out_path.exists()

    def test_out_replaces_the_spec_output_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(json.dumps({
            "kind": "hard-pair-search",
            "parameters": {"m": 1, "b": 4},
            "output_path": "spec.csv",
        }))
        assert main(["experiment", "--spec", "spec.json", "--out", "rows.csv"]) == 0
        assert (tmp_path / "rows.csv").read_text() == (
            "kind,m,b,rho,shift_threshold,found,x,y\n"
            "hard-pair-search,1,4,99/100,4,1,2233,2323\n"
        )
        assert not (tmp_path / "spec.csv").exists()

    @pytest.mark.parametrize(
        "spec, message",
        [({"parameters": {"n": 8, "k": 2, "epsilon": "1/2"}}, 'spec JSON must carry "kind"'),
         ({"kind": "overflow-curve", "parameters": {"m": 1, "b": 4, "k_prime": 2}},
          'parameters need "s_grid"')],
    )
    def test_missing_key_named(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["experiment", "--spec", str(spec_path)]) == 2
        assert capsys.readouterr().err == f"binident: error: {message}\n"

    @pytest.mark.parametrize("value", [0, 3, True])
    @pytest.mark.parametrize(
        "kind, field",
        [("test-curve", "p_file"), ("test-curve", "q_file"),
         ("calibration", "p_file"), ("overflow-curve", "pair_file")],
    )
    def test_path_fields_must_be_strings(
        self, tmp_path, capsys, monkeypatch, kind, field, value
    ):
        # open() takes an int as a file descriptor: 0 would read stdin.
        def guard(file, *args, **kwargs):
            if isinstance(file, int):
                raise AssertionError(f"open() was handed descriptor {file}")
            return open(file, *args, **kwargs)

        monkeypatch.setattr(harness, "open", guard, raising=False)
        spec = spec_with(kind, **{field: value})
        spec["parameters"].pop(field.removesuffix("_file"), None)
        rc, err = run_spec(tmp_path, capsys, spec)
        assert (rc, err) == (2, f"binident: error: {field} must be a string, got {value!r}\n")

    @pytest.mark.parametrize(
        "spec, message",
        [({"kind": "hard-pair-search", "parameters": 5}, "parameters must be a mapping, got 5"),
         ({"kind": []}, "kind must be a string, got []"),
         (spec_with("overflow-curve", s_grid=5), "s_grid must be a list, got 5"),
         (spec_with("test-curve", epsilons=5), "epsilons must be a list, got 5"),
         (spec_with("test-curve", epsilons=["1/2", "abc"]),
          "epsilons[1] must be a rational number, got 'abc'"),
         (spec_with("calibration", epsilon=math.inf),
          "epsilon must be a rational number, got inf"),
         (spec_with("calibration", constant="abc"),
          "constant must be a rational number, got 'abc'"),
         (spec_with("hard-pair-search", rho=True), "rho must be a rational number, got True"),
         (spec_with("overflow-curve", rho=True), "rho must be a rational number, got True")],
    )
    def test_spec_shapes_and_rationals_name_their_field(self, tmp_path, capsys, spec, message):
        assert run_spec(tmp_path, capsys, spec) == (2, f"binident: error: {message}\n")

    @pytest.mark.parametrize(
        "spec, message",
        [(spec_with("calibration", p={"n": "abc", "pmf": ["1"]}),
          "p: n must be an integer, got 'abc'"),
         (spec_with("calibration", p={"n": 2.0, "pmf": ["1/2", "1/2"]}),
          "p: n must be an integer, got 2.0"),
         (spec_with("calibration", p=[1]), 'p: distribution JSON must carry "n" and "pmf"'),
         (spec_with("test-curve", q={"n": 1, "pmf": ["x"]}),
          "q: entry 1: not a rational string: 'x'"),
         (spec_with("test-curve", epsilons=[]), "epsilons must not be empty"),
         (spec_with("overflow-curve", s_grid=[]), "s_grid must not be empty")],
    )
    def test_inline_distributions_and_empty_lists_name_their_field(
        self, tmp_path, capsys, spec, message
    ):
        assert run_spec(tmp_path, capsys, spec) == (2, f"binident: error: {message}\n")

    def test_distribution_file_errors_name_the_file_field(self, tmp_path, capsys):
        p_path = tmp_path / "p.json"
        p_path.write_text(json.dumps({"n": 1.5, "pmf": ["1"]}))
        spec = spec_with("calibration", p_file=str(p_path))
        assert run_spec(tmp_path, capsys, spec) == (
            2, "binident: error: p_file: n must be an integer, got 1.5\n"
        )

    @pytest.mark.parametrize(
        "kind, field",
        [("test-curve", "p_file"), ("test-curve", "q_file"),
         ("calibration", "p_file"), ("overflow-curve", "pair_file")],
    )
    def test_missing_files_name_their_field(self, tmp_path, capsys, monkeypatch, kind, field):
        monkeypatch.chdir(tmp_path)
        spec = spec_with(kind, **{field: "nonexist.json"})
        spec["parameters"].pop(field.removesuffix("_file"), None)
        assert run_spec(tmp_path, capsys, spec) == (
            2, f"binident: error: {field}: [Errno 2] No such file or directory: 'nonexist.json'\n"
        )

    @pytest.mark.parametrize(
        "change, message",
        [({"m": None}, 'hard pair JSON must carry "m"'),
         ({"x": 2233}, "x must be a string, got 2233"),
         ({"b": 99}, "b must equal len(x) = 4, got 99")],
    )
    def test_pair_file_errors_name_the_field(self, tmp_path, capsys, change, message):
        data = {"m": 1, "b": 4, "rho": "1", "k_prime": 2, "x": "2233", "y": "2323", **change}
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
        spec = spec_with("overflow-curve", pair_file=str(pair))
        assert run_spec(tmp_path, capsys, spec) == (2, f"binident: error: pair_file: {message}\n")

    @pytest.mark.parametrize(
        "params, message",
        [({"n": 10**9}, "binning_cells: 2000000002 DP cells exceeds budget"),
         ({"n": 0, "k": 1}, "n must be at least 1, got 0"),
         ({"k": 0}, "k must lie in [1, n = 8], got 0"),
         ({"k": 9}, "k must lie in [1, n = 8], got 9"),
         ({"p": {"n": 2, "pmf": ["1/2", "1/2"]}, "k": 0}, "k must lie in [1, n = 2], got 0")],
    )
    def test_calibration_refuses_before_it_allocates(
        self, tmp_path, capsys, monkeypatch, params, message
    ):
        uniform = Distribution.uniform.__func__

        def guarded(cls, n):
            if n > 10**6:
                raise AssertionError(f"uniform({n}) would allocate {n} fractions")
            return uniform(cls, n)

        monkeypatch.setattr(Distribution, "uniform", classmethod(guarded))
        rc, err = run_spec(tmp_path, capsys, spec_with("calibration", **params))
        assert rc == 2 and err.startswith(f"binident: error: {message}")

# Flags that a subcommand would accept and then ignore are not offered.
REMOVED_FLAGS = [
    ("experiment", ["--format", "csv"]),
    *[(cmd, ["--exact"]) for cmd in
      ("fingerprint", "gen-hard", "verify-claim", "overflow", "experiment")],
    *[(cmd, ["--seed", "1"]) for cmd in
      ("akdist", "coarse-dist", "fingerprint", "moments", "gen-hard",
       "verify-claim", "overflow", "experiment")],
]


@pytest.mark.parametrize(
    "command, flag", REMOVED_FLAGS, ids=[f"{c}{f[0]}" for c, f in REMOVED_FLAGS]
)
def test_ignored_flags_are_refused(command, flag, tmp_path, capsys):
    path = str(tmp_path / "x.json")
    required = {
        "akdist": ["--d1", path, "--d2", path, "--ell", "2"],
        "coarse-dist": ["--p", path, "--q", path],
        "fingerprint": ["--samples", "1,2"],
        "moments": ["--d", path, "--s", "2"],
        "gen-hard": ["--m", "1", "--b", "4", "--out", path],
        "verify-claim": ["--pair", path],
        "overflow": ["--k", "2", "--s", "2", "--m", "1"],
        "experiment": ["--spec", path],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestExactFlag:
    def test_exact_mode_rejects_float_files(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"n": 2, "pmf": [0.5, 0.5]}')
        rc = main(["coarse-dist", "--p", str(path), "--q", str(path), "--exact"])
        assert rc == 2
        assert "exact mode" in capsys.readouterr().err
