"""Tests for serialization and the experiment runner."""

import hashlib
import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from binident import (
    Distribution,
    ExperimentSpec,
    make_hard_instance,
    run_experiment,
)
from binident.harness import (
    distribution_from_json,
    distribution_to_json,
    experiment_spec_from_json,
    hard_pair_from_json,
    hard_pair_to_json,
    load_distribution,
    load_hard_pair,
    store_distribution,
    store_hard_pair,
)
from binident.distributions import trial_seeds
from binident.lowerbound import block_overflow_probability, block_overflow_trial
from conftest import random_distribution


class TestDistributionSerialization:
    def test_round_trip_is_exact(self, tmp_path, rng):
        for i in range(10):
            d = random_distribution(rng, rng.randint(1, 9), max_weight=50)
            path = tmp_path / f"d{i}.json"
            store_distribution(d, str(path))
            assert load_distribution(str(path), exact=True) == d

    def test_reference_file_loads(self, tmp_path, reference_q4):
        path = tmp_path / "q.json"
        path.write_text('{"n": 4, "pmf": ["3/10", "0", "1/2", "1/5"]}')
        assert load_distribution(str(path), exact=True) == reference_q4

    def test_deficit_reported_exactly(self):
        with pytest.raises(ValueError, match="deficit 1/100"):
            distribution_from_json({"n": 2, "pmf": ["49/100", "1/2"]})

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            distribution_from_json({"n": 2, "pmf": ["3/2", "-1/2"]})

    def test_exact_mode_rejects_numbers(self):
        with pytest.raises(ValueError, match="exact mode"):
            distribution_from_json({"n": 2, "pmf": [0.5, "1/2"]}, exact=True)

    def test_float_entries_accepted_otherwise(self):
        d = distribution_from_json({"n": 2, "pmf": [0.5, 0.5]})
        assert d == Distribution.uniform(2)

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError, match='"n" and "pmf"'):
            distribution_from_json({"pmf": ["1"]})
        with pytest.raises(ValueError, match="length"):
            distribution_from_json({"n": 3, "pmf": ["1"]})
        with pytest.raises(ValueError, match="rational string"):
            distribution_from_json({"n": 1, "pmf": ["one"]})
        for bad in ('{"n": 2, "pmf": [Infinity, 0]}', '{"n": 1, "pmf": [NaN]}'):
            with pytest.raises(ValueError, match="entry 1: not a finite number"):
                distribution_from_json(json.loads(bad))

    def test_json_uses_exact_strings(self, two_mode_p6):
        data = distribution_to_json(two_mode_p6)
        assert data["pmf"][1] == "2/5"


# A pair file as written before pair files dropped the four distributions.
OLDER_PAIR_FILE = {
    "m": 1, "b": 4, "rho": "1", "k_prime": 2, "x": "2233", "y": "2323",
    "p_base": {"n": 4, "pmf": ["1/5", "1/5", "3/10", "3/10"]},
    "q_base": {"n": 4, "pmf": ["1/5", "3/10", "1/5", "3/10"]},
    "p_big": {"n": 8, "pmf": ["1/10", "1/10", "3/20", "3/20", "1/10", "1/10", "3/20", "3/20"]},
    "q_big": {"n": 8, "pmf": ["1/10", "3/20", "1/10", "3/20", "1/10", "3/20", "1/10", "3/20"]},
}


class TestHardPairSerialization:
    def test_round_trip(self, tmp_path):
        pair = make_hard_instance(3, 12, 1, 2)
        path = tmp_path / "pair.json"
        store_hard_pair(pair, str(path))
        loaded = load_hard_pair(str(path))
        assert loaded == pair

    def test_file_holds_six_scalars(self, tmp_path):
        path = tmp_path / "pair.json"
        store_hard_pair(make_hard_instance(3, 12, 1, 2), str(path))
        assert json.loads(path.read_text()) == {
            "m": 3, "b": 12, "rho": "1", "k_prime": 2,
            "x": "222223323333", "y": "222232233333",
        }

    def test_older_file_loads_and_is_checked(self):
        assert hard_pair_from_json(OLDER_PAIR_FILE) == make_hard_instance(1, 4, 1, 2)
        tampered = {**OLDER_PAIR_FILE, "q_big": OLDER_PAIR_FILE["p_big"]}
        with pytest.raises(ValueError, match="stored q_big disagrees"):
            hard_pair_from_json(tampered)

    @pytest.mark.parametrize("key", ["x", "y"])
    @pytest.mark.parametrize("value", [2233, None, ["2233"]])
    def test_strings_must_be_strings(self, key, value):
        data = {**hard_pair_to_json(make_hard_instance(1, 4, 1, 2)), key: value}
        with pytest.raises(ValueError) as exc:
            hard_pair_from_json(data)
        assert str(exc.value) == f"{key} must be a string, got {value!r}"

    @pytest.mark.parametrize(
        "value, message",
        [(99, "b must equal len(x) = 4, got 99"), (6, "b must equal len(x) = 4, got 6"),
         ("junk", "b must be an integer, got 'junk'"), (4.0, "b must be an integer, got 4.0"),
         (True, "b must be an integer, got True")],
    )
    def test_b_must_be_the_length_of_x(self, value, message):
        data = {**hard_pair_to_json(make_hard_instance(1, 4, 1, 2)), "b": value}
        with pytest.raises(ValueError) as exc:
            hard_pair_from_json(data)
        assert str(exc.value) == message

    def test_b_may_be_left_out(self):
        data = hard_pair_to_json(make_hard_instance(1, 4, 1, 2))
        del data["b"]
        assert hard_pair_from_json(data) == make_hard_instance(1, 4, 1, 2)

    @pytest.mark.parametrize("m", [0, -3])
    def test_nonpositive_m_rejected(self, tmp_path, m):
        data = hard_pair_to_json(make_hard_instance(1, 4, 1, 2))
        data["m"] = m
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="m must be at least 1"):
            load_hard_pair(str(path))

    @pytest.mark.parametrize("key", ["m", "rho", "k_prime", "x", "y"])
    def test_missing_key_named(self, key):
        data = hard_pair_to_json(make_hard_instance(1, 4, 1, 2))
        del data[key]
        with pytest.raises(ValueError, match=f'hard pair JSON must carry "{key}"'):
            hard_pair_from_json(data)

    def test_tampered_distribution_rejected(self):
        pair = make_hard_instance(1, 4, 1, 2)
        data = hard_pair_to_json(pair)
        data["p_base"] = distribution_to_json(Distribution.uniform(4))
        with pytest.raises(ValueError, match="disagrees"):
            hard_pair_from_json(data)

    @pytest.mark.parametrize("value", [1.7, True, "3"])
    @pytest.mark.parametrize("key", ["m", "k_prime"])
    def test_integer_fields_are_strict(self, key, value):
        data = hard_pair_to_json(make_hard_instance(1, 4, 1, 2))
        data[key] = value
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
            hard_pair_from_json(data)

    def test_boolean_rho_refused(self):
        data = hard_pair_to_json(make_hard_instance(1, 4, 1, 2))
        data["rho"] = True
        with pytest.raises(TypeError, match="booleans"):
            hard_pair_from_json(data)


class TestExperimentSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentSpec("curve", {}, 0, 1, "out.csv")

    @pytest.mark.parametrize(
        "kind, parameters, message",
        [(["calibration"], {}, r"kind must be a string, got \['calibration'\]"),
         ("calibration", [("n", 8)], r"parameters must be a mapping, got \[\('n', 8\)\]"),
         ("overflow-curve", {"pair_file": 0}, "pair_file must be a string, got 0")],
    )
    def test_direct_specs_validated(self, kind, parameters, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(kind, parameters, 0, 1, "")

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentSpec("calibration", {}, 0, 0, "out.csv")

    def test_from_json_defaults(self):
        spec = experiment_spec_from_json({"kind": "hard-pair-search"})
        assert spec.master_seed == 0 and spec.trials == 1

    def test_missing_kind_named(self):
        with pytest.raises(ValueError, match='spec JSON must carry "kind"'):
            experiment_spec_from_json({"parameters": {}, "trials": 2})

    @pytest.mark.parametrize("value", [1.7, True, "3"])
    @pytest.mark.parametrize("key", ["master_seed", "trials"])
    def test_integer_fields_are_strict(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
            experiment_spec_from_json({"kind": "hard-pair-search", key: value})

    @pytest.mark.parametrize("value", [1.7, True, "3"])
    @pytest.mark.parametrize("key", ["master_seed", "trials"])
    def test_direct_integer_fields_are_strict(self, key, value):
        fields = {"master_seed": 0, "trials": 1, key: value}
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
            ExperimentSpec("calibration", {"n": 8, "k": 2, "epsilon": "1/2"}, output_path="",
                           **fields)

    @pytest.mark.parametrize("value", [1, None])
    def test_output_path_must_be_a_string(self, value):
        # An int would be opened as a file descriptor and closed after writing.
        with pytest.raises(ValueError, match=f"output_path must be a string, got {value}"):
            experiment_spec_from_json({"kind": "hard-pair-search", "output_path": value})


# A valid parameter set per kind; each test below changes one entry.
RUNNER_PARAMETERS = {
    "test-curve": {"p": {"n": 1, "pmf": ["1"]}, "q": {"n": 1, "pmf": ["1"]},
                   "epsilons": ["1/2"]},
    "calibration": {"n": 8, "k": 2, "epsilon": "1/2"},
    "overflow-curve": {"m": 1, "b": 4, "rho": "1", "k_prime": 2, "s_grid": [2]},
    "hard-pair-search": {"m": 1, "b": 4, "rho": "1"},
}


class TestRunnerParameters:
    @pytest.mark.parametrize("value", [1.7, True, "3"])
    @pytest.mark.parametrize(
        "kind, key",
        [("calibration", "n"), ("calibration", "k"), ("overflow-curve", "m"),
         ("overflow-curve", "b"), ("overflow-curve", "k_prime"),
         ("hard-pair-search", "m"), ("hard-pair-search", "b")],
    )
    def test_integers_are_strict(self, kind, key, value):
        params = {**RUNNER_PARAMETERS[kind], key: value}
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
            run_experiment(ExperimentSpec(kind, params, 0, 1, ""))

    @pytest.mark.parametrize("value", [1.7, True, "3"])
    def test_grid_entries_are_strict(self, value):
        params = {**RUNNER_PARAMETERS["overflow-curve"], "s_grid": [2, value]}
        message = rf"s_grid\[1\] must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=message):
            run_experiment(ExperimentSpec("overflow-curve", params, 0, 1, ""))

    @pytest.mark.parametrize(
        "kind, key",
        [(kind, key) for kind, params in RUNNER_PARAMETERS.items()
         for key in params if key not in ("p", "q", "rho")],
    )
    def test_missing_parameter_named(self, kind, key):
        params = dict(RUNNER_PARAMETERS[kind])
        del params[key]
        with pytest.raises(ValueError, match=f'parameters need "{key}"'):
            run_experiment(ExperimentSpec(kind, params, 0, 1, ""))


class TestRunExperiment:
    def test_calibration_rows_and_summary(self, tmp_path):
        out = tmp_path / "cal.csv"
        spec = ExperimentSpec(
            "calibration",
            {"n": 40, "k": 4, "epsilon": "1/5", "constant": "16"},
            master_seed=11,
            trials=5,
            output_path=str(out),
        )
        result = run_experiment(spec)
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:6] == [
            "kind", "n", "k", "epsilon", "constant", "master_seed"
        ]
        assert len(lines) == 6
        passed = sum(1 for row in result.rows if row[-1])
        assert result.summary["pass_fraction"] == str(Fraction(passed, 5))
        samples = {row[8] for row in result.rows}
        assert samples == {math.ceil(Fraction(16) * 4 / Fraction(1, 5) ** 2)}

    def test_rerun_is_bit_identical(self, tmp_path):
        out = tmp_path / "cal.csv"
        spec = ExperimentSpec(
            "calibration",
            {"n": 30, "k": 3, "epsilon": "1/4"},
            master_seed=2,
            trials=3,
            output_path=str(out),
        )
        run_experiment(spec)
        first = out.read_bytes()
        run_experiment(spec)
        assert out.read_bytes() == first

    def test_test_curve_with_inline_distributions(self, tmp_path):
        out = tmp_path / "curve.csv"
        spec = ExperimentSpec(
            "test-curve",
            {
                "p": {"n": 1, "pmf": ["1"]},
                "q": {"n": 2, "pmf": ["1/2", "1/2"]},
                "epsilons": ["1/10", "2/5"],
                "constant": "16",
            },
            master_seed=5,
            trials=4,
            output_path=str(out),
        )
        result = run_experiment(spec)
        assert len(result.rows) == 8
        assert result.summary["accept_rate"] == {"1/10": "0", "2/5": "0"}

    def test_overflow_curve(self, tmp_path):
        out = tmp_path / "overflow.csv"
        spec = ExperimentSpec(
            "overflow-curve",
            {"m": 1, "b": 4, "rho": "1", "k_prime": 10, "s_grid": [2, 4]},
            master_seed=3,
            trials=50,
            output_path=str(out),
        )
        result = run_experiment(spec)
        assert len(result.rows) == 100
        assert set(result.summary["overflow_fraction"]) == {"2", "4"}

    def test_overflow_curve_prints_probabilities_past_4300_digits(self, tmp_path):
        # An admitted cell whose exact probability has terms of 10 573
        # digits, which str() refuses to print.
        out = tmp_path / "overflow.csv"
        spec = ExperimentSpec(
            "overflow-curve",
            {"m": 1, "b": 4, "rho": "1", "k_prime": 10000, "s_grid": [3000]},
            master_seed=0,
            trials=1,
            output_path=str(out),
        )
        result = run_experiment(spec)
        printed = result.summary["exact_probability"]["3000"]
        num, den = (int(Decimal(v)) for v in printed.split("/"))
        assert Fraction(num, den) == block_overflow_probability(10000, 3000, 1)
        assert len(str(Decimal(den))) > 4300
        header, row = out.read_text().splitlines()
        assert row.split(",")[header.split(",").index("exact_probability")] == printed

    def test_overflow_seeds_follow_trial_seeds(self):
        spec = ExperimentSpec(
            "overflow-curve",
            {"m": 1, "b": 4, "rho": "1", "k_prime": 5, "s_grid": [2, 7]},
            master_seed=-2,
            trials=3,
            output_path="",
        )
        result = run_experiment(spec)
        pair = make_hard_instance(1, 4, 1, 5)
        seeds = list(trial_seeds(-2, 3))
        at = {c: result.columns.index(c) for c in ("s", "trial", "seed", "overflow")}
        assert [row[at["seed"]] for row in result.rows] == seeds * 2
        for row in result.rows:
            assert row[at["seed"]] == seeds[row[at["trial"]]]
            assert row[at["overflow"]] == block_overflow_trial(
                pair, row[at["s"]], row[at["seed"]]
            )

    def test_overflow_curve_without_a_pair(self):
        spec = ExperimentSpec(
            "overflow-curve",
            {"m": 1, "b": 2, "rho": "1", "k_prime": 5, "s_grid": [2]},
            master_seed=0,
            trials=1,
            output_path="",
        )
        with pytest.raises(ValueError, match="no moment-matched pair exists at m=1, b=2"):
            run_experiment(spec)

    def test_hard_pair_search(self, tmp_path):
        out = tmp_path / "search.csv"
        spec = ExperimentSpec(
            "hard-pair-search",
            {"m": 3, "b": 12, "rho": "1"},
            master_seed=0,
            trials=1,
            output_path=str(out),
        )
        result = run_experiment(spec)
        assert result.summary["found"] is True
        assert result.summary["x"] == "222223323333"

    def test_missing_distribution_parameters(self, tmp_path):
        spec = ExperimentSpec(
            "test-curve",
            {"epsilons": ["1/10"]},
            master_seed=0,
            trials=1,
            output_path=str(tmp_path / "x.csv"),
        )
        with pytest.raises(ValueError, match='"p"'):
            run_experiment(spec)

    @pytest.mark.parametrize(
        "epsilon, constant, message",
        [("2", "16", "epsilon must lie"), ("1/5", "0", "learn constant must be positive")],
    )
    def test_calibration_refuses_invalid_tester_settings(self, epsilon, constant, message):
        params = {"n": 20, "k": 2, "epsilon": epsilon, "constant": constant}
        with pytest.raises(ValueError, match=message):
            run_experiment(ExperimentSpec("calibration", params, 0, 1, ""))


# One small spec per experiment kind (plus the no-binning and not-found
# branches), with the sha256 of the CSV bytes and of the sorted-key JSON
# summary.  These pin the exact output, so a refactor of the runners or of
# the kernels below them cannot change a file silently.
GOLDEN_RUNS = {
    "test-curve": (
        "test-curve",
        {
            "p": {"n": 6, "pmf": ["1/20", "2/5", "1/20", "1/80", "37/80", "1/40"]},
            "q": {"n": 2, "pmf": ["1/2", "1/2"]},
            "epsilons": ["1/10", "1/2"],
            "constant": "1",
        },
        7,
        3,
        "4a496f0c68e9e76cde56c7a56f35bd5d48e65dc5d873d06422ac3555f1f21e5e",
        "b71987176665ded049db63bb2556e0d7664f6488d274b13f7bc0b2e259decc99",
    ),
    "test-curve-no-binning": (
        "test-curve",
        {
            "p": {"n": 1, "pmf": ["1"]},
            "q": {"n": 2, "pmf": ["1/2", "1/2"]},
            "epsilons": ["1/10", "2/5"],
        },
        5,
        2,
        "c359a2daec4e9fc4fd11f07ba089d51eec821a34143933810bfb421836c56a99",
        "224dbb30b2570a34428d02c9fd7de39f95d96a08fe7b494783d74f19fa3d4922",
    ),
    "overflow-curve": (
        "overflow-curve",
        {"m": 1, "b": 4, "rho": "1", "k_prime": 5, "s_grid": [0, 2, 4, 7]},
        3,
        6,
        "687ee695d526198f7ed067100939bd4b48829bca20605c8876e556a49a3cdeb8",
        "73b83be28e72753c59d8c47ddb9d40db69cd228471b260dab672b334d01cca4d",
    ),
    "calibration": (
        "calibration",
        {"n": 12, "k": 3, "epsilon": "1/2", "constant": "8"},
        11,
        4,
        "e1fcf967eb4eb83a84209ec4c9605d6d5407086dc9e57e82b10c328868b406e7",
        "61092d5d7d22a12def00a0c229b56eb27c4737058b54a6fd2a17d9712aa6a1f6",
    ),
    "hard-pair-search": (
        "hard-pair-search",
        {"m": 2, "b": 8, "rho": "3/4"},
        0,
        1,
        "ad9976610b9fe0b5ccdaa4d3f1e9abc090c98fa2d01b30cf0bc64b99f3f475a2",
        "d4f3a5478b69b0113fc41d97fac59e8a627012545a9dc36a7c9239c1a572688d",
    ),
    "hard-pair-search-none": (
        "hard-pair-search",
        {"m": 3, "b": 4, "rho": "1"},
        0,
        1,
        "d00d1fe416f9d827c18a05855217529b71b302fa30f87b2a52ecf0bcd1672598",
        "0ea0f25b83971f889ce7ca4977388d8725f0cf8ad50854b123362f13ee674b68",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_outputs(tmp_path, name):
    kind, params, seed, trials, csv_sha, summary_sha = GOLDEN_RUNS[name]
    out = tmp_path / f"{name}.csv"
    result = run_experiment(ExperimentSpec(kind, params, seed, trials, str(out)))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    summary = json.dumps(result.summary, sort_keys=True).encode()
    assert hashlib.sha256(summary).hexdigest() == summary_sha
