"""Tests for exact distributions, sampling, and the distance operations."""

import ast
import math
import threading
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import binident
from binident import (
    Distribution,
    SampleSet,
    ak_distance,
    brute_force_ak_distance,
    empirical,
    kolmogorov_distance,
    sample,
    total_variation,
)
from binident.distributions import trial_seeds
from conftest import random_distribution


class TestDistributionConstruction:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError, match="deficit 1/100"):
            Distribution(["49/100", "1/2"])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution(["3/2", "-1/2"])

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            Distribution([])

    def test_prefix_structure(self, rng):
        for _ in range(20):
            d = random_distribution(rng, rng.randint(1, 9))
            assert d.prefix[0] == 0
            assert d.prefix[d.n] == 1
            for i in range(d.n):
                assert d.prefix[i + 1] - d.prefix[i] == d.pmf[i]

    def test_from_weights_normalizes(self):
        d = Distribution.from_weights([1, 2, 1])
        assert d.pmf == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))

    def test_point_mass_and_uniform(self):
        assert Distribution.point_mass(2, 3).pmf == (0, 1, 0)
        assert Distribution.uniform(2).pmf == (Fraction(1, 2), Fraction(1, 2))

    def test_mass_of_interval(self, staircase_p20):
        assert staircase_p20.mass(0, 8) == Fraction(3, 10)
        assert staircase_p20.mass(8, 17) == Fraction(1, 2)
        assert staircase_p20.mass(17, 20) == Fraction(1, 5)


class TestSampling:
    def test_point_mass_always_hits_the_point(self):
        d = Distribution.point_mass(3, 5)
        for seed in (0, 1, 123456789):
            assert sample(d, 4, seed).values == (3, 3, 3, 3)

    def test_zero_samples(self, staircase_p20):
        assert sample(staircase_p20, 0, 7).values == ()

    def test_determinism(self, staircase_p20):
        a = sample(staircase_p20, 50, 99)
        b = sample(staircase_p20, 50, 99)
        assert a.values == b.values

    def test_seed_is_reduced_to_64_bits(self, staircase_p20):
        a = sample(staircase_p20, 20, -1)
        b = sample(staircase_p20, 20, (1 << 64) - 1)
        assert a.values == b.values

    def test_uniform_two_frequency(self):
        d = Distribution.uniform(2)
        drawn = sample(d, 100_000, 1)
        freq = Fraction(sum(1 for v in drawn.values if v == 1), drawn.s)
        assert abs(freq - Fraction(1, 2)) < Fraction(1, 100)

    def test_zero_mass_elements_never_drawn(self):
        d = Distribution.from_weights([3, 0, 2, 0, 5])
        drawn = sample(d, 20_000, 5)
        assert set(drawn.values) <= {1, 3, 5}

    def test_negative_count_rejected(self, staircase_p20):
        with pytest.raises(ValueError, match="nonnegative"):
            sample(staircase_p20, -1, 0)

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (0, (1, 3, 3, 4, 4, 3, 6, 6, 3, 3, 6, 3)),
            (1, (4, 6, 3, 1, 6, 1, 6, 3, 4, 3, 3, 6)),
            (2**64 + 5, (6, 4, 3, 4, 3, 6, 6, 6, 6, 1, 1, 6)),
            (-1, (3, 6, 4, 6, 4, 6, 4, 4, 1, 1, 3, 3)),
        ],
    )
    def test_golden_streams(self, seed, expected):
        # Pinned draws: a faster sampler must reproduce these streams exactly,
        # including the skipped zero-mass elements 2 and 5 and seed reduction.
        d = Distribution.from_weights([1, 0, 2, 3, 0, 4])
        assert sample(d, 12, seed).values == expected


def reference_draws(d: Distribution, s: int, seed: int) -> tuple[int, ...]:
    """The documented rule: the smallest i with u < ceil(prefix[i] * 2**64)."""
    thresholds = [math.ceil(p * 2**64) for p in d.prefix[1:]]
    raws = np.random.Philox(key=seed % 2**64).random_raw(s)
    return tuple(bisect_right(thresholds, int(u)) + 1 for u in raws)


class TestSamplerEdgeCases:
    SEEDS = (0, 1, 7, 2**64 + 5, -1, 123456789)

    @pytest.mark.parametrize(
        "pmf",
        [
            ["1/3", "0", "2/3", "0", "0"],  # trailing zero masses: thresholds of 2^64
            ["1", "0", "0", "0"],           # point mass at element 1: no threshold kept
            ["0", "0", "0", "1"],           # point mass at element n
            ["1"],                          # n = 1
            [Fraction(2**70 - 1, 2**70), Fraction(1, 2**70)],  # last mass below 2^-64
            ["1/7", "2/7", "0", "3/7", "1/7"],
        ],
    )
    def test_matches_documented_rule(self, pmf):
        d = Distribution(pmf)
        for seed in self.SEEDS:
            assert sample(d, 300, seed).values == reference_draws(d, 300, seed)

    def test_matches_documented_rule_on_random_distributions(self, rng):
        for _ in range(40):
            d = random_distribution(rng, rng.randint(1, 12))
            seed = rng.randint(-(2**70), 2**70)
            assert sample(d, 200, seed).values == reference_draws(d, 200, seed)


class TestSamplerGenerator:
    """Each thread re-keys one generator; the streams stay Philox(key=seed mod 2^64)."""

    # Odd sizes leave a partly used 4-word buffer behind, which a re-key
    # must discard; 0 draws nothing at all.
    CALLS = [
        (seed, size)
        for size in (1, 3, 5, 0, 7)
        for seed in (0, -1, 2**64 - 1, 2**64 + 5, 123456789)
    ]
    D = Distribution(["1/7", "2/7", "0", "3/7", "1/7"])

    def test_interleaved_calls_match_documented_rule(self):
        for seed, size in self.CALLS:
            drawn = sample(self.D, size, seed)
            assert tuple(drawn.draws.tolist()) == reference_draws(self.D, size, seed)

    def test_same_streams_in_another_thread(self):
        expected = [reference_draws(self.D, size, seed) for seed, size in self.CALLS]
        drawn = []
        worker = threading.Thread(
            target=lambda: drawn.extend(
                sample(self.D, size, seed).values for seed, size in self.CALLS
            )
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert drawn == expected

    def test_at_most_one_generator_per_thread(self, monkeypatch):
        made = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            made.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        for seed in range(100):
            sample(self.D, 3, seed)
        assert len(made) <= 1


class TestEmpirical:
    def test_repeats_collapse_to_point_mass(self):
        d = empirical(SampleSet([3, 3, 3, 3]), 5)
        assert d == Distribution.point_mass(3, 5)

    def test_counts(self):
        d = empirical(SampleSet([1, 2, 2, 4]), 4)
        assert d.pmf == (Fraction(1, 4), Fraction(1, 2), 0, Fraction(1, 4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            empirical(SampleSet([]), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="exceeds domain"):
            empirical(SampleSet([5]), 4)

    def test_learning_in_interval_distance(self, staircase_p20):
        # 10^4 draws put the empirical distribution within interval distance
        # 0.1 of the source in at least 95 of 100 seeded runs.
        hits = 0
        for seed in range(100):
            p_hat = empirical(sample(staircase_p20, 10_000, seed), 20)
            if ak_distance(p_hat, staircase_p20, 4) <= Fraction(1, 10):
                hits += 1
        assert hits >= 95


class TestTotalVariation:
    def test_identity(self, staircase_p20):
        assert total_variation(staircase_p20, staircase_p20) == 0

    def test_disjoint_point_masses(self):
        d1 = Distribution.point_mass(1, 2)
        d2 = Distribution.point_mass(2, 2)
        assert total_variation(d1, d2) == 1

    def test_two_mode_vs_uniform(self, two_mode_p6):
        uniform = Distribution.uniform(6)
        oracle = sum(abs(a - b) for a, b in zip(two_mode_p6.pmf, uniform.pmf)) / 2
        value = total_variation(two_mode_p6, uniform)
        assert value == oracle == Fraction(127, 240)

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            total_variation(Distribution.uniform(2), Distribution.uniform(3))

    def test_metric_properties(self, rng):
        for _ in range(25):
            n = rng.randint(1, 6)
            a = random_distribution(rng, n)
            b = random_distribution(rng, n)
            c = random_distribution(rng, n)
            assert total_variation(a, b) == total_variation(b, a)
            assert total_variation(a, c) <= total_variation(a, b) + total_variation(b, c)
            assert (total_variation(a, b) == 0) == (a == b)
            assert 0 <= total_variation(a, b) <= 1


class TestIntervalDistance:
    def test_self_distance_zero(self, staircase_p20):
        for ell in (1, 2, 7, 20):
            assert ak_distance(staircase_p20, staircase_p20, ell) == 0

    def test_point_masses_two_intervals(self):
        d1 = Distribution.point_mass(1, 2)
        d2 = Distribution.point_mass(2, 2)
        assert ak_distance(d1, d2, 2) == 2
        assert brute_force_ak_distance(d1, d2, 2) == 2

    def test_full_split_equals_twice_total_variation(self, rng):
        for _ in range(50):
            n = rng.randint(1, 10)
            a = random_distribution(rng, n)
            b = random_distribution(rng, n)
            assert ak_distance(a, b, n) == 2 * total_variation(a, b)

    def test_monotone_in_interval_count(self, rng):
        for _ in range(15):
            n = rng.randint(2, 9)
            a = random_distribution(rng, n)
            b = random_distribution(rng, n)
            values = [ak_distance(a, b, ell) for ell in range(1, n + 1)]
            assert all(x <= y for x, y in zip(values, values[1:]))

    def test_two_intervals_dominate_kolmogorov(self, rng):
        for _ in range(20):
            n = rng.randint(2, 9)
            a = random_distribution(rng, n)
            b = random_distribution(rng, n)
            assert ak_distance(a, b, 2) == 2 * kolmogorov_distance(a, b)

    def test_matches_enumeration(self, rng):
        for _ in range(30):
            n = rng.randint(1, 8)
            ell = rng.randint(1, min(4, n))
            a = random_distribution(rng, n)
            b = random_distribution(rng, n)
            assert ak_distance(a, b, ell) == brute_force_ak_distance(a, b, ell)

    def test_interval_count_out_of_range(self):
        d = Distribution.uniform(3)
        with pytest.raises(ValueError, match="outside"):
            ak_distance(d, d, 0)
        with pytest.raises(ValueError, match="outside"):
            ak_distance(d, d, 4)

    def test_oracle_domain_mismatch(self):
        with pytest.raises(ValueError, match="domain sizes differ"):
            brute_force_ak_distance(Distribution.uniform(2), Distribution.uniform(3), 2)


class TestSampleSet:
    def test_values_below_one_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            SampleSet([0, 1])

    def test_size(self):
        assert SampleSet([5, 5, 2]).s == 3

    def test_array_input_stored_as_python_ints(self):
        got = SampleSet(np.array([3, 1, 2]))
        assert got.values == (3, 1, 2)
        assert all(type(v) is int for v in got.values)
        assert SampleSet(np.array([], dtype=np.int64)).s == 0
        with pytest.raises(ValueError, match="sample value 0 outside"):
            SampleSet(np.array([2, 0, 1]))

    def test_non_integer_list_values_rejected(self):
        with pytest.raises(ValueError, match="sample value 1.5 is not an integer"):
            SampleSet([1.5, 2.9])
        with pytest.raises(ValueError, match="sample value True is not an integer"):
            SampleSet([2, True])
        assert SampleSet([np.int64(2), 3]).values == (2, 3)

    def test_non_integer_arrays_rejected(self):
        with pytest.raises(ValueError, match="sample value 1.5 is not an integer"):
            SampleSet(np.array([1.5, 2.0]))
        with pytest.raises(ValueError, match="sample value True is not an integer"):
            SampleSet(np.array([True, True]))

    def test_draws_are_read_only_and_compare_by_values(self):
        source = np.array([3, 1, 2])
        got = SampleSet(source, seed=4)
        source[0] = 9
        assert got.values == (3, 1, 2)
        with pytest.raises(ValueError):
            got.draws[0] = 9
        same = SampleSet([3, 1, 2], seed=4)
        assert got == same and hash(got) == hash(same)
        assert got != SampleSet([3, 1, 2], seed=5)
        drawn = sample(Distribution.uniform(3), 20, 4)
        assert not drawn.draws.flags.writeable
        assert drawn == SampleSet(list(drawn.values), seed=4)

    def test_list_and_array_inputs_compare_on_draws(self):
        listed = SampleSet([4, 1, 4, 2], seed=9)
        arrayed = SampleSet(np.array([4, 1, 4, 2], dtype=np.uint8), seed=9)
        assert listed == arrayed and hash(listed) == hash(arrayed)
        assert listed != SampleSet([4, 1, 4, 2], seed=10)
        assert listed != SampleSet([4, 1, 4], seed=9)
        # Equality and hashing read the draw array, never the values tuple.
        assert "values" not in vars(listed) and "values" not in vars(arrayed)


class TestTrialSeeds:
    def test_values(self):
        assert trial_seeds(5, 3) == range(5, 8)
        assert list(trial_seeds(1 << 64, 2)) == [0, 1]

    def test_negative_master_seed_wraps_then_counts_on(self):
        assert list(trial_seeds(-1, 2)) == [(1 << 64) - 1, 1 << 64]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_at_least_one_trial(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            trial_seeds(0, trials)


def test_only_distributions_reduces_seeds():
    # Trial loops take their seeds from trial_seeds, so the reduction rule
    # has one owner.
    callers = set()
    for path in Path(binident.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(node, ast.Call) and name == "normalize_seed":
                callers.add(path.name)
    assert callers == {"distributions.py"}
