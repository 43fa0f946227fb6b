"""Tests for the end-to-end binned identity tester."""

from fractions import Fraction

import pytest

from binident import (
    Distribution,
    SampleSet,
    TestConfig,
    accept_rate,
    ak_distance,
    bin_identity_test,
    error_curve,
    min_binned_discrepancy,
    sample,
)
from oracles import partition_discrepancy


class TestTestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            TestConfig(Fraction(0))
        with pytest.raises(ValueError, match="epsilon"):
            TestConfig(Fraction(3, 2))
        with pytest.raises(ValueError, match="constant"):
            TestConfig(Fraction(1, 2), learn_constant=0)

    def test_sample_budget(self):
        cfg = TestConfig(Fraction(1, 10))
        assert cfg.sample_budget(4) == 6400
        cfg = TestConfig(Fraction(3, 10), learn_constant=Fraction(16))
        # 16 * 5 / (9/100) = 8000/9, rounded up
        assert cfg.sample_budget(5) == 889

    def test_accept_threshold(self):
        cfg = TestConfig(Fraction(1, 5))
        assert cfg.accept_threshold == Fraction(1, 20)


class TestBinIdentityTest:
    def test_point_mass_accepts_trivially(self):
        d = Distribution(["1"])
        for seed in (0, 7):
            report = bin_identity_test(d, d, 1, TestConfig(Fraction(1, 2), seed=seed))
            assert report.accepted
            assert report.delta == 0

    def test_accepts_from_explicit_samples(self, staircase_p20, reference_q4):
        drawn = sample(staircase_p20, 5000, 31)
        cfg = TestConfig(Fraction(1, 10))
        report = bin_identity_test(drawn, reference_q4, 20, cfg)
        assert report.samples_used == 5000
        assert report.delta is not None

    def test_empty_sample_set_rejected(self, reference_q4):
        with pytest.raises(ValueError, match="empty"):
            bin_identity_test(SampleSet([]), reference_q4, 20, TestConfig(Fraction(1, 2)))

    def test_deterministic(self, staircase_p20, reference_q4):
        cfg = TestConfig(Fraction(1, 10), seed=12)
        a = bin_identity_test(staircase_p20, reference_q4, 20, cfg)
        b = bin_identity_test(staircase_p20, reference_q4, 20, cfg)
        assert a == b

    def test_unrealizable_reference_rejects(self):
        p = Distribution(["1"])
        q = Distribution(["1/2", "1/2"])
        report = bin_identity_test(p, q, 1, TestConfig(Fraction(1, 5), seed=3))
        assert report.verdict == "reject"
        assert report.delta is None
        assert report.witness is None

    def test_domain_size_mismatch(self, staircase_p20, reference_q4):
        with pytest.raises(ValueError, match="differs"):
            bin_identity_test(staircase_p20, reference_q4, 19, TestConfig(Fraction(1, 10)))

    def test_verdict_matches_threshold(self, staircase_p20, reference_q4):
        for seed in range(5):
            cfg = TestConfig(Fraction(1, 10), seed=seed)
            report = bin_identity_test(staircase_p20, reference_q4, 20, cfg)
            assert report.accepted == (report.delta <= cfg.accept_threshold)

    def test_synthetic_near_source_accepts(self, staircase_p20, reference_q4):
        # An estimate within interval distance eps/4 of a source that bins
        # exactly must always be accepted: its minimized discrepancy is at
        # most that interval distance.
        eps = Fraction(1, 10)
        masses = list(staircase_p20.pmf)
        shift = Fraction(1, 100)
        masses[0] += shift
        masses[1] -= shift
        p_hat = Distribution(masses)
        learned = ak_distance(p_hat, staircase_p20, 4)
        assert learned <= eps / 4
        delta = min_binned_discrepancy(p_hat, reference_q4, True).delta
        assert delta <= learned <= eps / 4

    def test_reported_delta_never_beats_fixed_partition(self, staircase_p20, reference_q4):
        witness = min_binned_discrepancy(staircase_p20, reference_q4, True).witness
        for seed in range(5):
            cfg = TestConfig(Fraction(1, 10), seed=seed)
            report = bin_identity_test(staircase_p20, reference_q4, 20, cfg)
            fixed = partition_discrepancy(report.p_hat, witness, reference_q4)
            assert report.delta <= fixed


class TestErrorCurve:
    def test_deterministic_table(self):
        p = Distribution.uniform(4)
        q = Distribution(["1/2", "1/2"])
        rows_a = error_curve(p, q, [Fraction(1, 5)], 3, master_seed=9)
        rows_b = error_curve(p, q, [Fraction(1, 5)], 3, master_seed=9)
        assert rows_a == rows_b

    def test_trial_seeds_offset_from_master(self):
        p = Distribution.uniform(2)
        rows = error_curve(p, p, [Fraction(1, 2)], 4, master_seed=100)
        assert [r["seed"] for r in rows] == [100, 101, 102, 103]

    def test_binnable_source_accepts_often(self):
        # C = 16 leaves this instance right at the 5/6 bar; the calibrated
        # constant 64 puts the accept rate near 1 across the whole grid.
        p = Distribution.uniform(4)
        q = Distribution(["1/2", "1/2"])
        epsilons = [Fraction(1, 10), Fraction(1, 5), Fraction(2, 5)]
        rows = error_curve(p, q, epsilons, 30, master_seed=0, learn_constant=64)
        for eps in epsilons:
            assert accept_rate(rows, eps) >= Fraction(5, 6)

    def test_unrealizable_source_never_accepts(self):
        p = Distribution(["1"])
        q = Distribution(["1/2", "1/2"])
        epsilons = [Fraction(1, 10), Fraction(1, 5), Fraction(2, 5)]
        rows = error_curve(p, q, epsilons, 20, master_seed=4)
        for eps in epsilons:
            assert accept_rate(rows, eps) == 0

    def test_accept_rate_needs_matching_rows(self):
        p = Distribution.uniform(2)
        rows = error_curve(p, p, [Fraction(1, 2)], 2, master_seed=0)
        with pytest.raises(ValueError, match="no rows"):
            accept_rate(rows, Fraction(1, 3))
