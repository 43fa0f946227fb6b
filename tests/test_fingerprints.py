"""Tests for ordered fingerprints and exact fingerprint probabilities."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from binident import (
    BudgetExceededError,
    Distribution,
    OrderedFingerprint,
    SampleSet,
    compositions,
    fingerprint_of,
    fingerprints_indistinguishable,
    moment,
    moment_vector,
    sample,
)
from conftest import random_distribution
from oracles import fingerprint_from_key, moment_exhaustive, reversed_distribution


def enumerate_fingerprint_table(d: Distribution, s: int) -> dict:
    """Oracle: walk all n^s ordered outcomes and tally their fingerprints."""
    table: Counter = Counter()
    for outcome in product(range(1, d.n + 1), repeat=s):
        prob = Fraction(1)
        for v in outcome:
            prob *= d.pmf[v - 1]
        if prob:
            table[fingerprint_of(SampleSet(outcome)).counts] += prob
    return dict(table)


class TestOrderedFingerprint:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            OrderedFingerprint([2, 0])
        with pytest.raises(ValueError, match="at least one"):
            OrderedFingerprint([])

    def test_key_round_trip(self):
        fp = OrderedFingerprint([2, 1, 1])
        assert fp.key() == "2+1+1"
        assert fingerprint_from_key("2+1+1") == fp
        assert fp.s == 4 and fp.t == 3

    def test_fingerprint_of_discards_labels(self):
        assert fingerprint_of(SampleSet([12, 7, 98, 7])).counts == (2, 1, 1)
        assert fingerprint_of(SampleSet([5, 5, 5])).counts == (3,)
        assert fingerprint_of(SampleSet([1, 2, 3])).counts == (1, 1, 1)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fingerprint_of(SampleSet([]))


class TestCompositions:
    def test_lexicographic_order(self):
        assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_counts(self):
        for s in range(1, 8):
            assert sum(1 for _ in compositions(s)) == 1 << (s - 1)

    def test_empty_composition_of_zero(self):
        assert list(compositions(0)) == [()]


class TestMoment:
    def test_uniform_pair(self):
        u2 = Distribution.uniform(2)
        table = enumerate_fingerprint_table(u2, 2)
        assert table == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}
        assert moment(u2, (2,)) == Fraction(1, 2)
        assert moment(u2, (1, 1)) == Fraction(1, 2)

    def test_point_mass(self):
        d = Distribution.point_mass(2, 4)
        for s in (1, 2, 5):
            assert moment(d, (s,)) == 1
        assert moment(d, (1, 1)) == 0
        assert moment(d, (2, 1, 1)) == 0

    def test_matches_outcome_enumeration(self, rng):
        for _ in range(10):
            d = random_distribution(rng, rng.randint(1, 4))
            s = rng.randint(1, 3)
            table = enumerate_fingerprint_table(d, s)
            for comp in compositions(s):
                assert moment(d, comp) == table.get(comp, Fraction(0))

    def test_matches_literal_summation(self, rng):
        for _ in range(25):
            d = random_distribution(rng, rng.randint(1, 8))
            s = rng.randint(1, 4)
            for comp in compositions(s):
                assert moment(d, comp) == moment_exhaustive(d, comp)

    def test_reversal_symmetry(self, rng):
        for _ in range(15):
            d = random_distribution(rng, rng.randint(1, 7))
            s = rng.randint(1, 4)
            for comp in compositions(s):
                assert moment(reversed_distribution(d), comp) == moment(d, comp[::-1])

    def test_order_preserving_relabeling_invariance(self, rng):
        # Spreading the support over a larger domain while preserving order
        # cannot change any fingerprint probability.
        for _ in range(10):
            d = random_distribution(rng, rng.randint(1, 5))
            positions = sorted(rng.sample(range(12), d.n))
            masses = [Fraction(0)] * 12
            for pos, v in zip(positions, d.pmf):
                masses[pos] = v
            embedded = Distribution(masses)
            for s in (1, 2, 3):
                assert moment_vector(embedded, s) == moment_vector(d, s)


class TestMomentVector:
    def test_single_draw(self, rng):
        d = random_distribution(rng, 5)
        assert moment_vector(d, 1).entries == (((1,), Fraction(1)),)

    def test_uniform_two(self):
        entries = dict(moment_vector(Distribution.uniform(2), 2).entries)
        assert entries == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}

    def test_entries_sum_to_one(self, rng):
        for _ in range(10):
            d = random_distribution(rng, rng.randint(1, 6))
            s = rng.randint(1, 5)
            vector = moment_vector(d, s)
            assert sum(v for _, v in vector.entries) == 1
            assert len(vector.entries) == 1 << (s - 1)

    def test_budget_guard_and_override(self, monkeypatch):
        d = Distribution.uniform(64)
        with pytest.raises(BudgetExceededError, match="DP cells"):
            moment_vector(d, 8)
        monkeypatch.setenv("BINIDENT_BUDGET", "50000")
        assert sum(v for _, v in moment_vector(d, 8).entries) == 1

    def test_budget_guard_fires_before_listing_compositions(self, monkeypatch):
        # The guard counts every part of every composition of s ...
        monkeypatch.setenv("BINIDENT_BUDGET", "1")
        for s in range(1, 9):
            cells = 4 * sum(len(c) for c in compositions(s))
            with pytest.raises(BudgetExceededError, match=f": {cells} DP cells"):
                moment_vector(Distribution.uniform(3), s)
        monkeypatch.delenv("BINIDENT_BUDGET")

        # ... without listing the 2^(s-1) compositions first.
        def refuse(s):
            raise AssertionError("compositions listed before the budget check")

        monkeypatch.setattr("binident.fingerprints.compositions", refuse)
        with pytest.raises(BudgetExceededError, match="DP cells"):
            moment_vector(Distribution.uniform(2), 20)

    def test_empirical_frequencies_match(self):
        d = Distribution.from_weights([1, 2, 3])
        s, runs = 3, 100_000
        drawn = sample(d, s * runs, 2024).values
        counts: Counter = Counter()
        for i in range(runs):
            counts[fingerprint_of(SampleSet(drawn[s * i : s * (i + 1)])).counts] += 1
        for comp, prob in moment_vector(d, s).entries:
            freq = Fraction(counts.get(comp, 0), runs)
            sigma_sq = prob * (1 - prob) / runs
            assert (freq - prob) ** 2 <= 16 * sigma_sq


class TestIndistinguishability:
    def test_identical(self, rng):
        d = random_distribution(rng, 5)
        result = fingerprints_indistinguishable(d, d, 3)
        assert result.indistinguishable and result.tv_gap == 0

    def test_point_masses_single_draw(self):
        d1 = Distribution.point_mass(1, 2)
        d2 = Distribution.point_mass(2, 2)
        result = fingerprints_indistinguishable(d1, d2, 1)
        assert result.indistinguishable and result.tv_gap == 0

    def test_uniform_vs_point_mass(self):
        result = fingerprints_indistinguishable(
            Distribution.uniform(2), Distribution.point_mass(1, 2), 2
        )
        assert not result.indistinguishable
        assert result.tv_gap == Fraction(1, 2)
