"""Tests for interval partitions, the discrepancy DP, and greedy repair."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binident import (
    BudgetExceededError,
    Distribution,
    InfeasibleBinningError,
    IntervalPartition,
    coarsening_distance,
    enumerate_partitions,
    greedy_repair,
    min_binned_discrepancy,
    total_variation,
)
from conftest import random_distribution, random_full_support
from oracles import brute_force_min_discrepancy, identity_partition, partition_discrepancy


class TestIntervalPartition:
    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            IntervalPartition([1, 2])
        with pytest.raises(ValueError, match="nondecreasing"):
            IntervalPartition([0, 3, 2, 5])

    def test_intervals_and_masses(self, staircase_p20):
        part = IntervalPartition([0, 8, 8, 17, 20])
        assert part.k == 4
        assert part.n == 20
        assert part.is_empty(1)
        assert part.masses(staircase_p20) == (
            Fraction(3, 10),
            Fraction(0),
            Fraction(1, 2),
            Fraction(1, 5),
        )

    def test_identity(self):
        assert identity_partition(3).bounds == (0, 1, 2, 3)


class TestEnumeration:
    def test_two_by_two(self):
        got = [p.bounds for p in enumerate_partitions(2, 2)]
        assert got == [(0, 0, 2), (0, 1, 2), (0, 2, 2)]

    def test_count_twenty_four(self):
        assert sum(1 for _ in enumerate_partitions(20, 4)) == 1771

    def test_single(self):
        assert [p.bounds for p in enumerate_partitions(1, 1)] == [(0, 1)]

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError, match="partitions"):
            list(enumerate_partitions(40, 20))

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(0, 1))


class TestMinBinnedDiscrepancy:
    def test_staircase_bins_exactly(self, staircase_p20, reference_q4):
        result = min_binned_discrepancy(staircase_p20, reference_q4, True)
        assert result.delta == 0
        assert partition_discrepancy(staircase_p20, result.witness, reference_q4) == 0
        masses = result.witness.masses(staircase_p20)
        assert masses[0] == Fraction(3, 10)
        assert masses[2] == Fraction(1, 2)
        assert masses[3] == Fraction(1, 5)

    def test_reference_to_itself_uses_identity(self, rng):
        for _ in range(10):
            d = random_full_support(rng, rng.randint(1, 7))
            result = min_binned_discrepancy(d, d, True)
            assert result.delta == 0
            assert result.witness == identity_partition(d.n)

    def test_single_element_against_two_bins(self):
        p = Distribution(["1"])
        q = Distribution(["1/2", "1/2"])
        result = min_binned_discrepancy(p, q, False)
        assert result.delta == 1
        oracle = brute_force_min_discrepancy(p, q, False)
        assert oracle.delta == 1

    def test_infeasible_nonemptiness(self):
        p = Distribution(["1"])
        q = Distribution(["1/2", "1/2"])
        with pytest.raises(InfeasibleBinningError, match="positive-mass bins"):
            min_binned_discrepancy(p, q, True)

    @pytest.mark.parametrize("scale", [7, 2**61 - 1])  # int64 and Python-int rows
    def test_sentinel_stays_out_of_delta(self, scale):
        # Three positive bins over three elements: every DP state off the
        # one-element-per-bin path holds the infeasibility sentinel.
        tip = Fraction(1, scale)
        p = Distribution([tip, 2 * tip, 1 - 3 * tip])
        q = Distribution(["1/2", "0", "1/4", "0", "1/4"])
        result = min_binned_discrepancy(p, q, True)
        assert result == brute_force_min_discrepancy(p, q, True)
        assert result.witness.bounds == (0, 1, 1, 2, 2, 3)
        assert result.delta <= 2
        with pytest.raises(InfeasibleBinningError, match="4 positive-mass bins"):
            min_binned_discrepancy(p, Distribution(["1/4"] * 4), True)

    def test_matches_enumeration_both_flags(self, rng):
        for _ in range(100):
            n = rng.randint(1, 8)
            k = rng.randint(1, 4)
            p = random_distribution(rng, n)
            q = random_distribution(rng, k)
            for flag in (False, True):
                if flag and sum(1 for v in q.pmf if v > 0) > n:
                    with pytest.raises(InfeasibleBinningError):
                        min_binned_discrepancy(p, q, flag)
                    continue
                got = min_binned_discrepancy(p, q, flag)
                want = brute_force_min_discrepancy(p, q, flag)
                assert got.delta == want.delta
                assert got.witness == want.witness

    def test_witness_reproduces_delta(self, rng):
        for _ in range(30):
            p = random_distribution(rng, rng.randint(1, 8))
            q = random_distribution(rng, rng.randint(1, 4))
            result = min_binned_discrepancy(p, q, False)
            assert partition_discrepancy(p, result.witness, q) == result.delta

    def test_minimum_bounds_any_partition(self, rng):
        for _ in range(20):
            n = rng.randint(1, 7)
            p = random_distribution(rng, n)
            q = random_distribution(rng, rng.randint(1, 4))
            best = coarsening_distance(p, q)
            for partition in enumerate_partitions(n, q.n):
                assert best <= partition_discrepancy(p, partition, q)


class TestBinningBudget:
    def test_refused_with_budget_message(self):
        # (4000 + 1) * 1000 DP cells, just over the default 4 * 10^6.
        p, q = Distribution.uniform(4000), Distribution.uniform(1000)
        for flag in (False, True):
            with pytest.raises(
                BudgetExceededError,
                match="binning_cells: 4001000 DP cells exceeds budget 4000000",
            ):
                min_binned_discrepancy(p, q, flag)
        with pytest.raises(BudgetExceededError, match="binning_cells"):
            coarsening_distance(p, q)

    def test_ceiling_counts_cells(self, monkeypatch):
        monkeypatch.setenv("BINIDENT_BUDGET", "20")
        q = Distribution.uniform(4)
        assert min_binned_discrepancy(Distribution.uniform(4), q, True).delta == 0
        with pytest.raises(BudgetExceededError, match="binning_cells: 24 DP cells"):
            min_binned_discrepancy(Distribution.uniform(5), q, True)

    def test_guard_fires_before_scaling(self, monkeypatch):
        def refuse(*vectors):
            raise AssertionError("masses scaled before the budget check")

        monkeypatch.setattr("binident.binning.to_integers", refuse)
        p, q = Distribution.uniform(4000), Distribution.uniform(1000)
        with pytest.raises(BudgetExceededError, match="DP cells"):
            min_binned_discrepancy(p, q, False)


class TestCoarseningDistance:
    def test_two_mode_instance(self, two_mode_p6, two_mode_q6):
        assert coarsening_distance(two_mode_p6, two_mode_q6) == 0

    def test_identity(self, rng):
        d = random_distribution(rng, 6)
        assert coarsening_distance(d, d) == 0

    def test_single_element(self):
        assert coarsening_distance(Distribution(["1"]), Distribution(["1/2", "1/2"])) == 1

    def test_zero_after_splitting_reference_mass(self, rng):
        # Spread every reference bin across a consecutive run of elements:
        # the coarsening distance back to the reference must vanish.
        for _ in range(10):
            k = rng.randint(1, 4)
            q = random_distribution(rng, k)
            masses = []
            for qj in q.pmf:
                parts = rng.randint(1, 3)
                weights = [rng.randint(1, 5) for _ in range(parts)]
                total = sum(weights)
                masses.extend(qj * w / total for w in weights)
            p = Distribution(masses)
            assert coarsening_distance(p, q) == 0


class TestGreedyRepair:
    def test_fixed_point(self, staircase_p20, reference_q4):
        witness = min_binned_discrepancy(staircase_p20, reference_q4, True).witness
        repaired = greedy_repair(staircase_p20, witness, reference_q4)
        assert repaired == staircase_p20

    def test_postconditions_on_random_instances(self, rng):
        for _ in range(50):
            p = random_distribution(rng, 6)
            q = random_full_support(rng, 3)
            cuts = sorted(rng.randint(1, 5) for _ in range(2))
            partition = IntervalPartition([0, *cuts, 6])
            if any(q.pmf[j] > 0 and partition.is_empty(j) for j in range(3)):
                with pytest.raises(InfeasibleBinningError):
                    greedy_repair(p, partition, q)
                continue
            repaired = greedy_repair(p, partition, q)
            assert partition.masses(repaired) == q.pmf
            gap = partition_discrepancy(p, partition, q)
            assert 2 * total_variation(p, repaired) == gap

    def test_under_full_empty_bin_rejected(self):
        p = Distribution(["1/2", "1/2"])
        q = Distribution(["1/2", "1/4", "1/4"])
        partition = IntervalPartition([0, 1, 1, 2])
        with pytest.raises(InfeasibleBinningError, match="under-full"):
            greedy_repair(p, partition, q)

    def test_deterministic(self, rng):
        p = random_distribution(rng, 6)
        q = random_full_support(rng, 2)
        partition = IntervalPartition([0, 3, 6])
        assert greedy_repair(p, partition, q) == greedy_repair(p, partition, q)

    def test_domain_mismatch(self):
        partition = IntervalPartition([0, 1, 3])
        q = Distribution.uniform(2)
        with pytest.raises(ValueError, match="domain sizes differ"):
            greedy_repair(Distribution.uniform(4), partition, q)


def pairing_repair(p, partition, q):
    """Repair oracle: pair the first over-full bin with the first under-full
    one and move the smaller of surplus and deficit, until no bin is off."""
    if partition.k != q.n:
        raise ValueError(f"partition has {partition.k} intervals, reference {q.n} bins")
    masses = list(partition.masses(p))
    for j in range(q.n):
        if masses[j] < q.pmf[j] and partition.is_empty(j):
            raise InfeasibleBinningError(
                f"bin {j + 1} is under-full but its interval is empty"
            )
    new = list(p.pmf)
    surplus = [m - qj for m, qj in zip(masses, q.pmf)]
    while True:
        j1 = next((j for j, v in enumerate(surplus) if v > 0), None)
        if j1 is None:
            break
        j2 = next(j for j, v in enumerate(surplus) if v < 0)
        delta = min(surplus[j1], -surplus[j2])
        lo, hi = partition.interval(j1)
        need = delta
        for e in range(hi - 1, lo - 1, -1):
            take = min(new[e], need)
            new[e] -= take
            need -= take
            if need == 0:
                break
        lo2, _ = partition.interval(j2)
        new[lo2] += delta
        surplus[j1] -= delta
        surplus[j2] += delta
    return Distribution(new)


# Weights with zeros, so both p and q can hold zero masses.
weight_lists = st.lists(st.integers(0, 4), min_size=1, max_size=8).filter(any)


@st.composite
def repair_cases(draw):
    p = Distribution.from_weights(draw(weight_lists))
    q = Distribution.from_weights(draw(weight_lists.filter(lambda w: len(w) <= 5)))
    cuts = draw(st.lists(st.integers(0, p.n), min_size=q.n - 1, max_size=q.n - 1))
    return p, IntervalPartition([0, *sorted(cuts), p.n]), q


def repair_outcome(repair, case):
    """The repaired distribution, or the message of the infeasibility error."""
    try:
        return repair(*case)
    except InfeasibleBinningError as exc:
        return str(exc)


# Feasible with an empty zero-target bin, then infeasible at the second bin.
@example((Distribution(["1/2", "0", "1/2"]), IntervalPartition([0, 2, 2, 3]),
          Distribution(["1/4", "0", "3/4"])))
@example((Distribution(["1/2", "1/2"]), IntervalPartition([0, 2, 2, 2]),
          Distribution(["1/2", "1/4", "1/4"])))
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=repair_cases())
def test_repair_matches_pairing_oracle(case):
    assert repair_outcome(greedy_repair, case) == repair_outcome(pairing_repair, case)
