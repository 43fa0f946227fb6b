"""Tests for hard-instance construction: strings, shifts, search, blow-ups."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binident import (
    BudgetExceededError,
    HardInstancePair,
    MassString,
    balanced_strings,
    block_construct,
    block_overflow_probability,
    find_hard_pair,
    fingerprints_indistinguishable,
    is_partial_cyclic_shift,
    make_hard_instance,
    moment_vector,
    sample_size_curve,
    verify_distance_claim,
)


class TestMassString:
    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            MassString("223")
        with pytest.raises(ValueError, match="alphabet|drawn from"):
            MassString("2241")
        with pytest.raises(ValueError, match="equally many"):
            MassString("2223")

    def test_to_distribution(self):
        d = MassString("2233").to_distribution()
        assert d.pmf == (
            Fraction(1, 5), Fraction(1, 5), Fraction(3, 10), Fraction(3, 10)
        )
        assert set(d.pmf) == {Fraction(4, 20), Fraction(6, 20)}

    def test_rotation(self):
        assert MassString("2233").rotated(2).symbols == "3322"
        assert MassString("2233").rotated(0).symbols == "2233"


class TestBalancedStrings:
    def test_small_enumeration(self):
        got = [s.symbols for s in balanced_strings(4)]
        assert got == ["2233", "2323", "2332", "3223", "3232", "3322"]

    def test_count_and_order(self):
        strings = [s.symbols for s in balanced_strings(12)]
        assert len(strings) == math.comb(12, 6) == 924
        assert strings == sorted(strings)

    def test_matches_product_oracle(self):
        for b in range(2, 15, 2):
            words = ("".join(w) for w in product("23", repeat=b))
            oracle = sorted(w for w in words if w.count("2") == w.count("3"))
            assert [s.symbols for s in balanced_strings(b)] == oracle

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError, match="strings"):
            list(balanced_strings(22))

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            list(balanced_strings(5))


def lcs_with_pairs(a: str, c: str) -> list[tuple[int, int]]:
    """Oracle: quadratic LCS table with a deterministic backtrack that
    prefers the diagonal on a match, otherwise drops the a-index first."""
    la, lc = len(a), len(c)
    table = [[0] * (lc + 1) for _ in range(la + 1)]
    for i in range(la - 1, -1, -1):
        row, nxt = table[i], table[i + 1]
        for j in range(lc - 1, -1, -1):
            if a[i] == c[j]:
                row[j] = nxt[j + 1] + 1
            else:
                row[j] = max(nxt[j], row[j + 1])
    pairs = []
    i = j = 0
    while i < la and j < lc:
        if a[i] == c[j] and table[i][j] == table[i + 1][j + 1] + 1:
            pairs.append((i, j))
            i += 1
            j += 1
        elif table[i + 1][j] >= table[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def witness(x: MassString, y: MassString, rotation: int) -> list[tuple[int, int]]:
    """The oracle's matched (i in x, j in y) pairs at the given rotation of y."""
    pairs = lcs_with_pairs(x.symbols, y.rotated(rotation).symbols)
    return [(i, (j + rotation) % y.b) for i, j in pairs]


class TestPartialCyclicShift:
    def test_identity_full_shift(self):
        x = MassString("232323")
        result = is_partial_cyclic_shift(x, x, 6)
        assert result.is_shift and result.rotation == 0
        assert len(witness(x, x, result.rotation)) == 6

    def test_rotation_detected(self):
        result = is_partial_cyclic_shift(MassString("2233"), MassString("3322"), 4)
        assert result.is_shift and result.rotation == 2

    def test_partial_threshold(self):
        x = MassString("2323")
        y = MassString("2233")
        assert not is_partial_cyclic_shift(x, y, 4).is_shift
        assert is_partial_cyclic_shift(x, y, 3).is_shift

    def test_witness_is_valid(self):
        x = MassString("223233")
        y = MassString("232233")
        result = is_partial_cyclic_shift(x, y, 5)
        assert result.is_shift
        matches = witness(x, y, result.rotation)
        assert len(matches) >= 5
        xs = [i for i, _ in matches]
        assert xs == sorted(xs)
        for i, j in matches:
            assert x.symbols[i] == y.symbols[j]

    def test_full_shift_symmetric(self):
        rng = random.Random(17)
        for _ in range(15):
            pool = list(balanced_strings(6))
            x = rng.choice(pool)
            y = rng.choice(pool)
            assert (
                is_partial_cyclic_shift(x, y, 6).is_shift
                == is_partial_cyclic_shift(y, x, 6).is_shift
            )

    def test_monotone_in_threshold(self):
        rng = random.Random(23)
        pool = list(balanced_strings(6))
        for _ in range(10):
            x, y = rng.choice(pool), rng.choice(pool)
            flags = [is_partial_cyclic_shift(x, y, r).is_shift for r in range(7)]
            assert all(a >= b for a, b in zip(flags, flags[1:]))

    def test_threshold_above_length_rejected(self):
        x = MassString("2233")
        with pytest.raises(ValueError, match="exceeds"):
            is_partial_cyclic_shift(x, x, 5)


# Pairs of balanced strings of one length b <= 40.
balanced_pairs = st.integers(1, 20).flatmap(
    lambda h: st.tuples(*[st.permutations("23" * h).map("".join)] * 2)
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(pair=balanced_pairs)
@example(pair=("22222222233233333333", "22222222322333333333"))  # golden (3, 20)
@example(pair=("2" * 20 + "3" * 20, "23" * 20))
def test_shift_test_matches_lcs_oracle(pair):
    # For every r in 0..b: the first rotation whose oracle LCS reaches r.
    x, y = map(MassString, pair)
    lengths = [len(lcs_with_pairs(x.symbols, y.rotated(o).symbols)) for o in range(x.b)]
    for r in range(x.b + 1):
        first = next((o for o, n in enumerate(lengths) if n >= r), None)
        result = is_partial_cyclic_shift(x, y, r)
        assert (result.is_shift, result.rotation) == (first is not None, first)


class TestFindHardPair:
    def test_single_draw_any_non_rotation_works(self):
        found = find_hard_pair(1, 4, 1)
        assert found is not None
        x, y = found
        assert x.symbols == "2233" and y.symbols == "2323"
        assert not is_partial_cyclic_shift(x, y, 4).is_shift

    def test_two_draws_all_balanced_strings_agree(self):
        # Every balanced string shares both 2-draw fingerprint sums, so the
        # search only has to avoid rotations.
        vectors = {
            moment_vector(s.to_distribution(), 2).entries
            for s in balanced_strings(6)
        }
        assert len(vectors) == 1
        found = find_hard_pair(2, 6, 1)
        assert found is not None

    def test_three_draws_needs_search(self):
        found = find_hard_pair(3, 12, 1)
        assert found is not None
        x, y = found
        assert (x.symbols, y.symbols) == ("222223323333", "222232233333")
        for s in (1, 2, 3):
            assert moment_vector(x.to_distribution(), s) == moment_vector(
                y.to_distribution(), s
            )
        assert not is_partial_cyclic_shift(x, y, 12).is_shift

    def test_rho_validated(self):
        with pytest.raises(ValueError, match="rho"):
            find_hard_pair(1, 4, 2)

    def test_moment_budget_checked_before_listing_compositions(self, monkeypatch):
        # The same table HardInstancePair.build checks: m = 11 fits at b = 2.
        assert find_hard_pair(11, 2, 1) is None
        with pytest.raises(BudgetExceededError, match="DP cells"):
            find_hard_pair(12, 2, 1)

        def refuse(s):
            raise AssertionError("compositions listed before the budget check")

        monkeypatch.setattr("binident.lowerbound.compositions", refuse)
        with pytest.raises(BudgetExceededError, match="DP cells"):
            find_hard_pair(30, 2, 1)


# The lexicographically first moment-matched non-shift pair at rho = 1, on
# every (m, b) cell the benchmark lab and the tests search, plus (3, 20).
GOLDEN_PAIRS = {
    (1, 4): ("2233", "2323"),
    (1, 6): ("222333", "223233"),
    (2, 6): ("222333", "223233"),
    (3, 6): ("223332", "232323"),
    (3, 8): ("22233233", "22322333"),
    (1, 10): ("2222233333", "2222323333"),
    (1, 12): ("222222333333", "222223233333"),
    (1, 14): ("22222223333333", "22222232333333"),
    (1, 16): ("2222222233333333", "2222222323333333"),
    (2, 10): ("2222233333", "2222323333"),
    (2, 12): ("222222333333", "222223233333"),
    (2, 14): ("22222223333333", "22222232333333"),
    (2, 16): ("2222222233333333", "2222222323333333"),
    (3, 10): ("2222332333", "2223223333"),
    (3, 12): ("222223323333", "222232233333"),
    (3, 14): ("22222233233333", "22222322333333"),
    (3, 16): ("2222222332333333", "2222223223333333"),
    (3, 18): ("222222223323333333", "222222232233333333"),
    (3, 20): ("22222222233233333333", "22222222322333333333"),
    (4, 10): ("2223332233", "2232233323"),
    (4, 12): ("222233322333", "222322333233"),
    (4, 14): ("22222333223333", "22223223332333"),
    (4, 16): ("2222223332233333", "2222232233323333"),
    (5, 14): ("22233322323332", "22322332333223"),
}


class TestGoldenPairs:
    @pytest.mark.parametrize("cell", sorted(GOLDEN_PAIRS), ids=lambda c: f"m{c[0]}_b{c[1]}")
    def test_first_pair_pinned(self, cell):
        x, y = find_hard_pair(*cell, 1)
        assert (x.symbols, y.symbols) == GOLDEN_PAIRS[cell]

    def test_no_pair_at_b_2(self):
        assert find_hard_pair(11, 2, 1) is None

    def test_string_budget_refuses_b_22(self):
        with pytest.raises(BudgetExceededError, match="strings"):
            find_hard_pair(1, 22, 1)


class TestBlockConstruct:
    def test_single_block_is_identity(self):
        p = MassString("2233").to_distribution()
        q = MassString("2323").to_distribution()
        p_big, q_big = block_construct(p, q, 1)
        assert p_big == p and q_big == q

    def test_blocks_carry_equal_mass(self):
        p = MassString("2233").to_distribution()
        q = MassString("2323").to_distribution()
        p_big, _ = block_construct(p, q, 3)
        assert p_big.n == 12
        for i in range(3):
            assert p_big.mass(4 * i, 4 * (i + 1)) == Fraction(1, 3)
        b, k_prime = 4, 3
        assert set(p_big.pmf) <= {
            Fraction(4, 5 * b * k_prime), Fraction(6, 5 * b * k_prime)
        }

    def test_blowup_elements_guard(self):
        # Refused before any of the 4 * 10^7 masses is built.
        d = MassString("2233").to_distribution()
        with pytest.raises(
            BudgetExceededError, match="blowup_elements: 40000000 blown-up elements"
        ):
            block_construct(d, d, 10**7)

    def test_blockwise_fingerprint_equality_survives(self):
        pair = make_hard_instance(3, 12, 1, 2)
        for s in (1, 2, 3):
            result = fingerprints_indistinguishable(pair.p_big, pair.q_big, s)
            assert result.indistinguishable and result.tv_gap == 0


class TestHardInstancePair:
    def test_build_rejects_rotations(self):
        x = MassString("2233")
        with pytest.raises(ValueError, match="cyclic shifts"):
            HardInstancePair.build(x, x.rotated(2), 1, 1, 2)

    @pytest.mark.parametrize(
        "m, rho, message",
        [(0, 1, "m must be at least 1"), (-3, 1, "m must be at least 1"),
         (1, 0, r"rho must lie in \(0, 1\]"), (1, "3/2", r"rho must lie in \(0, 1\]")],
    )
    def test_build_checks_m_and_rho_as_the_search_does(self, m, rho, message):
        x, y = MassString("2233"), MassString("2323")
        with pytest.raises(ValueError, match=message):
            find_hard_pair(m, 4, rho)
        with pytest.raises(ValueError, match=message):
            HardInstancePair.build(x, y, m, rho, 2)

    def test_build_rejects_moment_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            HardInstancePair.build(MassString("2233"), MassString("2323"), 3, 1, 2)

    def test_distance_of_blowup(self):
        pair = make_hard_instance(3, 12, 1, 2)
        value = verify_distance_claim(pair)
        assert value == Fraction(2, 15)
        assert value > 0

    def test_identical_bases_have_zero_distance(self):
        x = MassString("2233")
        d = x.to_distribution()
        p_big, q_big = block_construct(d, d, 2)
        pair = HardInstancePair(1, 4, Fraction(1), x, x, 2, d, d, p_big, q_big)
        assert verify_distance_claim(pair) == 0

    @pytest.mark.parametrize(
        "k_prime, distance", [(17, Fraction(19, 255)), (166, Fraction(28, 415))]
    )
    def test_blowup_distance_law(self, k_prime, distance):
        # The (3,12) pair's blow-up sits at 1/15 + 2/(15k') for every k' >= 2.
        x, y = find_hard_pair(3, 12, 1)
        pair = HardInstancePair.build(x, y, 3, 1, k_prime)
        assert distance == Fraction(1, 15) + Fraction(2, 15 * k_prime)
        assert verify_distance_claim(pair) == distance

    def test_binning_cells_bound_the_claim(self):
        # n = 12 * 167 = 2004 elements need (n + 1) * n DP cells.
        x, y = find_hard_pair(3, 12, 1)
        pair = HardInstancePair.build(x, y, 3, 1, 167)
        with pytest.raises(
            BudgetExceededError, match="binning_cells: 4018020 DP cells"
        ):
            verify_distance_claim(pair)


class TestBlockOverflow:
    def test_impossible_overflow(self):
        assert block_overflow_probability(10, 3, 5) == 0

    def test_certain_overflow_single_block(self):
        assert block_overflow_probability(1, 3, 2) == 1

    def test_birthday_closed_form(self):
        got = block_overflow_probability(100, 10, 1)
        stay_distinct = Fraction(1)
        for i in range(10):
            stay_distinct *= 1 - Fraction(i, 100)
        assert got == 1 - stay_distinct

    def test_monotone_in_block_count(self):
        values = [block_overflow_probability(k, 6, 1) for k in (5, 10, 20, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            block_overflow_probability(0, 3, 1)
        with pytest.raises(ValueError):
            block_overflow_probability(5, -1, 1)


def block_dp_no_overflow(k_prime, s, m):
    """Throws of s labeled balls into k' blocks with none over m, one block at
    a time: k'*(s+1)*(m+1) binomial transitions."""
    ways = [1] + [0] * s
    for _ in range(k_prime):
        nxt = [0] * (s + 1)
        for r in range(s + 1):
            for c in range(min(m, s - r) + 1):
                nxt[r + c] += ways[r] * math.comb(r + c, c)
        ways = nxt
    return ways[s]


def enumerated_no_overflow(k_prime, s, m):
    """The same count over all k'^s throws."""
    throws = product(range(k_prime), repeat=s)
    return sum(max(Counter(t).values(), default=0) <= m for t in throws)


# Half the cells are small enough (k'^s <= 4096) to enumerate every throw.
small_cells = st.tuples(st.integers(1, 8), st.integers(0, 12)).filter(
    lambda ks: ks[0] ** ks[1] <= 4096
)
wide_cells = st.tuples(st.integers(1, 40), st.integers(0, 45))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(cell=small_cells | wide_cells, m=st.integers(0, 7))
@example(cell=(5, 3), m=0)
@example(cell=(1, 9), m=4)
@example(cell=(7, 4), m=3)
@example(cell=(3, 7), m=2)
def test_overflow_law_matches_both_oracles(cell, m):
    k_prime, s = cell
    got = block_overflow_probability(k_prime, s, m)
    assert got == 1 - Fraction(block_dp_no_overflow(k_prime, s, m), k_prime**s)
    if k_prime**s <= 4096:
        assert got == 1 - Fraction(enumerated_no_overflow(k_prime, s, m), k_prime**s)
    if s > k_prime * m:
        assert got == 1


@pytest.fixture(scope="module")
def small_pair():
    return make_hard_instance(1, 4, 1, 20)


class TestSampleSizeCurve:
    def test_below_threshold_fraction_zero(self, small_pair):
        rows = sample_size_curve(small_pair, [0, 1], 50, seed=3)
        assert [r["overflow_fraction"] for r in rows] == [0, 0]

    def test_matches_exact_probability(self, small_pair):
        rows = sample_size_curve(small_pair, [2, 4, 8], 2000, seed=11)
        for row in rows:
            p = row["exact_probability"]
            sigma_sq = p * (1 - p) / row["trials"]
            assert (row["overflow_fraction"] - p) ** 2 <= 9 * sigma_sq

    def test_monotone_in_sample_count(self, small_pair):
        rows = sample_size_curve(small_pair, [2, 4, 6, 8], 300, seed=5)
        fractions = [r["overflow_fraction"] for r in rows]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_deterministic(self, small_pair):
        a = sample_size_curve(small_pair, [3, 5], 100, seed=9)
        b = sample_size_curve(small_pair, [3, 5], 100, seed=9)
        assert a == b
