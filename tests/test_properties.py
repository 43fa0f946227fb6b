"""Property tests: the fast exact kernels against their enumeration oracles."""

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binident import (
    Distribution,
    HardInstancePair,
    InfeasibleBinningError,
    IntervalPartition,
    MassString,
    SampleSet,
    ak_distance,
    block_construct,
    brute_force_ak_distance,
    coarsening_distance,
    compositions,
    empirical,
    fingerprint_of,
    greedy_repair,
    min_binned_discrepancy,
    moment_vector,
    sample,
    total_variation,
)
from binident.distributions import prefix_sums, to_integers
from binident.fingerprints import multinomial, raw_moment_sums
from binident.lowerbound import block_overflow_trial
from binident.harness import distribution_from_json, distribution_to_json
from oracles import (
    brute_force_min_discrepancy,
    moment_exhaustive,
    partition_discrepancy,
    reversed_distribution,
)

# Fixed example sequences keep the suite reproducible run to run.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


def weight_vectors(max_n: int, max_weight: int) -> st.SearchStrategy[list[int]]:
    """Nonnegative integer vectors of a uniformly drawn length, not all zero.

    About half the entries are zero: runs of zero masses are where the
    split and the window start of the DP part ways.
    """
    entry = st.just(0) | st.integers(1, max_weight)
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(entry, min_size=n, max_size=n)
    ).filter(any)


def distributions(max_n: int, max_weight: int = 6) -> st.SearchStrategy[Distribution]:
    """Distributions from integer weights, zero masses included."""
    return weight_vectors(max_n, max_weight).map(Distribution.from_weights)


def empirical_like(max_n: int, max_count: int) -> st.SearchStrategy[Distribution]:
    """Count vectors over s draws, as the tester feeds the DP."""
    return weight_vectors(max_n, max_count).map(
        lambda c: Distribution([Fraction(v, sum(c)) for v in c])
    )


@settings(PROPERTY, max_examples=300)
@given(p=distributions(10) | empirical_like(10, 12), q=distributions(5), flag=st.booleans())
@example(p=Distribution(["1/2", "1/2"]), q=Distribution(["1/3", "0", "1/3", "1/3"]), flag=True)
def test_dp_matches_enumeration(p, q, flag):
    try:
        want = brute_force_min_discrepancy(p, q, flag)
    except InfeasibleBinningError:
        with pytest.raises(InfeasibleBinningError):
            min_binned_discrepancy(p, q, flag)
        return
    got = min_binned_discrepancy(p, q, flag)
    assert got.delta == want.delta
    assert got.witness == want.witness


@settings(PROPERTY, max_examples=40)
@given(p=distributions(300, 20) | empirical_like(300, 8), q=distributions(30, 9))
def test_witness_reproduces_delta_at_scale(p, q):
    for flag in (False, True):
        if flag and sum(1 for v in q.pmf if v > 0) > p.n:
            continue
        result = min_binned_discrepancy(p, q, flag)
        assert partition_discrepancy(p, result.witness, q) == result.delta
        if flag:
            assert not any(
                q.pmf[j] > 0 and result.witness.is_empty(j) for j in range(q.n)
            )


# The oracle walks C(n + ell - 1, n) partitions: 6435 at n = ell = 8.
@settings(PROPERTY, max_examples=120)
@given(data=st.data())
def test_ak_distance_matches_enumeration(data):
    n = data.draw(st.integers(1, 8))
    entry = st.just(0) | st.integers(1, 6)
    d1, d2 = (
        data.draw(st.lists(entry, min_size=n, max_size=n).filter(any).map(Distribution.from_weights))
        for _ in range(2)
    )
    ell = data.draw(st.integers(1, n))
    assert ak_distance(d1, d2, ell) == brute_force_ak_distance(d1, d2, ell)


# The interval DPs switch from int64 to Python ints at this common scale,
# where their sentinel 4 * scale + 1 first needs 62 bits.
OBJECT_SCALE = 2**59


def test_interval_dp_dtype_edge():
    assert prefix_sums([1, 2], OBJECT_SCALE - 1).dtype == np.int64
    assert prefix_sums([1, 2], OBJECT_SCALE).dtype == object
    assert prefix_sums([1, 2], OBJECT_SCALE).tolist() == [0, 1, 3]


def lifted(d: Distribution) -> Distribution:
    """d moved by 1/(2^61 - 1) toward element 1: the prime 2^61 - 1 enters
    the scale unless d is the point mass at 1."""
    e = Fraction(1, 2**61 - 1)
    return Distribution([(1 - e) * v + (e if i == 0 else 0) for i, v in enumerate(d.pmf)])


def edge_pair(scale: int, n: int) -> tuple[Distribution, Distribution]:
    """A distribution over [n] with scale exactly `scale`, and its mirror."""
    tip = Fraction(1, scale)
    p = Distribution([2 * tip, *[0] * (n - 3), tip, 1 - 3 * tip])
    return p, reversed_distribution(p)


def past_int64(pairs: st.SearchStrategy) -> st.SearchStrategy:
    """Lifted pairs whose common scale is at least 2^60 (the object path)."""
    return pairs.map(lambda pq: tuple(map(lifted, pq))).filter(
        lambda pq: to_integers(*pq)[1] >= 2**60
    )


@settings(PROPERTY, max_examples=150)
@given(pq=past_int64(st.tuples(distributions(8), distributions(5))), flag=st.booleans())
@example(pq=edge_pair(OBJECT_SCALE - 1, 4), flag=True)
@example(pq=edge_pair(OBJECT_SCALE, 4), flag=True)
def test_dp_matches_enumeration_past_int64(pq, flag):
    p, q = pq
    try:
        want = brute_force_min_discrepancy(p, q, flag)
    except InfeasibleBinningError:
        with pytest.raises(InfeasibleBinningError):
            min_binned_discrepancy(p, q, flag)
        return
    assert min_binned_discrepancy(p, q, flag) == want


def same_domain_pairs(max_n: int) -> st.SearchStrategy:
    entry = st.just(0) | st.integers(1, 6)
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(*[
            st.lists(entry, min_size=n, max_size=n).filter(any).map(Distribution.from_weights)
        ] * 2)
    )


@settings(PROPERTY, max_examples=60)
@given(pq=past_int64(same_domain_pairs(6)))
@example(pq=edge_pair(OBJECT_SCALE - 1, 5))
@example(pq=edge_pair(OBJECT_SCALE, 5))
def test_ak_distance_matches_enumeration_past_int64(pq):
    d1, d2 = pq
    for ell in range(1, d1.n + 1):
        assert ak_distance(d1, d2, ell) == brute_force_ak_distance(d1, d2, ell)


def mass_blocks() -> st.SearchStrategy[list[list[int]]]:
    """Several rows of one length: digits up to 9, or scaled values up to 2^44."""
    return st.tuples(
        st.integers(1, 6), st.integers(1, 4), st.sampled_from([9, 1 << 44])
    ).flatmap(
        lambda shape: st.lists(
            st.lists(st.just(0) | st.integers(1, shape[2]), min_size=shape[0], max_size=shape[0]),
            min_size=shape[1],
            max_size=shape[1],
        )
    )


def oracle_sum(row: list[int], counts: tuple[int, ...]) -> int:
    """The raw fingerprint sum from `moment_exhaustive` on the row's weights."""
    if not any(row):
        return int(not counts)
    total = sum(row)
    exact = moment_exhaustive(Distribution.from_weights(row), counts)
    raw = exact * total ** sum(counts) / multinomial(sum(counts), counts)
    assert raw.denominator == 1
    return raw.numerator


@settings(PROPERTY, max_examples=150)
@given(rows=mass_blocks(), s=st.integers(1, 5), given_as=st.sampled_from([object, np.int64]))
@example(rows=[[4095, 4095], [0, 4095]], s=5, given_as=object)  # 2 + 5 * 12 = 62: int64
@example(rows=[[4095, 4095, 4095], [4095, 0, 1]], s=5, given_as=np.int64)  # 63: object
def test_raw_moment_sums_match_exhaustive(rows, s, given_as):
    comps = list(compositions(s))
    block = np.array(rows, dtype=given_as)
    got = raw_moment_sums(block, comps)
    n = len(rows[0])
    top = max(max(row) for row in rows)
    assert got.shape == (len(rows), len(comps))
    assert (got.dtype == object) == (n + s * top.bit_length() >= 63)
    for row, sums in zip(rows, got.tolist()):
        assert sums == [oracle_sum(row, c) for c in comps]


def _with_remainder(parts: list[Fraction], at: int) -> list[Fraction]:
    at %= len(parts) + 1
    return [*parts[:at], 1 - sum(parts), *parts[at:]]


def mass_lists(max_n: int) -> st.SearchStrategy[list[Fraction]]:
    """Exact masses summing to one, up to max_n <= 16 of them.

    Each mass but one is zero, a fraction with a denominator up to 2^80, or
    the exact value of a float (denominators up to 2^1074); the remainder
    1 - sum lands at a drawn position, so tiny masses can trail it.
    """
    part = (
        st.just(Fraction(0))
        | st.fractions(0, Fraction(1, 16), max_denominator=2**80)
        | st.floats(0, 1 / 16).map(Fraction)
    )
    return st.tuples(st.lists(part, max_size=max_n - 1), st.integers(0, max_n)).map(
        lambda drawn: _with_remainder(*drawn)
    )


def running_sums(masses) -> list[Fraction]:
    out = [Fraction(0)]
    for v in masses:
        out.append(out[-1] + v)
    return out


@settings(PROPERTY, max_examples=300)
@given(masses=mass_lists(12))
@example(masses=[Fraction(1, 3), 0, Fraction(2, 3), 0, 0])
@example(masses=[Fraction(2**70 - 1, 2**70), Fraction(1, 2**70)])
@example(masses=[Fraction(1 - 2**-53), Fraction(2**-53)])
def test_integer_form_matches_fraction_arithmetic(masses):
    d = Distribution(masses)
    weights, scale = d._integer
    assert sum(weights) == scale
    assert tuple(Fraction(w, scale) for w in weights) == d.pmf == tuple(masses)
    assert list(d.prefix) == running_sums(masses)
    ceilings = (math.ceil(c * 2**64) for c in running_sums(masses)[1:])
    kept = list(takewhile(lambda t: t < 2**64, ceilings))
    assert d._cdf_thresholds.tolist() == kept


def draw_lists(max_n: int) -> st.SearchStrategy[tuple[int, list[int]]]:
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=60))
    )


@settings(PROPERTY, max_examples=200)
@given(drawn=draw_lists(12), as_array=st.booleans())
def test_empirical_matches_counter_oracle(drawn, as_array):
    n, draws = drawn
    counts = Counter(draws)
    want = Distribution([Fraction(counts[i], len(draws)) for i in range(1, n + 1)])
    got = empirical(SampleSet(np.array(draws) if as_array else draws), n)
    assert got == want and hash(got) == hash(want)
    assert got.prefix == want.prefix
    assert got._cdf_thresholds.tolist() == want._cdf_thresholds.tolist()
    weights, scale = got._integer
    assert scale == len(draws) and sum(weights) == scale


@settings(PROPERTY, max_examples=200)
@given(draws=st.lists(st.integers(1, 12), max_size=40), as_array=st.booleans())
@example(draws=[], as_array=True)
@example(draws=[9, 4, 9, 9, 1, 4], as_array=False)
def test_fingerprint_matches_counter_oracle(draws, as_array):
    samples = SampleSet(np.array(draws, dtype=np.int64) if as_array else draws)
    if not draws:
        with pytest.raises(ValueError, match="empty"):
            fingerprint_of(samples)
        return
    counts = Counter(draws)
    assert fingerprint_of(samples).counts == tuple(counts[v] for v in sorted(counts))


@settings(PROPERTY, max_examples=150)
@given(
    half=st.integers(1, 3),
    k_prime=st.integers(1, 8),
    s=st.integers(0, 30),
    m=st.integers(0, 4),
    seed=st.integers(0, 2**64 - 1),
)
@example(half=1, k_prime=3, s=0, m=0, seed=5)
@example(half=2, k_prime=2, s=12, m=0, seed=7)
def test_block_overflow_trial_matches_counter_oracle(half, k_prime, s, m, seed):
    x = MassString("2" * half + "3" * half)
    base = x.to_distribution()
    p_big, q_big = block_construct(base, base, k_prime)
    pair = HardInstancePair(m, x.b, Fraction(1), x, x, k_prime, base, base, p_big, q_big)
    occupancy = Counter((v - 1) // x.b for v in sample(p_big, s, seed).values)
    got = block_overflow_trial(pair, s, seed)
    assert type(got) is bool
    assert got == (max(occupancy.values(), default=0) > m)


@settings(PROPERTY, max_examples=200)
@given(drawn=draw_lists(10), q=distributions(5), data=st.data())
def test_kernels_ignore_the_empirical_scale(drawn, q, data):
    # p_hat's integer form keeps scale s, not the least common denominator;
    # every kernel result must equal the one on the re-validated masses.
    n, draws = drawn
    p_hat = empirical(SampleSet(draws), n)
    copy = Distribution(p_hat.pmf)
    for flag in (False, True):
        try:
            want = min_binned_discrepancy(copy, q, flag)
        except InfeasibleBinningError:
            with pytest.raises(InfeasibleBinningError):
                min_binned_discrepancy(p_hat, q, flag)
            continue
        got = min_binned_discrepancy(p_hat, q, flag)
        assert got.delta == want.delta
        assert got.witness == want.witness
    entry = st.just(0) | st.integers(1, 6)
    other = data.draw(st.lists(entry, min_size=n, max_size=n).filter(any).map(Distribution.from_weights))
    ell = data.draw(st.integers(1, n))
    assert ak_distance(p_hat, other, ell) == ak_distance(copy, other, ell)


@settings(PROPERTY, max_examples=200)
@given(p=distributions(8) | mass_lists(8).map(Distribution), q=distributions(4), data=st.data())
def test_greedy_repair_tv_identity(p, q, data):
    cuts = data.draw(st.lists(st.integers(0, p.n), min_size=q.n - 1, max_size=q.n - 1))
    partition = IntervalPartition([0, *sorted(cuts), p.n])
    masses = partition.masses(p)
    try:
        repaired = greedy_repair(p, partition, q)
    except InfeasibleBinningError:
        assert any(
            m < qj and partition.is_empty(j) for j, (m, qj) in enumerate(zip(masses, q.pmf))
        )
        return
    assert partition.masses(repaired) == q.pmf
    gaps = sum(abs(m - qj) for m, qj in zip(masses, q.pmf))
    assert total_variation(p, repaired) == gaps / 2


@settings(PROPERTY, max_examples=200)
@given(masses=mass_lists(12))
@example(masses=[Fraction(1, 4), Fraction(0), Fraction(3, 4)])
def test_distribution_json_round_trip(masses):
    d = Distribution(masses)
    document = json.loads(json.dumps(distribution_to_json(d)))
    back = distribution_from_json(document, exact=True)
    assert back == d and back.prefix == d.prefix
    if all(Fraction(float(v)) == v for v in d.pmf):
        # Float entries load as their exact binary values.
        as_numbers = json.loads(json.dumps({"n": d.n, "pmf": [float(v) for v in d.pmf]}))
        assert distribution_from_json(as_numbers) == d



# Order-preserving embeddings insert zero-mass elements.  The lower bound
# measures the flag-off distance, which no embedding moves; the tester's
# flag-on delta can only fall under one, down to the flag-off value.
def with_zeros(p: Distribution, positions) -> Distribution:
    """p with a zero-mass element inserted before element i + 1 for each i."""
    masses = list(p.pmf)
    for i in sorted(positions, reverse=True):
        masses.insert(i, Fraction(0))
    return Distribution(masses)


def embeddings(max_n: int = 8, max_k: int = 5):
    """(p, q, p with 1-4 zero-mass elements inserted)."""
    return st.tuples(distributions(max_n), distributions(max_k)).flatmap(
        lambda pq: st.tuples(
            st.just(pq[0]), st.just(pq[1]),
            st.lists(st.integers(0, pq[0].n), min_size=1, max_size=4).map(
                lambda at: with_zeros(pq[0], at)
            ),
        )
    )


@settings(PROPERTY, max_examples=200)
@given(case=embeddings())
def test_zero_insertion_keeps_flag_off_distance_and_moments(case):
    p, q, embedded = case
    assert coarsening_distance(embedded, q) == coarsening_distance(p, q)
    for s in (1, 2, 3):
        assert moment_vector(embedded, s) == moment_vector(p, s)


@settings(PROPERTY, max_examples=200)
@given(case=embeddings())
def test_zero_insertion_never_raises_flag_on_delta(case):
    p, q, embedded = case
    try:
        before = min_binned_discrepancy(p, q, True).delta
    except InfeasibleBinningError:
        return
    # More elements never make the flag-on DP infeasible: this call must not raise.
    assert min_binned_discrepancy(embedded, q, True).delta <= before


@settings(PROPERTY, max_examples=200)
@given(p=distributions(8), q=distributions(5))
def test_full_zero_padding_makes_flag_on_equal_flag_off(p, q):
    # k zeros before the first element and after every element.
    padded = with_zeros(p, [i for i in range(p.n + 1) for _ in range(q.n)])
    assert min_binned_discrepancy(padded, q, True).delta == coarsening_distance(p, q)
