"""Property tests: the fast exact kernels against their enumeration oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binident import (
    Distribution,
    InfeasibleBinningError,
    ak_distance,
    brute_force_ak_distance,
    brute_force_min_discrepancy,
    compositions,
    min_binned_discrepancy,
    moment_exhaustive,
    partition_discrepancy,
)
from binident.fingerprints import multinomial, raw_moment_sums

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
