"""Property tests: the binning DP against its enumeration oracle."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binident import (
    Distribution,
    InfeasibleBinningError,
    brute_force_min_discrepancy,
    min_binned_discrepancy,
    partition_discrepancy,
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
