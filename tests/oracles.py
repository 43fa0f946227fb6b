"""Enumeration oracles and small helpers that only the tests call.

Each oracle computes by literal enumeration what a library kernel computes
by a DP or a closed form, so the two can be compared at small sizes.  The
A_k oracle `brute_force_ak_distance` and the `enumerate_partitions` it walks
stay in `binident.binning`, since the bench's self-tests import the oracle
from `binident`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable

from binident import (
    BinningResult,
    Distribution,
    InfeasibleBinningError,
    IntervalPartition,
    OrderedFingerprint,
    enumerate_partitions,
)
from binident.distributions import _require_same_domain
from binident.fingerprints import _as_fingerprint, multinomial


def identity_partition(n: int) -> IntervalPartition:
    """The partition of [n] into n singletons."""
    return IntervalPartition(range(n + 1))


def reversed_distribution(d: Distribution) -> Distribution:
    """d with its domain read backwards: element i gets d(n + 1 - i)."""
    return Distribution(d.pmf[::-1])


def fingerprint_from_key(key: str) -> OrderedFingerprint:
    """The inverse of `OrderedFingerprint.key`: "2+1+1" -> (2, 1, 1)."""
    return OrderedFingerprint(int(part) for part in key.split("+"))


def kolmogorov_distance(d1: Distribution, d2: Distribution) -> Fraction:
    """Max absolute difference of the cumulative distribution functions."""
    _require_same_domain(d1, d2)
    return max(abs(a - b) for a, b in zip(d1.prefix, d2.prefix))


def partition_discrepancy(
    p: Distribution, partition: IntervalPartition, q: Distribution
) -> Fraction:
    """sum_j |p(I_j) - q(j)| for one fixed partition."""
    if partition.k != q.n:
        raise ValueError(f"partition has {partition.k} intervals, reference {q.n} bins")
    return sum(abs(m - qj) for m, qj in zip(partition.masses(p), q.pmf))


def _admissible(partition: IntervalPartition, q: Distribution, nonempty: bool) -> bool:
    if not nonempty:
        return True
    return all(not (q.pmf[j] > 0 and partition.is_empty(j)) for j in range(q.n))


def brute_force_min_discrepancy(
    p_hat: Distribution, q: Distribution, require_nonempty_on_support: bool
) -> BinningResult:
    """Enumeration oracle for min_binned_discrepancy (small n and k only)."""
    best: BinningResult | None = None
    for partition in enumerate_partitions(p_hat.n, q.n):
        if not _admissible(partition, q, require_nonempty_on_support):
            continue
        delta = partition_discrepancy(p_hat, partition, q)
        if best is None or delta < best.delta or (
            delta == best.delta and partition.bounds < best.witness.bounds
        ):
            best = BinningResult(delta, partition)
    if best is None:
        raise InfeasibleBinningError("no admissible partition exists")
    return best


def moment_exhaustive(
    d: Distribution, fingerprint: OrderedFingerprint | Iterable[int]
) -> Fraction:
    """Literal summation over all C(n, t) index tuples; oracle for `moment`."""
    f = _as_fingerprint(fingerprint)
    total = Fraction(0)
    for idx in combinations(range(d.n), f.t):
        term = Fraction(1)
        for i, power in zip(idx, f.counts):
            term *= d.pmf[i] ** power
        total += term
    return multinomial(f.s, f.counts) * total
