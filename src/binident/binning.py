"""Interval partitions of [n] and binned-discrepancy minimization.

The central operation takes a distribution over [n] and a reference over
[k] and minimizes the summed bin discrepancy sum_j |p(I_j) - q(j)| over all
partitions of [n] into k consecutive, possibly empty intervals, optionally
requiring a nonempty interval for every positive-mass bin: the tester sets
this flag, and the lower bound's `coarsening_distance` leaves it off.  A
suffix DP over integer-scaled prefix masses gives the exact minimum in
O(n k log n) array work.  The enumeration oracles that check it live with
the tests, except the A_k oracle below.

Bin j starting after element i with target T = pre[i] + q_j pays
|pre[x] - T| + tail[x] for a next bound x, tail being the next DP row.
The split h(i), the first x with pre[x] >= T, is one `searchsorted` per
row.  At or above it the least cost is a suffix minimum of pre + tail,
minus T; below it, a window minimum of tail - pre over [i + shift, h(i)),
plus T, read from a sparse table.  Infeasible states hold the sentinel
inf = 4 * scale + 1, above every finite cost (at most 2 * scale), and
every row is clamped to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator

import numpy as np

from . import budgets
from .distributions import Distribution, prefix_sums, to_integers


class InfeasibleBinningError(ValueError):
    """More positive-mass bins than domain elements under the nonemptiness rule."""


@dataclass(frozen=True)
class IntervalPartition:
    """An ordered split of [n] into k consecutive, possibly empty intervals.

    bounds has k+1 nondecreasing entries with bounds[0] = 0 and bounds[k] = n;
    interval j (0-based) covers elements bounds[j]+1 .. bounds[j+1].
    """

    bounds: tuple[int, ...]

    def __init__(self, bounds):
        b = tuple(int(v) for v in bounds)
        if len(b) < 2:
            raise ValueError("bounds must contain at least 2 entries")
        if b[0] != 0:
            raise ValueError("bounds must start at 0")
        if any(b[i] > b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("bounds must be nondecreasing")
        object.__setattr__(self, "bounds", b)

    @property
    def k(self) -> int:
        return len(self.bounds) - 1

    @property
    def n(self) -> int:
        return self.bounds[-1]

    def interval(self, j: int) -> tuple[int, int]:
        """Half-open bounds (lo, hi] of interval j, 0-based j."""
        return self.bounds[j], self.bounds[j + 1]

    def is_empty(self, j: int) -> bool:
        return self.bounds[j] == self.bounds[j + 1]

    def masses(self, d: Distribution) -> tuple[Fraction, ...]:
        if d.n != self.n:
            raise ValueError(f"domain sizes differ: {d.n} vs {self.n}")
        return tuple(d.mass(*self.interval(j)) for j in range(self.k))


@dataclass(frozen=True)
class BinningResult:
    """Minimized discrepancy together with a partition attaining it."""

    delta: Fraction
    witness: IntervalPartition


def enumerate_partitions(n: int, k: int) -> Iterator[IntervalPartition]:
    """Yield every partition of [n] into k intervals, C(n+k-1, n) in total.

    Intended for oracle use at small sizes; guarded accordingly.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    budgets.check("partition_enumeration", math.comb(n + k - 1, n), "partitions")
    for cuts in combinations_with_replacement(range(n + 1), k - 1):
        yield IntervalPartition((0, *cuts, n))


def _window_min(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, empty: int) -> np.ndarray:
    """min(values[lo[i]:hi[i]]) for every i, or `empty` where lo[i] >= hi[i].

    A sparse table holds the minimum of every window of length 2^l; a window
    of length w is the union of the two of length 2^floor(log2 w) at its ends.
    """
    live = hi > lo
    level = np.frexp(np.where(live, hi - lo, 1))[1] - 1  # floor(log2(hi - lo))
    # The last column holds `empty` for the empty windows; no other query
    # reads an entry whose window runs past the end.
    table = np.full((int(level.max()) + 1, len(values) + 1), empty, dtype=values.dtype)
    table[0, :-1] = values
    for l in range(1, len(table)):
        half = 1 << (l - 1)
        table[l, :-half] = np.minimum(table[l - 1, :-half], table[l - 1, half:])
    left = np.where(live, lo, -1)
    right = np.where(live, hi - (1 << level), -1)
    return np.minimum(table[level, left], table[level, right])


def min_binned_discrepancy(
    p_hat: Distribution, q: Distribution, require_nonempty_on_support: bool
) -> BinningResult:
    """Exact minimum of sum_j |p_hat(I_j) - q(j)| over interval partitions.

    With the flag set, every bin j with q(j) > 0 must receive a nonempty
    interval; raises InfeasibleBinningError when more bins carry positive
    mass than there are domain elements.  The witness is the optimal
    partition with lexicographically smallest bounds.  Tables of more than
    the `binning_cells` budget of (n+1)*k cells are refused up front.
    """
    n, k = p_hat.n, q.n
    budgets.check("binning_cells", (n + 1) * k, "DP cells")
    if require_nonempty_on_support:
        positive = sum(1 for v in q.pmf if v > 0)
        if positive > n:
            raise InfeasibleBinningError(
                f"{positive} positive-mass bins cannot each receive a nonempty "
                f"interval of a {n}-element domain"
            )
    (weights, ref), scale = to_integers(p_hat, q)
    pre = prefix_sums(weights, scale)
    inf = 4 * scale + 1  # the infeasible state: 2 * inf bounds every value formed

    # suffix[j][i]: least cost of covering elements i+1..n with bins j+1..k.
    suffix = np.full((k + 1, n + 1), inf, dtype=pre.dtype)
    suffix[k, n] = 0
    for j in range(k - 1, -1, -1):
        tail = suffix[j + 1]
        target = pre + ref[j]
        start = np.arange(n + 1) + int(require_nonempty_on_support and ref[j] > 0)
        split = np.searchsorted(pre, target)
        # above[x]: least pre[y] + tail[y] over y >= x; above[n + 1] = 2 * inf
        # leaves an empty range at least inf once the target is subtracted.
        above = np.append(np.minimum.accumulate((pre + tail)[::-1])[::-1], 2 * inf)
        row = np.minimum(
            above[np.maximum(start, split)] - target,
            _window_min(tail - pre, start, split, inf) + target,
        )
        suffix[j] = np.minimum(row, inf)

    total = int(suffix[0, 0])
    if total >= inf:
        raise InfeasibleBinningError("no admissible partition exists")

    # Front-greedy reconstruction: the smallest admissible optimal next bound
    # at every step gives the lexicographically smallest witness.
    bounds = [0]
    cur = 0
    for j in range(k):
        start = cur + int(require_nonempty_on_support and ref[j] > 0)
        cost = np.abs(pre[start:] - (pre[cur] + ref[j])) + suffix[j + 1, start:]
        cur = start + int(np.flatnonzero(cost == suffix[j, cur])[0])
        bounds.append(cur)

    return BinningResult(Fraction(total, scale), IntervalPartition(bounds))


def coarsening_distance(p: Distribution, q: Distribution) -> Fraction:
    """min over nondecreasing maps [n] -> [k] of the summed bin-mass gaps.

    Zero exactly when p admits a k-interval binning with masses q; half of
    the value lower-bounds the total variation from p to that set.
    """
    return min_binned_discrepancy(p, q, require_nonempty_on_support=False).delta


# The bench's self-tests import this oracle from binident until they carry their own.
def brute_force_ak_distance(d1: Distribution, d2: Distribution, ell: int) -> Fraction:
    """Enumeration oracle for the interval-partition distance (small sizes)."""
    best = Fraction(0)
    for partition in enumerate_partitions(d1.n, ell):
        value = sum(
            abs(a - b) for a, b in zip(partition.masses(d1), partition.masses(d2))
        )
        if value > best:
            best = value
    return best


def greedy_repair(
    p: Distribution, partition: IntervalPartition, q: Distribution
) -> Distribution:
    """Move mass between intervals until every bin matches the reference.

    Returns p* with p*(I_j) = q(j) for all j and
    total_variation(p, p*) = (1/2) sum_j |p(I_j) - q(j)|, exactly.  Each
    over-full interval loses its surplus from its highest-index element
    down, and each under-full one gains its deficit on its lowest-index
    element; intervals are disjoint, so one pass over the bins suffices.
    """
    if partition.k != q.n:
        raise ValueError(f"partition has {partition.k} intervals, reference {q.n} bins")
    new = list(p.pmf)
    for j, (mass, target) in enumerate(zip(partition.masses(p), q.pmf)):
        lo, hi = partition.interval(j)
        if mass < target:
            if lo == hi:
                raise InfeasibleBinningError(
                    f"bin {j + 1} is under-full but its interval is empty"
                )
            new[lo] += target - mass
        excess = mass - target
        while excess > 0:  # the interval holds mass >= excess
            hi -= 1
            take = min(new[hi], excess)
            new[hi] -= take
            excess -= take
    return Distribution(new)
