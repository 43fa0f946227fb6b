"""Ordered fingerprints of samples and their exact occurrence probabilities.

The ordered fingerprint of a sample multiset is the tuple of multiplicities
of its distinct values in increasing value order, labels discarded; it is a
composition of the sample count s.  For a distribution d the probability of
observing fingerprint F = (F_1, ..., F_t) on s draws is

    multinomial(s; F) * sum over i_1 < ... < i_t of prod_j d(i_j)^F_j

evaluated here exactly.  The full table over all 2^(s-1) compositions is the
fingerprint distribution of s draws; two distributions with equal tables
cannot be told apart from ordered fingerprints alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from . import budgets
from .distributions import Distribution, SampleSet, to_integers


@dataclass(frozen=True)
class OrderedFingerprint:
    """Ordered positive multiplicities of the distinct values in a sample."""

    counts: tuple[int, ...]

    def __init__(self, counts: Iterable[int]):
        c = tuple(int(v) for v in counts)
        if not c:
            raise ValueError("a fingerprint needs at least one count")
        if any(v < 1 for v in c):
            raise ValueError("fingerprint counts must be positive")
        object.__setattr__(self, "counts", c)

    @property
    def s(self) -> int:
        return sum(self.counts)

    @property
    def t(self) -> int:
        return len(self.counts)

    def key(self) -> str:
        """Serialization key, e.g. "2+1+1"."""
        return "+".join(str(v) for v in self.counts)

    @classmethod
    def from_key(cls, key: str) -> "OrderedFingerprint":
        return cls(int(part) for part in key.split("+"))


def fingerprint_of(samples: SampleSet) -> OrderedFingerprint:
    """Multiplicities of the distinct sample values, in value order."""
    if samples.s == 0:
        raise ValueError("cannot fingerprint an empty sample")
    _, counts = np.unique(samples.draws, return_counts=True)
    return OrderedFingerprint(counts.tolist())


def compositions(s: int) -> Iterator[tuple[int, ...]]:
    """All compositions of s in lexicographic order; 2^(s-1) of them."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0:
        yield ()
        return
    for first in range(1, s + 1):
        for rest in compositions(s - first):
            yield (first, *rest)


def multinomial(s: int, parts: tuple[int, ...]) -> int:
    coeff = 1
    remaining = s
    for p in parts:
        coeff *= math.comb(remaining, p)
        remaining -= p
    return coeff


# Row chunks of the fingerprint DP hold at most this many table entries
# (256 KB in int64), so the per-column updates run in cache and keying every
# balanced string at once adds no table memory to speak of.
_CHUNK_ENTRIES = 1 << 15


def raw_moment_sums(rows: np.ndarray, comps: Iterable[tuple[int, ...]]) -> np.ndarray:
    """Integer fingerprint sums of integer mass rows, one row of sums per row.

    For counts (c_1, ..., c_t) the sum over a row is, over i_1 < ... < i_t,
    prod_j row[i_j]^c_j; with row = pmf * scale it is the fingerprint
    probability times scale^s / multinomial(s; counts).  The result has
    shape (len(rows), len(comps)).  This is the package's one fingerprint
    DP: a column sweep over a trie of composition prefixes, vectorized over
    rows.  Every sum is at most C(n, t) * max^s <= 2^(n + s * bitlen(max))
    for n columns, so the DP runs in int64 while that exponent is below 63
    and on Python ints (object dtype) otherwise; pass big values as an
    object array, since numpy turns large Python ints into floats.
    """
    comps = list(comps)
    n_rows, n = rows.shape
    top = int(rows.max()) if rows.size else 0
    s = max(map(sum, comps), default=0)
    dtype = np.int64 if n + s * top.bit_length() < 63 else object
    # Node 0 is the empty prefix; every other node extends its parent's
    # prefix by one part.
    node = {(): 0}
    parent, part = [], []
    for counts in comps:
        for j in range(1, len(counts) + 1):
            if counts[:j] not in node:
                node[counts[:j]] = len(node)
                parent.append(node[counts[: j - 1]])
                part.append(counts[j - 1])
    leaves = [node[counts] for counts in comps]
    parent = np.array(parent, dtype=np.intp)
    power_index = np.array(part, dtype=np.intp) - 1
    top_part = max(part, default=0)
    out = np.empty((n_rows, len(comps)), dtype)
    step = max(1, _CHUNK_ENTRIES // len(node))
    for lo in range(0, n_rows, step):
        chunk = rows[lo : lo + step].astype(dtype)
        # g[v] = sum over i_1 < ... < i_j among the columns swept so far of
        # prod row[i]^part along the prefix of node v.
        g = np.zeros((len(node), len(chunk)), dtype)
        g[0] = 1
        for col in chunk.T:
            powers = [col]
            for _ in range(top_part - 1):
                powers.append(powers[-1] * col)
            # The right side reads g before this column's update, so each
            # column is used at most once per index tuple.
            g[1:] += g[parent] * np.stack(powers)[power_index]
        out[lo : lo + step] = g[leaves].T
    return out


def _moments(d: Distribution, comps: list[tuple[int, ...]]) -> list[Fraction]:
    """Exact probabilities that sum(c) draws from d show each composition c."""
    (values,), scale = to_integers(d)
    # Zero masses contribute nothing to any fingerprint sum with t >= 1.
    row = np.array([[a for a in values if a]], dtype=object)
    raws = raw_moment_sums(row, comps)[0].tolist()
    return [
        Fraction(multinomial(sum(c), c) * raw, scale ** sum(c))
        for c, raw in zip(comps, raws)
    ]


def _as_fingerprint(f: OrderedFingerprint | Iterable[int]) -> OrderedFingerprint:
    return f if isinstance(f, OrderedFingerprint) else OrderedFingerprint(f)


def moment(d: Distribution, fingerprint: OrderedFingerprint | Iterable[int]) -> Fraction:
    """Exact probability that s draws from d show this ordered fingerprint."""
    f = _as_fingerprint(fingerprint)
    budgets.check("moment_terms", (d.n + 1) * f.t, "DP cells")
    return _moments(d, [f.counts])[0]


def moment_exhaustive(
    d: Distribution, fingerprint: OrderedFingerprint | Iterable[int]
) -> Fraction:
    """Literal summation over all C(n, t) index tuples; oracle for `moment`."""
    f = _as_fingerprint(fingerprint)
    budgets.check(
        "moment_literal_terms", math.comb(d.n, f.t) * max(f.t, 1), "summation steps"
    )
    total = Fraction(0)
    for idx in combinations(range(d.n), f.t):
        term = Fraction(1)
        for i, power in zip(idx, f.counts):
            term *= d.pmf[i] ** power
        total += term
    return multinomial(f.s, f.counts) * total


@dataclass(frozen=True)
class MomentVector:
    """Fingerprint distribution of s draws: one probability per composition."""

    s: int
    entries: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        if len(self.entries) != 1 << (self.s - 1):
            raise ValueError(
                f"expected {1 << (self.s - 1)} compositions, got {len(self.entries)}"
            )
        total = sum(v for _, v in self.entries)
        if total != 1:
            raise ValueError(f"fingerprint probabilities sum to {total}, not 1")


def check_moment_budget(n: int, s: int) -> None:
    """Guard an s-draw fingerprint table over n elements before listing it."""
    # The compositions of s have (s + 1) * 2^(s - 2) parts in total (1 at
    # s = 1), and the DP spends n + 1 cells on each part.
    parts = (s + 1) << (s - 2) if s >= 2 else 1
    budgets.check("moment_terms", (n + 1) * parts, "DP cells")


def moment_vector(d: Distribution, s: int) -> MomentVector:
    """All s-draw fingerprint probabilities of d, in lexicographic order."""
    if s < 1:
        raise ValueError("s must be at least 1")
    check_moment_budget(d.n, s)
    comps = list(compositions(s))
    return MomentVector(s, tuple(zip(comps, _moments(d, comps))))


@dataclass(frozen=True)
class IndistinguishabilityResult:
    indistinguishable: bool
    tv_gap: Fraction


def fingerprints_indistinguishable(
    d1: Distribution, d2: Distribution, s: int
) -> IndistinguishabilityResult:
    """Whether s-draw fingerprint distributions coincide, with their exact gap.

    The gap is the total variation distance between the two fingerprint
    distributions; it is zero exactly when the moment vectors are equal.
    """
    v1 = moment_vector(d1, s)
    v2 = moment_vector(d2, s)
    gap = sum(abs(a - b) for (_, a), (_, b) in zip(v1.entries, v2.entries)) / 2
    return IndistinguishabilityResult(v1.entries == v2.entries, gap)
