"""Construction and verification of hard instances for binned identity testing.

The ingredients, all exact:

* balanced mass strings over the alphabet {2, 3}, mapped to distributions
  whose masses are 4/(5b) and 6/(5b);
* a cyclic-LCS test deciding whether two strings are r-partial cyclic
  shifts of each other, from bit-parallel LCS lengths;
* a pigeonhole search for pairs of such distributions that share every
  s-draw fingerprint probability up to s = m yet are not shifts;
* a block blow-up spreading a base pair uniformly over k' blocks, the
  coarsening distance of the blown-up pair, and the exact probability that
  s uniform throws overflow some block past m occupants, counted in s*m
  steps by Miller's power recurrence.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import budgets
from .distributions import Distribution, Rational, as_fraction, sample, trial_seeds
from .binning import coarsening_distance
from .fingerprints import check_moment_budget, compositions, moment_vector, raw_moment_sums

_ALPHABET = {"2", "3"}
DEFAULT_RHO = Fraction(99, 100)  # rho in the ceil(rho * b)-partial shift test


@dataclass(frozen=True)
class MassString:
    """A balanced string over {2, 3}: b/2 twos and b/2 threes."""

    symbols: str

    def __init__(self, symbols: str):
        s = str(symbols)
        if len(s) % 2 != 0:
            raise ValueError("length must be even")
        if set(s) - _ALPHABET:
            raise ValueError(f"symbols must be drawn from {{2,3}}, got {s!r}")
        if s.count("2") != s.count("3"):
            raise ValueError("string must contain equally many 2s and 3s")
        object.__setattr__(self, "symbols", s)

    @property
    def b(self) -> int:
        return len(self.symbols)

    def digits(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.symbols)

    def to_distribution(self) -> Distribution:
        """Masses x_i * 2/(5b): value 2 maps to 4/(5b), value 3 to 6/(5b)."""
        b = self.b
        return Distribution(Fraction(2 * x, 5 * b) for x in self.digits())

    def rotated(self, offset: int) -> "MassString":
        o = offset % self.b if self.b else 0
        return MassString(self.symbols[o:] + self.symbols[:o])


def _balanced_digits(b: int) -> np.ndarray:
    """All C(b, b/2) balanced strings of length b as int8 rows of 2s and 3s.

    Lexicographic order ("2" < "3") is built in: the strings with a twos and
    t threes are a 2 before those with one 2 fewer, then a 3 before those
    with one 3 fewer.
    """
    if b < 2 or b % 2 != 0:
        raise ValueError("b must be a positive even integer")
    _check_string_budget(b)
    # rows[t] holds the strings with a twos and t threes, a and t <= b/2.
    rows = [np.full((1, t), 3, dtype=np.int8) for t in range(b // 2 + 1)]
    for a in range(1, b // 2 + 1):
        rows[0] = np.full((1, a), 2, dtype=np.int8)
        for t in range(1, len(rows)):
            twos, threes = np.insert(rows[t], 0, 2, axis=1), np.insert(rows[t - 1], 0, 3, axis=1)
            rows[t] = np.vstack([twos, threes])
    return rows[-1]


def _check_string_budget(b: int) -> None:
    """Guard work on balanced strings of length b by their count C(b, b/2)."""
    budgets.check("hard_pair_strings", math.comb(b, b // 2), "strings")


def _mass_string(row: np.ndarray) -> MassString:
    return MassString((row + ord("0")).tobytes().decode())


def balanced_strings(b: int) -> Iterator[MassString]:
    """All C(b, b/2) balanced strings of length b, in lexicographic order."""
    yield from map(_mass_string, _balanced_digits(b))


@dataclass(frozen=True)
class CyclicShiftResult:
    """Outcome of an r-partial cyclic shift test: the first rotation found."""

    is_shift: bool
    rotation: int | None = None


def shift_threshold(rho: Fraction, b: int) -> int:
    """r = ceil(rho * b), the LCS length at which strings count as shifts."""
    return math.ceil(rho * b)


def is_partial_cyclic_shift(x: MassString, y: MassString, r: int) -> CyclicShiftResult:
    """True iff some rotation of y shares a common subsequence of length >= r with x.

    Scans the b rotations in offset order and returns the first one found.
    Each rotation's LCS length comes from the bit-parallel recurrence of
    Allison and Dix (IPL 1986): the cleared bits of v mark the prefixes of x
    at which the LCS with the symbols read so far grows, so the LCS is their
    count.
    """
    if x.b != y.b:
        raise ValueError(f"lengths differ: {x.b} vs {y.b}")
    b = x.b
    if r > b:
        raise ValueError(f"r = {r} exceeds string length {b}")
    if r <= 0:
        return CyclicShiftResult(True, 0)
    mask = (1 << b) - 1
    match = {c: sum(1 << i for i, a in enumerate(x.symbols) if a == c) for c in _ALPHABET}
    doubled = y.symbols * 2
    for offset in range(b):
        v = mask
        for ch in doubled[offset:offset + b]:
            u = v & match[ch]
            v = ((v + u) | (v - u)) & mask
        if b - v.bit_count() >= r:
            return CyclicShiftResult(True, offset)
    return CyclicShiftResult(False)


def _check_pair_parameters(m: int, rho: Rational) -> Fraction:
    """rho as a Fraction, once m >= 1 and rho in (0, 1] are checked."""
    if m < 1:
        raise ValueError("m must be at least 1")
    rho_f = as_fraction(rho)
    if not 0 < rho_f <= 1:
        raise ValueError("rho must lie in (0, 1]")
    return rho_f


def find_hard_pair(
    m: int, b: int, rho: Rational
) -> tuple[MassString, MassString] | None:
    """Search balanced strings for a moment-matched non-shift pair.

    Buckets all C(b, b/2) strings by their exact m-draw fingerprint sums and
    returns the lexicographically first pair (x, y) in one bucket that fails
    the ceil(rho*b)-partial cyclic shift test, or None when no pair exists.
    """
    rho_f = _check_pair_parameters(m, rho)
    r = shift_threshold(rho_f, b)
    # HardInstancePair.build checks the same table for any pair found.
    check_moment_budget(b, m)
    comps = list(compositions(m))
    digits = _balanced_digits(b)
    # Equal keys mean equal moment vectors: the multinomial factor and the
    # 2/(5b) scaling are the same for every string.
    keys = raw_moment_sums(digits, comps)
    if keys.dtype == object:
        rows = [tuple(row) for row in keys.tolist()]
    else:
        rows = keys.view(np.dtype((np.void, keys.itemsize * len(comps)))).ravel().tolist()
    buckets = defaultdict(list)
    for i, row in enumerate(rows):
        buckets[row].append(i)
    for i, row in enumerate(rows):
        bucket = buckets[row]
        if len(bucket) == 1:
            continue
        x = _mass_string(digits[i])
        for j in bucket:
            if j > i:
                y = _mass_string(digits[j])
                if not is_partial_cyclic_shift(x, y, r).is_shift:
                    return x, y
    return None


def block_construct(
    p_base: Distribution, q_base: Distribution, k_prime: int
) -> tuple[Distribution, Distribution]:
    """Spread a base pair over k' equal blocks of [b * k'].

    Element b*(i-1) + j receives mass p_base(j) / k', so every block sums to
    exactly 1/k' and repeats the base shape.
    """
    if p_base.n != q_base.n:
        raise ValueError(f"base domain sizes differ: {p_base.n} vs {q_base.n}")
    if k_prime < 1:
        raise ValueError("k_prime must be at least 1")
    budgets.check("blowup_elements", p_base.n * k_prime, "blown-up elements")
    p_big, q_big = (
        Distribution([v / k_prime for _ in range(k_prime) for v in d.pmf])
        for d in (p_base, q_base)
    )
    return p_big, q_big


@dataclass(frozen=True)
class HardInstancePair:
    """A moment-matched non-shift base pair together with its block blow-up."""

    m: int
    b: int
    rho: Fraction
    x: MassString
    y: MassString
    k_prime: int
    p_base: Distribution
    q_base: Distribution
    p_big: Distribution
    q_big: Distribution

    @classmethod
    def build(
        cls, x: MassString, y: MassString, m: int, rho: Rational, k_prime: int
    ) -> "HardInstancePair":
        """Assemble and validate a pair from its base strings.

        Checks, exactly: m >= 1 and rho in (0, 1] as `find_hard_pair` does,
        equal fingerprint distributions at every s <= m, failure of the
        ceil(rho*b)-partial cyclic shift test, and the block structure of
        the blow-up.  Strings longer than `find_hard_pair` admits at the
        same budget are refused first, by the same string guard.
        """
        rho_f = _check_pair_parameters(m, rho)
        if x.b != y.b:
            raise ValueError(f"lengths differ: {x.b} vs {y.b}")
        b = x.b
        _check_string_budget(b)
        p_base = x.to_distribution()
        q_base = y.to_distribution()
        for s in range(1, m + 1):
            if moment_vector(p_base, s) != moment_vector(q_base, s):
                raise ValueError(f"bases disagree on some {s}-draw fingerprint")
        r = shift_threshold(rho_f, b)
        if is_partial_cyclic_shift(x, y, r).is_shift:
            raise ValueError(f"bases are {r}-partial cyclic shifts of each other")
        p_big, q_big = block_construct(p_base, q_base, k_prime)
        return cls(m, b, rho_f, x, y, k_prime, p_base, q_base, p_big, q_big)


def make_hard_instance(m: int, b: int, rho: Rational, k_prime: int) -> HardInstancePair:
    """find_hard_pair followed by the validated block blow-up; refuses (m, b)
    cells with no pair."""
    found = find_hard_pair(m, b, rho)
    if found is None:
        raise ValueError(f"no moment-matched pair exists at m={m}, b={b}")
    x, y = found
    return HardInstancePair.build(x, y, m, rho, k_prime)


def verify_distance_claim(pair: HardInstancePair) -> Fraction:
    """Exact coarsening distance between the blown-up distributions.

    Strictly positive whenever the bases differ: the blown-up masses take
    only the two values 4/(5bk') and 6/(5bk'), so no interval grouping can
    reproduce a differing reference exactly.  The `binning_cells` guard of
    the DP bounds the blown-up domain.
    """
    return coarsening_distance(pair.p_big, pair.q_big)


def block_overflow_probability(k_prime: int, s: int, m: int) -> Fraction:
    """Exact chance that s uniform throws put > m balls into some block.

    ways[r], the throws of r balls with no block over m, is
    r! [x^r] (sum_{c<=m} x^c/c!)^k'.  J. C. P. Miller's power recurrence
    (Knuth, TAOCP vol. 2, sec. 4.7) gives it in s*m steps, whatever k':
    r*ways[r] = sum_{j=1}^{min(m,r)} ((k'+1)*j - r) * C(r, j) * ways[r-j].
    """
    if k_prime < 1:
        raise ValueError("k_prime must be at least 1")
    if s < 0 or m < 0:
        raise ValueError("s and m must be nonnegative")
    if s <= m:
        return Fraction(0)
    # s*max(min(m, s), 1) steps (s even at m = 0), each on integers of at
    # most s*log2(k') bits: the charge counts their 128-bit words.
    words = s * (k_prime - 1).bit_length() // 128 + 1
    budgets.check("overflow_transitions", max(min(m, s), 1) * s * words, "word operations")
    ways = [1]
    for r in range(1, s + 1):
        js = range(1, min(m, r) + 1)
        terms = (((k_prime + 1) * j - r) * math.comb(r, j) * ways[r - j] for j in js)
        ways.append(sum(terms) // r)  # the sum is r*ways[r], so this is exact
    return 1 - Fraction(ways[s], k_prime**s)


def block_overflow_trial(pair: HardInstancePair, s: int, seed: int) -> bool:
    """Whether s draws from the blown-up p put > m values into one block."""
    draws = sample(pair.p_big, s, seed).draws
    return int(np.bincount((draws - 1) // pair.b).max(initial=0)) > pair.m


def sample_size_curve(
    pair: HardInstancePair,
    s_grid: Sequence[int],
    trials: int,
    seed: int,
) -> list[dict]:
    """Empirical block-overflow fractions along a sample-size grid.

    A trial counts as an overflow when the drawn sample puts at least m+1
    values into a single block, the precondition for fingerprints to carry
    any distinguishing signal.  Trial t reuses seed trial_seeds(seed,
    trials)[t] at every grid point, so the empirical fractions are monotone
    in s by construction and each point still matches its exact probability
    marginally.  Each row carries the per-trial results in trial order as
    "outcomes".
    """
    seeds = trial_seeds(seed, trials)
    rows = []
    for s in s_grid:
        if s < 0:
            raise ValueError("sample sizes must be nonnegative")
        exact = block_overflow_probability(pair.k_prime, s, pair.m)
        outcomes = [block_overflow_trial(pair, s, t_seed) for t_seed in seeds]
        rows.append(
            {
                "s": s,
                "trials": trials,
                "outcomes": outcomes,
                "overflow_fraction": Fraction(sum(outcomes), trials),
                "exact_probability": exact,
            }
        )
    return rows
