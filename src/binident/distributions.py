"""Exact-rational discrete distributions over [n] = {1, ..., n}.

Probability masses are `fractions.Fraction` throughout, so distances and
moment computations elsewhere in the package can assert exact equality.
Sampling is the single place floating away from rationals: draws compare a
64-bit uniform integer against rounded cumulative thresholds, which keeps
runs reproducible at a documented per-draw bias below 2**-63.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence, Union

import numpy as np

from . import budgets

RESOLUTION_BITS = 64
_SCALE = 1 << RESOLUTION_BITS

Rational = Union[Fraction, int, str, float]


def as_fraction(value: Rational) -> Fraction:
    """Coerce ints, "a/b" strings, floats (exact binary value) to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not probabilities")
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def normalize_seed(seed: int) -> int:
    """Reduce an arbitrary integer seed to the 64-bit RNG key domain."""
    return int(seed) % (1 << 64)


def trial_seeds(master_seed: int, trials: int) -> range:
    """The seeds of trials 0, ..., trials - 1 of a seeded experiment.

    Trial t runs with normalize_seed(master_seed) + t, so the seeds past
    2**64 - 1 are not reduced again.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    base = normalize_seed(master_seed)
    return range(base, base + trials)


@dataclass(frozen=True)
class Distribution:
    """A probability distribution over [n], stored as exact masses.

    Besides the masses every distribution holds one integer form, the
    weights pmf[i] * scale for a common scale with sum(weights) == scale;
    the exact kernels read it through `to_integers`.
    """

    pmf: tuple[Fraction, ...]

    def __init__(self, pmf: Iterable[Rational]):
        masses = tuple(as_fraction(v) for v in pmf)
        if not masses:
            raise ValueError("domain size must be at least 1")
        scale = math.lcm(*(v.denominator for v in masses))
        weights = tuple(v.numerator * (scale // v.denominator) for v in masses)
        for i, w in enumerate(weights):
            if w < 0:
                raise ValueError(f"negative mass {masses[i]} at element {i + 1}")
        total = sum(weights)
        if total != scale:
            total = Fraction(total, scale)
            raise ValueError(f"masses sum to {total}, not 1 (deficit {1 - total})")
        object.__setattr__(self, "pmf", masses)
        object.__setattr__(self, "_integer", (weights, scale))

    @classmethod
    def _trusted(cls, weights: tuple[int, ...], scale: int) -> "Distribution":
        """The distribution weights[i] / scale, for weights known to be
        nonnegative with sum(weights) == scale; the scale need not be the
        least common denominator."""
        d = object.__new__(cls)
        object.__setattr__(d, "pmf", tuple(Fraction(w, scale) for w in weights))
        object.__setattr__(d, "_integer", (weights, scale))
        return d

    @property
    def n(self) -> int:
        return len(self.pmf)

    @cached_property
    def prefix(self) -> tuple[Fraction, ...]:
        """Cumulative masses: prefix[0] = 0, prefix[n] = 1."""
        weights, scale = self._integer
        return tuple(Fraction(c, scale) for c in accumulate(weights, initial=0))

    @cached_property
    def _cdf_thresholds(self) -> np.ndarray:
        # ceil(prefix[i] * 2**64) for i = 1..n; a draw u lands on the smallest
        # element whose threshold exceeds u, so zero-mass elements are
        # unreachable (their threshold repeats the previous one).  Thresholds
        # of 2**64 or more form a suffix that no 64-bit draw reaches; they are
        # dropped so the rest fit in uint64.
        weights, scale = self._integer
        out = []
        for c in accumulate(weights):
            t = -((-c << RESOLUTION_BITS) // scale)
            if t >= _SCALE:
                break
            out.append(t)
        return np.array(out, dtype=np.uint64)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        if n < 1:
            raise ValueError("domain size must be at least 1")
        return cls([Fraction(1, n)] * n)

    @classmethod
    def point_mass(cls, at: int, n: int) -> "Distribution":
        if not 1 <= at <= n:
            raise ValueError(f"element {at} outside [1, {n}]")
        return cls([Fraction(int(i == at)) for i in range(1, n + 1)])

    @classmethod
    def from_weights(cls, weights: Sequence[Rational]) -> "Distribution":
        """Normalize nonnegative weights into exact masses."""
        ws = [as_fraction(w) for w in weights]
        total = sum(ws)
        if total <= 0:
            raise ValueError("weights must have positive sum")
        return cls([w / total for w in ws])

    def mass(self, lo: int, hi: int) -> Fraction:
        """Mass of the interval (lo, hi], 0 <= lo <= hi <= n."""
        return self.prefix[hi] - self.prefix[lo]

    def __repr__(self) -> str:
        body = ", ".join(str(v) for v in self.pmf)
        return f"Distribution([{body}])"


def _as_draw(value) -> int:
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"sample value {value} is not an integer")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Values drawn from a distribution over [n], in draw order.

    The draws are held as a read-only int64 array; `values` is the same
    sequence as a tuple of Python ints, built on first use.  Equality and
    hashing go by (draws, seed).
    """

    draws: np.ndarray
    seed: int | None = None

    def __init__(self, values: Iterable[int] | np.ndarray, seed: int | None = None):
        if isinstance(values, np.ndarray):
            if values.size and values.dtype.kind not in "iu":
                raise ValueError(f"sample value {values.flat[0]} is not an integer")
            draws = values.astype(np.int64)
        else:
            try:
                draws = np.array([_as_draw(v) for v in values], dtype=np.int64)
            except OverflowError:
                raise ValueError("sample values must lie below 2^63") from None
        if draws.size and (low := draws.min()) < 1:
            raise ValueError(f"sample value {low} outside [1, n]")
        draws.flags.writeable = False
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "seed", seed)

    @classmethod
    def _trusted(cls, draws: np.ndarray, seed: int | None) -> "SampleSet":
        """A sample set that takes over an int64 array of values >= 1."""
        out = object.__new__(cls)
        draws.flags.writeable = False
        object.__setattr__(out, "draws", draws)
        object.__setattr__(out, "seed", seed)
        return out

    @cached_property
    def values(self) -> tuple[int, ...]:
        return tuple(self.draws.tolist())

    @property
    def s(self) -> int:
        return len(self.draws)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.seed == other.seed and np.array_equal(self.draws, other.draws)

    def __hash__(self):
        return hash((self.draws.tobytes(), self.seed))


_thread = threading.local()


def _keyed_philox(seed: int) -> np.random.Philox:
    """This thread's Philox generator, set to the start of seed's stream.

    The state is the one `np.random.Philox(key=normalize_seed(seed))` starts
    in: counter 0, an empty 4-word buffer.  Re-keying through `state` skips
    the OS-entropy SeedSequence that constructing a generator first builds.
    """
    gen = getattr(_thread, "philox", None)
    if gen is None:
        gen = _thread.philox = np.random.Philox()
    gen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (normalize_seed(seed), 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def sample(d: Distribution, s: int, seed: int) -> SampleSet:
    """Draw s values from d, deterministically for a given seed.

    The raw draws are the stream of `np.random.Philox(key=seed mod 2**64)`,
    the counter-based Philox 4x64 generator; each thread re-keys its own
    generator to that stream rather than building one per call.  Each raw
    64-bit output u selects the smallest element i with
    u < ceil(prefix[i] * 2**64).  Per-element probabilities differ from the
    exact masses by less than 2**-64 (< 2**-63 per draw), and zero-mass
    elements are never drawn.
    """
    if s < 0:
        raise ValueError("sample count must be nonnegative")
    budgets.check("sample_draws", s, "draws")
    raws = _keyed_philox(seed).random_raw(s)
    values = np.searchsorted(d._cdf_thresholds, raws, side="right")
    values += 1  # in place: large draws hold one s-entry array fewer at peak
    return SampleSet._trusted(values, seed)


def empirical(samples: SampleSet, n: int) -> Distribution:
    """The empirical distribution of the samples over [n]."""
    s = samples.s
    if s == 0:
        raise ValueError("cannot build an empirical distribution from no samples")
    top = int(samples.draws.max())
    if top > n:
        raise ValueError(f"sample value {top} exceeds domain size {n}")
    counts = np.bincount(samples.draws, minlength=n + 1)[1:]
    # Counts over s draws are a valid integer form with scale s as they stand.
    return Distribution._trusted(tuple(counts.tolist()), s)


def _require_same_domain(d1: Distribution, d2: Distribution) -> None:
    if d1.n != d2.n:
        raise ValueError(f"domain sizes differ: {d1.n} vs {d2.n}")


def total_variation(d1: Distribution, d2: Distribution) -> Fraction:
    """Half the l1 distance between the mass functions, exactly."""
    _require_same_domain(d1, d2)
    return sum(abs(a - b) for a, b in zip(d1.pmf, d2.pmf)) / 2


def to_integers(*dists: Distribution) -> tuple[list[Sequence[int]], int]:
    """Integer masses of several distributions over one common scale.

    Returns (scaled, scale) with scaled[v][i] = dists[v].pmf[i] * scale,
    where scale is the LCM of the distributions' own integer scales.  This is
    the package's single place that hands integers to the exact kernels.
    Scales longer than the `scale_bits` budget are refused before any
    weight is scaled, since every kernel step then does big-integer work.
    """
    scale = math.lcm(*(d._integer[1] for d in dists))
    budgets.check("scale_bits", scale.bit_length(), "bits of common scale")
    scaled = []
    for d in dists:
        weights, own = d._integer
        factor = scale // own
        scaled.append(weights if factor == 1 else [w * factor for w in weights])
    return scaled, scale


def prefix_sums(weights: Sequence[int], scale: int) -> np.ndarray:
    """[0, w1, w1 + w2, ..., sum(weights)] as the array of the interval DPs.

    Both DPs form values of magnitude at most 2 * inf = 8 * scale + 2, inf
    being the binning sentinel 4 * scale + 1.  So the array is int64 while
    inf.bit_length() < 62, where every value stays below 2^63, and else
    object: the same code on Python ints, bounded by the `scale_bits` guard.
    """
    dtype = np.int64 if (4 * scale + 1).bit_length() < 62 else object
    out = np.zeros(len(weights) + 1, dtype=dtype)
    np.cumsum(np.asarray(weights, dtype=dtype), out=out[1:])
    return out


def ak_distance(d1: Distribution, d2: Distribution, ell: int) -> Fraction:
    """Max over ell-interval partitions of the summed interval-mass gaps.

    Interpolates between twice the Kolmogorov distance (ell = 2) and twice
    the total variation (ell = n).  Computed exactly by ell - 1 whole-row
    running-maximum passes over the integer-scaled prefix differences, O(n *
    ell) array work under the `binning_cells` ceiling on (n + 1) * ell; the
    enumeration oracle in `binning` cross-checks it at small sizes.
    """
    _require_same_domain(d1, d2)
    n = d1.n
    if not 1 <= ell <= n:
        raise ValueError(f"interval count {ell} outside [1, {n}]")
    budgets.check("binning_cells", (n + 1) * ell, "DP cells")
    (w1, w2), scale = to_integers(d1, d2)
    diffs = prefix_sums(w1, scale) - prefix_sums(w2, scale)
    # best[i] = max value of a j-interval partition of the first i elements,
    # from j = 1 (one interval, |diffs[i]|) up to ell.  The next row is the
    # max over i' <= i of best[i'] + |diffs[i] - diffs[i']|, and
    # |x| = max(x, -x) splits it into running maxima of best +- diffs.
    best = np.abs(diffs)
    for _ in range(ell - 1):
        best = np.maximum(
            np.maximum.accumulate(best + diffs) - diffs,
            np.maximum.accumulate(best - diffs) + diffs,
        )
    return Fraction(int(best[n]), scale)
