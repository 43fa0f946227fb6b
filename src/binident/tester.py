"""End-to-end identity testing up to binning.

The test draws s = ceil(C * k / eps^2) samples, forms the empirical
distribution, minimizes the binned discrepancy against the reference with
the nonemptiness rule on, and accepts when the minimum is at most
eps * ACCEPT_FRACTION = eps/4.  When more reference bins carry positive mass
than the domain has elements, no distribution admits the binning at all and
the test rejects outright.

So the tester decides the flag-on property.  The lower-bound lab measures
the flag-off `coarsening_distance`, which zero-mass insertions never move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .binning import (
    IntervalPartition,
    InfeasibleBinningError,
    min_binned_discrepancy,
)
from .distributions import (
    Distribution,
    Rational,
    SampleSet,
    ak_distance,
    as_fraction,
    empirical,
    sample,
    trial_seeds,
)

ACCEPT = "accept"
REJECT = "reject"
DEFAULT_LEARN_CONSTANT = Fraction(16)  # C in s = ceil(C * k / eps^2)
ACCEPT_FRACTION = Fraction(1, 4)  # accept when delta <= eps * ACCEPT_FRACTION


@dataclass(frozen=True)
class TestConfig:
    """Distance parameter, sampling constant and seed of one test run."""

    __test__ = False  # keep pytest from collecting this as a test class

    epsilon: Fraction
    learn_constant: Fraction
    seed: int

    def __init__(
        self,
        epsilon: Rational,
        learn_constant: Rational = DEFAULT_LEARN_CONSTANT,
        seed: int = 0,
    ):
        eps = as_fraction(epsilon)
        if not 0 < eps <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {eps}")
        c = as_fraction(learn_constant)
        if c <= 0:
            raise ValueError(f"learn constant must be positive, got {c}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "learn_constant", c)
        object.__setattr__(self, "seed", int(seed))

    def sample_budget(self, k: int) -> int:
        """ceil(C * k / eps^2), the number of samples a test run draws."""
        return math.ceil(self.learn_constant * k / self.epsilon**2)

    @property
    def accept_threshold(self) -> Fraction:
        return self.epsilon * ACCEPT_FRACTION


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test run.

    delta and witness are None exactly when the reference admits no binning
    of the domain at all (more positive-mass bins than elements), which
    forces a reject; otherwise verdict == accept iff delta <= threshold.
    """

    __test__ = False

    verdict: str
    delta: Fraction | None
    witness: IntervalPartition | None
    samples_used: int
    p_hat: Distribution
    threshold: Fraction

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPT


def bin_identity_test(
    sample_source: Union[Distribution, SampleSet],
    q: Distribution,
    n: int,
    cfg: TestConfig,
) -> TestReport:
    """Run the binned identity test against reference q over [k].

    A Distribution source is sampled internally with cfg.seed; a SampleSet
    is used as given.  Deterministic for fixed inputs and config.
    """
    k = q.n
    if isinstance(sample_source, Distribution):
        if sample_source.n != n:
            raise ValueError(
                f"source domain {sample_source.n} differs from stated n = {n}"
            )
        s = cfg.sample_budget(k)
        drawn = sample(sample_source, s, cfg.seed)
    elif isinstance(sample_source, SampleSet):
        if sample_source.s == 0:
            raise ValueError("cannot test from an empty sample set")
        drawn = sample_source
    else:
        raise TypeError("sample_source must be a Distribution or a SampleSet")

    p_hat = empirical(drawn, n)
    threshold = cfg.accept_threshold
    try:
        result = min_binned_discrepancy(p_hat, q, require_nonempty_on_support=True)
    except InfeasibleBinningError:
        # No distribution over [n] can realize q at all, so every source is
        # maximally far from the property.
        return TestReport(REJECT, None, None, drawn.s, p_hat, threshold)
    verdict = ACCEPT if result.delta <= threshold else REJECT
    return TestReport(verdict, result.delta, result.witness, drawn.s, p_hat, threshold)


def error_curve(
    p: Distribution,
    q: Distribution,
    epsilons: list,
    trials: int,
    master_seed: int,
    learn_constant: Rational = DEFAULT_LEARN_CONSTANT,
) -> list[dict]:
    """Accept/reject outcomes over an epsilon grid of seeded trials.

    Trial t runs with seed trial_seeds(master_seed, trials)[t] at every
    epsilon, so the whole table is reproducible from master_seed alone.  One
    row per (epsilon, trial) with keys epsilon, trial, seed, samples, delta
    (None when q admits no binning of [n]), threshold (the accept cutoff the
    delta was compared against) and verdict; the accept frequency is
    recomputable from the rows.
    """
    seeds = trial_seeds(master_seed, trials)
    rows = []
    for eps in epsilons:
        eps_f = as_fraction(eps)
        for t, seed in enumerate(seeds):
            cfg = TestConfig(eps_f, learn_constant=learn_constant, seed=seed)
            report = bin_identity_test(p, q, p.n, cfg)
            rows.append(
                {
                    "epsilon": eps_f,
                    "trial": t,
                    "seed": seed,
                    "samples": report.samples_used,
                    "delta": report.delta,
                    "threshold": report.threshold,
                    "verdict": report.verdict,
                }
            )
    return rows


def calibration_curve(
    p: Distribution,
    k: int,
    epsilon: Rational,
    trials: int,
    master_seed: int,
    learn_constant: Rational = DEFAULT_LEARN_CONSTANT,
) -> list[dict]:
    """Interval-distance error of the tester's learning step, per seeded trial.

    Trial t draws the tester's sample budget ceil(C * k / eps^2) from p with
    seed trial_seeds(master_seed, trials)[t] and measures the A_k distance
    of the empirical distribution from p against the accept threshold.  One
    row per trial with keys trial, seed, samples, ak_error, target and
    passed.
    """
    seeds = trial_seeds(master_seed, trials)
    cfg = TestConfig(epsilon, learn_constant)
    target = cfg.accept_threshold
    samples = cfg.sample_budget(k)
    rows = []
    for t, seed in enumerate(seeds):
        err = ak_distance(empirical(sample(p, samples, seed), p.n), p, k)
        rows.append(
            {
                "trial": t,
                "seed": seed,
                "samples": samples,
                "ak_error": err,
                "target": target,
                "passed": err <= target,
            }
        )
    return rows


def accept_rate(rows: list[dict], epsilon: Rational) -> Fraction:
    """Fraction of accepting trials at one epsilon of an error_curve table."""
    eps = as_fraction(epsilon)
    relevant = [r for r in rows if r["epsilon"] == eps]
    if not relevant:
        raise ValueError(f"no rows at epsilon {eps}")
    hits = sum(1 for r in relevant if r["verdict"] == ACCEPT)
    return Fraction(hits, len(relevant))
