"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE nn <name>: PASS/FAIL` line (run pytest with
-s to see them alongside the assertions).
"""

import math
import time
from fractions import Fraction

import pytest

from binident import (
    Distribution,
    HardInstancePair,
    TestConfig,
    ak_distance,
    balanced_strings,
    bin_identity_test,
    block_overflow_probability,
    brute_force_ak_distance,
    coarsening_distance,
    compositions,
    empirical,
    enumerate_partitions,
    find_hard_pair,
    fingerprints_indistinguishable,
    is_partial_cyclic_shift,
    min_binned_discrepancy,
    moment_vector,
    sample,
    sample_size_curve,
    verify_distance_claim,
)
from conftest import random_distribution
from oracles import brute_force_min_discrepancy, moment_exhaustive, partition_discrepancy


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


def test_01_zero_discrepancy_witness(staircase_p20, reference_q4):
    start = time.monotonic()
    result = min_binned_discrepancy(staircase_p20, reference_q4, True)
    masses = result.witness.masses(staircase_p20)
    elapsed = time.monotonic() - start
    ok = (
        result.delta == 0
        and partition_discrepancy(staircase_p20, result.witness, reference_q4) == 0
        and masses[0] == Fraction(3, 10)
        and masses[2] == Fraction(1, 2)
        and masses[3] == Fraction(1, 5)
        and elapsed < 1.0
    )
    _report(1, "zero-discrepancy witness on the 20-element instance", ok,
            f"delta={result.delta}, witness={result.witness.bounds}, {elapsed:.3f}s")
    assert ok


def test_02_two_mode_coarsening_zero(two_mode_p6, two_mode_q6):
    value = coarsening_distance(two_mode_p6, two_mode_q6)
    count = 0
    best = None
    for partition in enumerate_partitions(6, 6):
        count += 1
        disc = partition_discrepancy(two_mode_p6, partition, two_mode_q6)
        if best is None or disc < best:
            best = disc
    witness = min_binned_discrepancy(two_mode_p6, two_mode_q6, False).witness
    ok = (
        value == 0
        and best == 0
        and count == 462
        and witness.interval(1) == (0, 3)
        and witness.interval(4) == (3, 6)
    )
    _report(2, "two-mode instance coarsens to its reference", ok,
            f"distance={value}, enumerated={count}")
    assert ok


def test_03_dynamic_programs_match_enumeration(rng):
    start = time.monotonic()
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 8)
        k = rng.randint(1, min(4, n))
        p = random_distribution(rng, n)
        q = random_distribution(rng, k)
        for flag in (False, True):
            got = min_binned_discrepancy(p, q, flag)
            want = brute_force_min_discrepancy(p, q, flag)
            assert got.delta == want.delta
            assert got.witness == want.witness
        checked += 1
    ak_checked = 0
    for _ in range(100):
        n = rng.randint(1, 8)
        ell = rng.randint(1, min(4, n))
        a = random_distribution(rng, n)
        b = random_distribution(rng, n)
        assert ak_distance(a, b, ell) == brute_force_ak_distance(a, b, ell)
        ak_checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 100 and ak_checked == 100 and elapsed < 30.0
    _report(3, "dynamic programs equal brute-force enumeration", ok,
            f"{checked}+{ak_checked} instances, {elapsed:.2f}s")
    assert ok


def test_04_tester_guarantees(staircase_p20, reference_q4):
    trials = 200
    accepts = 0
    for t in range(trials):
        cfg = TestConfig(Fraction(1, 10), seed=t)
        if bin_identity_test(staircase_p20, reference_q4, 20, cfg).accepted:
            accepts += 1
    rejects = 0
    far_p = Distribution(["1"])
    far_q = Distribution(["1/2", "1/2"])
    for t in range(trials):
        cfg = TestConfig(Fraction(1, 5), seed=t)
        if not bin_identity_test(far_p, far_q, 1, cfg).accepted:
            rejects += 1
    need = math.ceil(Fraction(5, 6) * trials)
    ok = accepts >= need and rejects >= need
    _report(4, "tester accepts binnable and rejects far sources", ok,
            f"accepts {accepts}/{trials}, rejects {rejects}/{trials}, need {need}")
    assert ok


# Sampling constant for criterion 5: s = ceil(C k / eps^2).  The paper proves
# the O(k / eps^2) rate and leaves C open.  At C = 16 the 90th-percentile
# error is about 1.89 eps/4, under the package sampler and under an
# independent numpy multinomial sampler alike, and the error falls as
# C^(-1/2) (the O(sqrt(k / s)) rate), so the bar needs C >= 16 * 1.89^2 ~ 57.
# 64 is the smallest power of two above that, the constant demo 02 and
# test_tester already call calibrated.
C = 64


def test_05_learner_calibration():
    # s = ceil(C k / eps^2) samples must put the empirical estimate within
    # interval distance eps/4 of a uniform source in >= 90 of 100 runs.
    start = time.monotonic()
    n, k = 200, 10
    eps = Fraction(1, 5)
    p = Distribution.uniform(n)
    samples = math.ceil(C * k / eps**2)
    target = eps / 4
    passes = 0
    for seed in range(100):
        p_hat = empirical(sample(p, samples, seed), n)
        if ak_distance(p_hat, p, k) <= target:
            passes += 1
    elapsed = time.monotonic() - start
    ok = passes >= 90 and elapsed < 60.0
    _report(5, "empirical learner reaches eps/4 interval error", ok,
            f"{passes}/100 within {target} at C={C}, s={samples}, {elapsed:.2f}s")
    assert ok


def test_06_moment_matched_pair_search():
    start = time.monotonic()
    found = find_hard_pair(3, 12, 1)
    assert found is not None
    x, y = found
    p, q = x.to_distribution(), y.to_distribution()
    literal_ok = True
    for s in (1, 2, 3):
        for comp in compositions(s):
            lhs = moment_exhaustive(p, comp)
            rhs = moment_exhaustive(q, comp)
            literal_ok = literal_ok and lhs == rhs
        literal_ok = literal_ok and moment_vector(p, s) == moment_vector(q, s)
    shifted = is_partial_cyclic_shift(x, y, 12).is_shift
    elapsed = time.monotonic() - start
    ok = literal_ok and not shifted and elapsed < 120.0
    _report(6, "moment-matched non-shift pair found and verified", ok,
            f"x={x.symbols}, y={y.symbols}, {elapsed:.2f}s")
    assert ok


@pytest.fixture(scope="module")
def blown_up_pair():
    x, y = find_hard_pair(3, 12, 1)
    return HardInstancePair.build(x, y, 3, 1, 2)


def test_07_blowup_indistinguishable(blown_up_pair):
    results = [
        fingerprints_indistinguishable(blown_up_pair.p_big, blown_up_pair.q_big, s)
        for s in (1, 2, 3)
    ]
    ok = all(r.indistinguishable and r.tv_gap == 0 for r in results)
    _report(7, "blow-up fingerprints indistinguishable for s <= 3", ok,
            f"gaps={[str(r.tv_gap) for r in results]}")
    assert ok


def test_08_blowup_distance_positive(blown_up_pair):
    value = verify_distance_claim(blown_up_pair)
    ok = value == Fraction(2, 15) and value > 0
    _report(8, "blow-up coarsening distance strictly positive", ok,
            f"distance={value} (frozen baseline 2/15)")
    assert ok


def test_09_collision_bounds():
    start = time.monotonic()
    exact = block_overflow_probability(100, 10, 1)
    stay_distinct = Fraction(1)
    for i in range(10):
        stay_distinct *= 1 - Fraction(i, 100)
    birthday_ok = exact == 1 - stay_distinct

    x, y = find_hard_pair(1, 4, 1)
    pair = HardInstancePair.build(x, y, 1, 1, 100)
    rows = sample_size_curve(pair, [2, 4, 6, 8, 10], 10_000, seed=0)
    curve_ok = True
    for row in rows:
        prob = row["exact_probability"]
        sigma_sq = prob * (1 - prob) / row["trials"]
        curve_ok = curve_ok and (row["overflow_fraction"] - prob) ** 2 <= 9 * sigma_sq
    elapsed = time.monotonic() - start
    ok = birthday_ok and curve_ok and elapsed < 60.0
    _report(9, "collision probabilities match birthday bound and simulation", ok,
            f"exact={float(exact):.6f}, {elapsed:.2f}s")
    assert ok


def test_10_counting_invariants():
    partitions = sum(1 for _ in enumerate_partitions(20, 4))
    comps = sum(1 for _ in compositions(5))
    strings = sum(1 for _ in balanced_strings(12))
    ok = partitions == 1771 and comps == 16 and strings == 924
    _report(10, "enumeration counts", ok,
            f"partitions={partitions}, compositions={comps}, strings={strings}")
    assert ok
