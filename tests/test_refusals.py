"""Refusals of malformed calls: each raises its own type with an exact message."""

from fractions import Fraction

import pytest

from binident import (
    Distribution,
    HardInstancePair,
    IntervalPartition,
    MassString,
    MomentVector,
    SampleSet,
    TestConfig,
    as_fraction,
    bin_identity_test,
    block_construct,
    compositions,
    greedy_repair,
    is_partial_cyclic_shift,
    make_hard_instance,
    moment_vector,
    sample_size_curve,
)
from binident.harness import distribution_from_json

OPAQUE = object()
U2, U3 = Distribution.uniform(2), Distribution.uniform(3)
SHORT, LONG = MassString("23"), MassString("2233")

REFUSALS = [
    (lambda: distribution_from_json({"n": 2, "pmf": [None, "1"]}),
     ValueError, "entry 1: not a number: None"),
    (lambda: as_fraction(OPAQUE), TypeError, f"cannot interpret {OPAQUE!r} as a rational"),
    (lambda: Distribution.uniform(0), ValueError, "domain size must be at least 1"),
    (lambda: Distribution.point_mass(0, 3), ValueError, "element 0 outside [1, 3]"),
    (lambda: Distribution.from_weights([0, 0]), ValueError, "weights must have positive sum"),
    (lambda: SampleSet([2**63]), ValueError, "sample values must lie below 2^63"),
    (lambda: list(compositions(-1)), ValueError, "s must be nonnegative"),
    (lambda: moment_vector(U2, 0), ValueError, "s must be at least 1"),
    (lambda: MomentVector(2, ()), ValueError, "expected 2 compositions, got 0"),
    (lambda: MomentVector(1, (((1,), Fraction(1, 2)),)),
     ValueError, "fingerprint probabilities sum to 1/2, not 1"),
    (lambda: IntervalPartition([0]), ValueError, "bounds must contain at least 2 entries"),
    (lambda: greedy_repair(U2, IntervalPartition([0, 1, 2]), U3),
     ValueError, "partition has 2 intervals, reference 3 bins"),
    (lambda: is_partial_cyclic_shift(SHORT, LONG, 1), ValueError, "lengths differ: 2 vs 4"),
    (lambda: HardInstancePair.build(SHORT, LONG, 1, 1, 1),
     ValueError, "lengths differ: 2 vs 4"),
    (lambda: block_construct(U2, U3, 1), ValueError, "base domain sizes differ: 2 vs 3"),
    (lambda: block_construct(U2, U2, 0), ValueError, "k_prime must be at least 1"),
    (lambda: sample_size_curve(make_hard_instance(1, 4, 1, 2), [-1], 1, 0),
     ValueError, "sample sizes must be nonnegative"),
    (lambda: bin_identity_test([1, 2], U2, 2, TestConfig(Fraction(1, 2))),
     TypeError, "sample_source must be a Distribution or a SampleSet"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
