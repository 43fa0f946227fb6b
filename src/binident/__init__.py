"""Identity testing of discrete distributions up to binning.

Exact-rational distributions and distances, interval-partition dynamic
programs, an end-to-end sample-based tester, ordered-fingerprint moment
computations, and a lab for constructing moment-matched hard instance
pairs with their block blow-ups and collision bounds.
"""

from .budgets import BudgetExceededError
from .distributions import (
    Distribution,
    SampleSet,
    ak_distance,
    as_fraction,
    empirical,
    sample,
    total_variation,
)
from .binning import (
    BinningResult,
    InfeasibleBinningError,
    IntervalPartition,
    brute_force_ak_distance,
    coarsening_distance,
    enumerate_partitions,
    greedy_repair,
    min_binned_discrepancy,
)
from .fingerprints import (
    IndistinguishabilityResult,
    MomentVector,
    OrderedFingerprint,
    compositions,
    fingerprint_of,
    fingerprints_indistinguishable,
    moment,
    moment_vector,
)
from .lowerbound import (
    CyclicShiftResult,
    HardInstancePair,
    MassString,
    balanced_strings,
    block_construct,
    block_overflow_probability,
    find_hard_pair,
    is_partial_cyclic_shift,
    make_hard_instance,
    sample_size_curve,
    verify_distance_claim,
)
from .tester import (
    TestConfig,
    TestReport,
    accept_rate,
    bin_identity_test,
    calibration_curve,
    error_curve,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    load_distribution,
    load_hard_pair,
    run_experiment,
    store_distribution,
    store_hard_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Distribution",
    "SampleSet",
    "ak_distance",
    "as_fraction",
    "empirical",
    "sample",
    "total_variation",
    "BinningResult",
    "InfeasibleBinningError",
    "IntervalPartition",
    "brute_force_ak_distance",
    "coarsening_distance",
    "enumerate_partitions",
    "greedy_repair",
    "min_binned_discrepancy",
    "IndistinguishabilityResult",
    "MomentVector",
    "OrderedFingerprint",
    "compositions",
    "fingerprint_of",
    "fingerprints_indistinguishable",
    "moment",
    "moment_vector",
    "CyclicShiftResult",
    "HardInstancePair",
    "MassString",
    "balanced_strings",
    "block_construct",
    "block_overflow_probability",
    "find_hard_pair",
    "is_partial_cyclic_shift",
    "make_hard_instance",
    "sample_size_curve",
    "verify_distance_claim",
    "TestConfig",
    "TestReport",
    "accept_rate",
    "bin_identity_test",
    "calibration_curve",
    "error_curve",
    "ExperimentResult",
    "ExperimentSpec",
    "load_distribution",
    "load_hard_pair",
    "run_experiment",
    "store_distribution",
    "store_hard_pair",
    "__version__",
]
