"""Size guards for the exact enumeration and DP kernels.

Every guarded operation estimates its work in its own unit (partitions
yielded, strings enumerated, DP transitions, ...) and compares it against a
named ceiling.  Setting the environment variable ``BINIDENT_BUDGET`` to a
positive integer replaces *every* ceiling with that value; it is a blunt
instrument for "I know what I am doing" runs.
"""

from __future__ import annotations

import os

ENV_VAR = "BINIDENT_BUDGET"

# Default ceilings, keyed by guard name.  Units differ per guard and are
# spelled out in the error message.
DEFAULT_LIMITS: dict[str, int] = {
    "partition_enumeration": 1_400_000,  # partitions yielded (n + k <= 24)
    "moment_terms": 25_000,              # DP cells (covers s <= 6, n <= 64)
    "moment_literal_terms": 6_000_000,   # literal summation steps
    "hard_pair_strings": 184_756,        # balanced strings, C(b, b/2) at b = 20
    "blowup_elements": 100_000,          # blown-up domain size b * k'
    # The transitions of the former k'-block occupancy DP, kept because they
    # bound the s*m steps of the overflow recurrence.
    "overflow_transitions": 2_000_000,
    "sample_draws": 10_000_000,          # draws in one sample() call
    "binning_cells": 4_000_000,          # binning DP cells, (n + 1) * k
    "scale_bits": 2048,                  # bits of a kernel's common scale
}


class BudgetExceededError(RuntimeError):
    """An exact operation would exceed its enumeration budget."""


def limit(name: str) -> int:
    """Ceiling for the named guard, honoring the environment override."""
    raw = os.environ.get(ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise BudgetExceededError(
                f"{ENV_VAR} must be a positive integer, got {raw!r}"
            ) from None
        if value <= 0:
            raise BudgetExceededError(f"{ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_LIMITS[name]


def check(name: str, work: int, unit: str) -> None:
    """Raise BudgetExceededError when `work` exceeds the named ceiling."""
    ceiling = limit(name)
    if work > ceiling:
        # Huge counts are shown by magnitude: str() refuses ints over 4300 digits.
        shown = work if work.bit_length() <= 64 else f"over 2^{work.bit_length() - 1}"
        raise BudgetExceededError(
            f"{name}: {shown} {unit} exceeds budget {ceiling}"
            f" (override with {ENV_VAR})"
        )
