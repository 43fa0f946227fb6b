"""Tests for the enumeration size guards and their environment override."""

import ast
from pathlib import Path

import pytest

from fractions import Fraction

import binident
from binident import (
    BudgetExceededError,
    Distribution,
    balanced_strings,
    enumerate_partitions,
    min_binned_discrepancy,
    moment_vector,
    sample,
)
from binident.budgets import DEFAULT_LIMITS, limit
from binident.distributions import to_integers


class TestLimits:
    def test_defaults(self):
        assert limit("partition_enumeration") == DEFAULT_LIMITS["partition_enumeration"]

    def test_override_applies_to_every_guard(self, monkeypatch):
        monkeypatch.setenv("BINIDENT_BUDGET", "10")
        for name in DEFAULT_LIMITS:
            assert limit(name) == 10

    def test_override_must_be_a_positive_integer(self, monkeypatch):
        monkeypatch.setenv("BINIDENT_BUDGET", "lots")
        with pytest.raises(BudgetExceededError, match="positive integer"):
            limit("moment_terms")
        monkeypatch.setenv("BINIDENT_BUDGET", "-3")
        with pytest.raises(BudgetExceededError, match="positive"):
            limit("moment_terms")


class TestGuardedOperations:
    def test_tight_budget_blocks_small_runs(self, monkeypatch):
        monkeypatch.setenv("BINIDENT_BUDGET", "2")
        with pytest.raises(BudgetExceededError):
            list(enumerate_partitions(2, 2))

    def test_raised_budget_unblocks(self, monkeypatch):
        monkeypatch.setenv("BINIDENT_BUDGET", "1000000")
        assert sum(1 for _ in balanced_strings(4)) == 6

    def test_sample_draw_ceiling(self, monkeypatch):
        monkeypatch.setenv("BINIDENT_BUDGET", "100")
        d = Distribution.uniform(3)
        assert sample(d, 100, 0).s == 100
        with pytest.raises(BudgetExceededError, match="sample_draws: 101 draws"):
            sample(d, 101, 0)

    def test_huge_work_reported_by_magnitude(self):
        # 3 * 20001 * 2^19998 DP cells: over 6000 digits, past what str() formats.
        with pytest.raises(BudgetExceededError, match=r"over 2\^20013 DP cells"):
            moment_vector(Distribution.uniform(2), 20000)

    def test_scale_bits_refused_before_scaling(self):
        # 3^1400 has 2219 bits: past the default, which admits every
        # float-derived pmf (denominators up to 2^1074).
        tiny = Fraction(1, 3**1400)
        wide = Distribution([tiny, 1 - tiny])
        with pytest.raises(
            BudgetExceededError,
            match="scale_bits: 2219 bits of common scale exceeds budget 2048",
        ):
            to_integers(wide)
        with pytest.raises(BudgetExceededError, match="scale_bits: 2219"):
            min_binned_discrepancy(Distribution.uniform(3), wide, False)
        floats = Distribution([Fraction(5e-324), 1 - Fraction(5e-324)])
        (weights, _), scale = to_integers(floats, Distribution.uniform(3))
        assert scale == 3 * 2**1074 and sum(weights) == scale



def test_every_ceiling_is_checked_by_name():
    # A ceiling that no guard names is dead, and a misspelt guard name
    # fails only when its guard runs.
    checked = set()
    for path in Path(binident.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "check"
                and isinstance(func.value, ast.Name)
                and func.value.id == "budgets"
            ):
                name = node.args[0]
                assert isinstance(name, ast.Constant), ast.unparse(node)
                checked.add(name.value)
    assert checked == set(DEFAULT_LIMITS)
