"""The public namespace: `__all__` matches what `__init__` imports, and the
oracles and helpers that live with the tests are not reachable from the
library."""

import ast
import importlib
from pathlib import Path

import binident
from binident.budgets import DEFAULT_LIMITS

PACKAGE = Path(binident.__file__).parent

# Oracles and helpers in tests/oracles.py, and the partition JSON that no
# path reads or writes.
REMOVED = {
    "brute_force_min_discrepancy",
    "partition_discrepancy",
    "_admissible",
    "moment_exhaustive",
    "kolmogorov_distance",
    "partition_to_json",
    "partition_from_json",
}
REMOVED_METHODS = [
    ("Distribution", "reversed"),
    ("IntervalPartition", "identity"),
    ("OrderedFingerprint", "from_key"),
]


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(binident.__all__) == sorted([*imported, "__version__"])
    assert len(set(binident.__all__)) == len(binident.__all__)


def test_every_public_name_resolves():
    for name in binident.__all__:
        assert getattr(binident, name) is not None, name


def test_test_oracles_are_not_in_the_library():
    modules = [binident] + [
        importlib.import_module(f"binident.{path.stem}")
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
    ]
    for module in modules:
        assert not REMOVED & set(vars(module)), module.__name__
        for cls, method in REMOVED_METHODS:
            if hasattr(module, cls):
                assert not hasattr(getattr(module, cls), method), f"{cls}.{method}"
    assert "moment_literal_terms" not in DEFAULT_LIMITS
