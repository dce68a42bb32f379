"""Execute the doctest examples embedded in the public API docstrings."""

import doctest

import pytest

import repro.core.join
import repro.core.ritree
import repro.core.temporal
import repro.sql.ritree_sql

MODULES = [
    repro.core.join,
    repro.core.ritree,
    repro.core.temporal,
    repro.sql.ritree_sql,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    outcome = doctest.testmod(module, verbose=False)
    assert outcome.attempted > 0, f"{module.__name__} has no doctests"
    assert outcome.failed == 0
