"""Tests for the oracle store."""

import pytest

from repro.methods import BruteForceIntervals


def test_brute_force_basic():
    brute = BruteForceIntervals([(0, 10, 1), (5, 15, 2)])
    assert sorted(brute.intersection(8, 9)) == [1, 2]
    assert brute.intersection(11, 12) == [2]
    assert brute.stab(0) == [1]
    assert brute.interval_count == 2


def test_brute_force_keeps_repeated_records_with_multiplicity():
    brute = BruteForceIntervals()
    brute.insert(0, 1, 7)
    brute.insert(5, 6, 7)
    brute.insert(5, 6, 7)
    assert sorted(brute.intersection(0, 10)) == [7, 7, 7]
    assert brute.interval_count == 3
    brute.delete(5, 6, 7)
    assert sorted(brute.stored_records()) == [(0, 1, 7), (5, 6, 7)]


def test_brute_force_delete_checks_bounds():
    brute = BruteForceIntervals([(0, 10, 1)])
    with pytest.raises(KeyError):
        brute.delete(0, 11, 1)
    brute.delete(0, 10, 1)
    assert brute.interval_count == 0
