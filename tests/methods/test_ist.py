"""Tests for the Interval-Spatial Transformation."""

import pytest

from repro.methods import ISTree
from repro.methods.memory import BruteForceIntervals

from ..conftest import make_intervals


def test_matches_brute_force(rng):
    records = make_intervals(rng, 800, domain=50_000, mean_length=600)
    ist = ISTree()
    ist.bulk_load(sorted(records))
    brute = BruteForceIntervals(records)
    for _ in range(100):
        lower = rng.randrange(0, 55_000)
        upper = lower + rng.randrange(0, 3000)
        assert sorted(ist.intersection(lower, upper)) == \
            sorted(brute.intersection(lower, upper)), (lower, upper)


def test_dynamic_insert_delete(rng):
    records = make_intervals(rng, 300, domain=10_000, mean_length=200)
    ist = ISTree()
    for record in records:
        ist.insert(*record)
    for record in records[::3]:
        ist.delete(*record)
    alive = [r for i, r in enumerate(records) if i % 3 != 0]
    brute = BruteForceIntervals(alive)
    for _ in range(50):
        lower = rng.randrange(0, 11_000)
        upper = lower + rng.randrange(0, 1000)
        assert sorted(ist.intersection(lower, upper)) == \
            sorted(brute.intersection(lower, upper))
    with pytest.raises(KeyError):
        ist.delete(*records[0])


def test_no_redundancy():
    ist = ISTree()
    for i in range(100):
        ist.insert(i, i + 50, i)
    assert ist.index_entry_count == 100
    assert ist.interval_count == 100
    assert ist.redundancy == 1.0


def test_d_order_scan_grows_with_distance_from_upper_bound(rng):
    """The Figure 17 mechanism, observable at unit-test scale."""
    ist = ISTree()
    records = make_intervals(rng, 3000, domain=100_000, mean_length=100)
    ist.bulk_load(sorted(records))
    ist.db.clear_cache()
    with ist.db.measure() as near:
        ist.stab(99_000)
    with ist.db.measure() as far:
        ist.stab(1000)
    assert far.logical_reads > 2 * near.logical_reads
