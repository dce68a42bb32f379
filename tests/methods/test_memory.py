"""Tests for the main-memory reference structures (paper Section 2.1)."""

import pytest

from repro.methods import BruteForceIntervals, IntervalTree, SegmentTree

from ..conftest import make_intervals


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


def test_interval_tree_matches_brute_force(rng):
    records = make_intervals(rng, 1000, domain=20_000, mean_length=400)
    points = [b for r in records for b in (r[0], r[1])]
    tree = IntervalTree(points)
    brute = BruteForceIntervals()
    for record in records:
        tree.insert(*record)
        brute.insert(*record)
    for _ in range(200):
        lower = rng.randrange(0, 22_000)
        upper = lower + rng.randrange(0, 2000)
        assert sorted(tree.intersection(lower, upper)) == \
            sorted(brute.intersection(lower, upper))


def test_interval_tree_delete(rng):
    records = make_intervals(rng, 400, domain=5000, mean_length=100)
    points = [b for r in records for b in (r[0], r[1])]
    tree = IntervalTree(points)
    for record in records:
        tree.insert(*record)
    for record in records[::2]:
        tree.delete(*record)
    brute = BruteForceIntervals(records[1::2])
    for _ in range(60):
        lower = rng.randrange(0, 6000)
        upper = lower + rng.randrange(0, 500)
        assert sorted(tree.intersection(lower, upper)) == \
            sorted(brute.intersection(lower, upper))
    with pytest.raises(KeyError):
        tree.delete(*records[0])


def test_interval_tree_rejects_interval_outside_universe():
    tree = IntervalTree([10, 20, 30])
    with pytest.raises(ValueError):
        tree.insert(0, 5, 1)  # embraces no universe point


def test_interval_tree_empty_universe_rejected():
    with pytest.raises(ValueError):
        IntervalTree([])


def test_segment_tree_matches_brute_force(rng):
    records = make_intervals(rng, 600, domain=10_000, mean_length=300)
    points = [b for r in records for b in (r[0], r[1])]
    seg = SegmentTree(points)
    brute = BruteForceIntervals()
    for record in records:
        seg.insert(*record)
        brute.insert(*record)
    for _ in range(150):
        lower = rng.randrange(0, 11_000)
        upper = lower + rng.randrange(0, 800)
        assert sorted(seg.intersection(lower, upper)) == \
            sorted(brute.intersection(lower, upper))
    for _ in range(100):
        point = rng.randrange(0, 11_000)
        assert sorted(seg.stab(point)) == sorted(brute.stab(point))


def test_segment_tree_redundancy_exceeds_one(rng):
    """The decomposition redundancy that the interval tree avoids."""
    records = make_intervals(rng, 300, domain=10_000, mean_length=1000)
    points = [b for r in records for b in (r[0], r[1])]
    seg = SegmentTree(points)
    for record in records:
        seg.insert(*record)
    assert seg.redundancy > 1.0
    assert len(seg) == 300


def test_segment_tree_point_only_redundancy_is_one():
    seg = SegmentTree([1, 2, 3])
    seg.insert(1, 1, 10)
    seg.insert(2, 2, 11)
    assert seg.redundancy == 1.0
