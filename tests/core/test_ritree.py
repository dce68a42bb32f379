"""Unit tests for the engine-backed RI-tree."""

import sys

import pytest

from repro.core import RITree
from repro.engine import Database
from repro.methods import BruteForceIntervals

from ..conftest import make_intervals


def test_schema_matches_figure2():
    tree = RITree()
    assert tree.table.columns == ("node", "lower", "upper", "id")
    assert set(tree.table.indexes) == {"lowerIndex", "upperIndex"}
    assert tree.table.indexes["lowerIndex"].columns == ("node", "lower", "id")
    assert tree.table.indexes["upperIndex"].columns == ("node", "upper", "id")


def test_quickstart_docstring_example():
    tree = RITree()
    tree.insert(3, 9, interval_id=1)
    tree.insert(5, 15, interval_id=2)
    assert sorted(tree.intersection(8, 12)) == [1, 2]


def test_empty_tree_queries():
    tree = RITree()
    assert tree.intersection(0, 100) == []
    assert tree.stab(5) == []
    assert tree.interval_count == 0


def test_point_data_and_point_queries():
    tree = RITree()
    for i in range(50):
        tree.insert(i * 2, i * 2, i)
    assert tree.stab(10) == [5]
    assert tree.stab(11) == []
    assert sorted(tree.intersection(9, 15)) == [5, 6, 7]


def test_intersection_equals_brute_force(rng):
    records = make_intervals(rng, 1500)
    tree = RITree()
    brute = BruteForceIntervals()
    for record in records:
        tree.insert(*record)
        brute.insert(*record)
    for _ in range(150):
        lower = rng.randrange(0, 110_000)
        upper = lower + rng.randrange(0, 4000)
        expected = sorted(brute.intersection(lower, upper))
        assert sorted(tree.intersection(lower, upper)) == expected


def test_bulk_load_equals_dynamic_inserts(rng):
    records = make_intervals(rng, 1200)
    bulk = RITree()
    bulk.bulk_load(records)
    dynamic = RITree()
    for record in records:
        dynamic.insert(*record)
    for _ in range(80):
        lower = rng.randrange(0, 110_000)
        upper = lower + rng.randrange(0, 4000)
        expected = sorted(dynamic.intersection(lower, upper))
        assert sorted(bulk.intersection(lower, upper)) == expected
    assert bulk.index_entry_count == dynamic.index_entry_count == 2 * 1200


def test_delete_and_requery(rng):
    records = make_intervals(rng, 800)
    tree = RITree()
    tree.bulk_load(records)
    brute = BruteForceIntervals(records)
    for record in records[::2]:
        tree.delete(*record)
        brute.delete(*record)
    for _ in range(80):
        lower = rng.randrange(0, 110_000)
        upper = lower + rng.randrange(0, 4000)
        expected = sorted(brute.intersection(lower, upper))
        assert sorted(tree.intersection(lower, upper)) == expected
    assert tree.interval_count == 400


def test_delete_missing_raises():
    tree = RITree()
    with pytest.raises(KeyError):
        tree.delete(1, 2, 3)
    tree.insert(1, 2, 3)
    with pytest.raises(KeyError):
        tree.delete(1, 2, 4)
    with pytest.raises(KeyError):
        tree.delete(1, 3, 3)


def test_delete_after_root_growth():
    """fork_node recomputation must find rows registered under old roots."""
    tree = RITree()
    tree.insert(10, 20, 1)
    tree.insert(100, 110, 2)
    tree.insert(1_000_000, 1_000_010, 3)  # grows the right root massively
    tree.delete(100, 110, 2)
    assert sorted(tree.intersection(0, 2_000_000)) == [1, 3]


def test_negative_bounds_supported():
    tree = RITree()
    tree.insert(-100, -50, 1)
    tree.insert(-10, 10, 2)
    tree.insert(5, 50, 3)
    assert sorted(tree.intersection(-60, -5)) == [1, 2]
    assert sorted(tree.intersection(-1000, 1000)) == [1, 2, 3]
    assert tree.intersection(-1000, -500) == []


def test_duplicate_interval_bounds_different_ids():
    tree = RITree()
    tree.insert(5, 10, 1)
    tree.insert(5, 10, 2)
    assert sorted(tree.intersection(7, 7)) == [1, 2]
    tree.delete(5, 10, 1)
    assert tree.intersection(7, 7) == [2]


def test_results_are_duplicate_free(rng):
    records = make_intervals(rng, 600, mean_length=5000)
    tree = RITree()
    tree.bulk_load(records)
    for _ in range(60):
        lower = rng.randrange(0, 110_000)
        upper = lower + rng.randrange(0, 20_000)
        results = tree.intersection(lower, upper)
        assert len(results) == len(set(results))


def test_intersection_records_carries_bounds(rng):
    records = make_intervals(rng, 300)
    tree = RITree()
    tree.bulk_load(records)
    lookup = {record[2]: record[:2] for record in records}
    batches = tree._record_batches(tree.plan(0, 200_000))
    got = [record for batch in batches for record in batch]
    assert len(got) == 300
    for lower, upper, interval_id in got:
        assert lookup[interval_id] == (lower, upper)


def test_query_io_scales_with_results_not_cardinality(rng):
    """The heart of the paper: query cost is O(h log n + r/b), so doubling
    n with the same result size must not double query I/O."""

    def build(count):
        records = [(i * 40, i * 40 + 10, i) for i in range(count)]
        tree = RITree(Database())
        tree.bulk_load(records)
        tree.db.clear_cache()
        return tree

    def io_for(tree):
        with tree.db.measure() as delta:
            for k in range(20):
                tree.intersection(1000 + 400 * k, 1400 + 400 * k)
        return delta.physical_reads

    small_io = io_for(build(5_000))
    large_io = io_for(build(20_000))
    assert large_io < 2.5 * max(small_io, 1)


def test_shared_database_multiple_trees():
    db = Database()
    a = RITree(db, name="A")
    b = RITree(db, name="B")
    a.insert(1, 10, 1)
    b.insert(100, 200, 2)
    assert a.intersection(0, 1000) == [1]
    assert b.intersection(0, 1000) == [2]


def test_height_property_exposed():
    tree = RITree()
    tree.insert(0, 0, 0)
    tree.insert(1, 2**16, 1)
    assert tree.height == tree.backbone.height()
    assert tree.height >= 1


def test_min_lower_max_upper_tracking():
    tree = RITree()
    assert tree.min_lower is None and tree.max_upper is None
    tree.insert(10, 20, 1)
    tree.insert(-5, 8, 2)
    assert tree.min_lower == -5
    assert tree.max_upper == 20


def test_finite_rows_register_without_sentinel_checks():
    """A finite row registers on the backbone directly, and a batch
    accounts its rows (bounds and reserved counts) in one call."""
    tree = RITree()
    tree.bulk_load([(i * 7, i * 7 + i % 50, i) for i in range(1_999)])
    batch = [(14_000 + i, 14_050 + i, 10_000 + i) for i in range(100)]
    calls = []

    def hook(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        tree.append_batch(batch)
    finally:
        sys.setprofile(None)
    assert "sentinel_node" not in calls
    assert calls.count("register") == 100
    assert calls.count("_account") == 1
    assert (tree.min_lower, tree.max_upper) == (0, 14_149)
    assert tree.verify().ok
