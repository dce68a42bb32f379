"""Batched RI-tree query execution vs the per-entry reference plan.

``intersection`` (batched) must agree with ``intersection_per_entry``
(the retained pre-batching execution) on results *and* on the exact
logical/physical I/O trace -- the invariant that keeps the Section 6
reproduction honest after the pipeline refactor.
"""

import pytest

from repro.core import RITree
from repro.engine import Database

from ..conftest import make_intervals


@pytest.fixture
def loaded_records(rng):
    return make_intervals(rng, 1500)


@pytest.fixture
def loaded_tree(loaded_records):
    tree = RITree(Database(block_size=512, cache_blocks=32))
    tree.bulk_load(loaded_records)
    tree.db.flush()
    return tree


QUERIES = [
    (0, 100_000),
    (40_000, 45_000),
    (99_000, 120_000),
    (7, 7),
    (0, 0),
    (60_000, 60_001),
    (-50, 10),
]


def test_batched_matches_per_entry_results(loaded_tree):
    for lower, upper in QUERIES:
        expected = loaded_tree.intersection_per_entry(lower, upper)
        assert loaded_tree.intersection(lower, upper) == expected


def test_batched_matches_per_entry_io(loaded_tree):
    db = loaded_tree.db
    for lower, upper in QUERIES:
        db.clear_cache()
        with db.measure() as per_entry:
            loaded_tree.intersection_per_entry(lower, upper)
        db.clear_cache()
        with db.measure() as batched:
            loaded_tree.intersection(lower, upper)
        assert batched.logical_reads == per_entry.logical_reads
        assert batched.physical_reads == per_entry.physical_reads


def test_intersection_count_matches_len(loaded_tree):
    db = loaded_tree.db
    for lower, upper in QUERIES:
        ids = loaded_tree.intersection(lower, upper)
        db.clear_cache()
        with db.measure() as counted:
            count = loaded_tree.intersection_count(lower, upper)
        assert count == len(ids)
        db.clear_cache()
        with db.measure() as materialised:
            loaded_tree.intersection(lower, upper)
        assert counted.logical_reads == materialised.logical_reads
        assert counted.physical_reads == materialised.physical_reads


def test_intersection_many_matches_single_queries(loaded_tree):
    queries = QUERIES[:4]
    expected = [loaded_tree.intersection(lower, upper) for lower, upper in queries]
    assert loaded_tree.intersection_many(queries) == expected


def test_dynamic_tree_parity(rng):
    tree = RITree(Database(block_size=512, cache_blocks=32))
    records = make_intervals(rng, 400)
    for lower, upper, interval_id in records:
        tree.insert(lower, upper, interval_id)
    for lower, upper, _ in records[::37]:
        expected = sorted(tree.intersection_per_entry(lower, upper))
        assert sorted(tree.intersection(lower, upper)) == expected
    # Deletions keep the two executions in lockstep.
    for lower, upper, interval_id in records[::5]:
        tree.delete(lower, upper, interval_id)
    for lower, upper, _ in records[::37]:
        expected = tree.intersection_per_entry(lower, upper)
        assert tree.intersection(lower, upper) == expected


def test_empty_tree_queries():
    tree = RITree(Database(block_size=512, cache_blocks=32))
    assert tree.intersection(0, 10) == []
    assert tree.intersection_count(0, 10) == 0
    assert tree.intersection_per_entry(0, 10) == []


def _intersection_records(tree, lower, upper):
    """The record batches of the intersection plan, flattened."""
    batches = tree._record_batches(tree.plan(lower, upper))
    return [record for batch in batches for record in batch]


def test_intersection_records_parity(loaded_tree, loaded_records):
    """Record batches (what predicate queries and joins refine) carry
    both bounds and cover exactly the id-level intersection."""
    records = loaded_records
    expected = {(lower, upper, interval_id) for lower, upper, interval_id in records}
    got = _intersection_records(loaded_tree, 0, 200_000)
    assert set(got) == expected
    assert len(got) == len(records)
    for lower, upper in QUERIES[:4]:
        ids = sorted(loaded_tree.intersection(lower, upper))
        fetched = _intersection_records(loaded_tree, lower, upper)
        rec_ids = sorted(i for _, _, i in fetched)
        assert rec_ids == ids
