"""Tests for now/infinity handling (paper Section 4.6)."""

import pytest

from repro.core import FORK_INF, FORK_NOW, UPPER_INF, UPPER_NOW, RITree
from repro.engine import Database
from repro.methods import BruteForceIntervals


def test_docstring_example():
    tree = RITree(now=100)
    tree.insert(10, 20, interval_id=1)
    tree.insert(50, UPPER_NOW, interval_id=2)
    tree.insert(80, UPPER_INF, interval_id=3)
    assert sorted(tree.intersection(90, 95)) == [2, 3]
    tree.advance_to(200)
    assert sorted(tree.intersection(150, 160)) == [2, 3]


def test_infinite_interval_always_reachable_from_any_future_query():
    tree = RITree()
    tree.insert(5, UPPER_INF, 1)
    assert tree.intersection(1_000_000, 2_000_000) == [1]
    assert tree.intersection(0, 4) == []
    assert tree.stab(5) == [1]


def test_now_interval_grows_with_clock():
    tree = RITree(now=100)
    tree.insert(50, UPPER_NOW, 1)
    assert tree.intersection(90, 95) == [1]
    assert tree.intersection(101, 200) == []  # query beyond now
    tree.advance_to(150)
    assert tree.intersection(101, 200) == [1]  # now moved past the query


def test_now_injection_condition():
    """FORK_NOW is scanned only when the query begins in the past."""
    tree = RITree(now=100)
    tree.insert(10, UPPER_NOW, 1)
    # Query entirely in the future: hook must not fire.
    assert tree.intersection(101, 500) == []
    # Query starting exactly at now: fires.
    assert tree.intersection(100, 500) == [1]


def test_clock_monotonicity():
    tree = RITree(now=100)
    with pytest.raises(ValueError):
        tree.advance_to(99)
    tree.advance_to(100)  # no-op is fine


def test_now_insert_in_future_rejected():
    tree = RITree(now=100)
    with pytest.raises(ValueError):
        tree.insert(101, UPPER_NOW, 1)


def test_reserved_fork_nodes_are_disjoint_from_data_nodes():
    tree = RITree(now=0)
    tree.insert(0, 2**40, 1)  # pushes the backbone as far as permitted
    assert tree.backbone.right_root < FORK_NOW < FORK_INF


def test_append_batch_closes_a_now_relative_row():
    tree = RITree(now=1000)
    tree.insert(100, UPPER_NOW, 1)
    tree.append_batch([], closes=[(100, 1, 500)])
    assert tree.now_relative_count == 0
    assert tree.intersection(400, 600) == [1]
    assert tree.intersection(501, 2000) == []


def test_a_batch_is_one_insert_one_delete_and_one_meta_record():
    """Records and closures in one call: the stored open rows it closes
    go in one ``delete`` record; its records, the row it opens and
    closes in place and the closed rows in one ``insert`` record."""
    db = Database(wal=True)
    tree = RITree(db, now=1000)
    tree.append_batch([(5, 50, 1)] + [(100 + i, UPPER_NOW, 10 + i) for i in range(6)])
    forces, logged = db.wal.forces, db.wal.durable_records
    tree.append_batch(
        [(600, 700, 2), (990, UPPER_NOW, 3)],
        closes=[(104, 14, 900), (990, 3, 995), (101, 11, 800), (102, 12, 102)],
    )
    records = db.wal.records()[logged:]
    assert [r["t"] for r in records] == ["begin", "delete", "insert", "meta", "commit"]
    assert db.wal.forces - forces == 1
    assert len(records[1]["rows"]) == 3
    assert len(records[2]["rows"]) == 5
    assert tree.now_relative_count == 3
    assert sorted(tree.stab(850)) == [10, 13, 14, 15]
    assert sorted(tree.stab(992)) == [3, 10, 13, 15]
    assert tree.verify().ok
    recovered = RITree.attach(db.recover())
    assert sorted(recovered.stored_records()) == sorted(tree.stored_records())
    assert recovered.now_relative_count == 3


def test_a_refused_closure_batch_writes_nothing():
    db = Database(wal=True)
    tree = RITree(db, now=1000)
    tree.append_batch([(100, UPPER_NOW, 1), (200, UPPER_NOW, 2)])
    logged = db.wal.durable_records
    for closes in (
        [(100, 1, 500), (300, 2, 600)],  # no such open row
        [(100, 1, 500), (200, 2, 2**50)],  # out of domain
        [(100, 1, 500), (100, 1, 600)],  # the same row twice
    ):
        with pytest.raises((KeyError, ValueError)):
            tree.append_batch([(300, UPPER_NOW, 3), (5, 9, 4)], closes=closes)
    assert db.wal.durable_records == logged and not db.wal_desynced
    assert tree.now_relative_count == 2 and tree.verify().ok


def test_delete_special_intervals():
    tree = RITree(now=10)
    tree.insert(1, UPPER_INF, 1)
    tree.insert(2, UPPER_NOW, 2)
    tree.delete(1, UPPER_INF, 1)
    tree.delete(2, UPPER_NOW, 2)
    assert tree.intersection(0, 100) == []
    with pytest.raises(KeyError):
        tree.delete(1, UPPER_INF, 1)
    with pytest.raises(KeyError):
        tree.delete(2, UPPER_NOW, 2)


def test_mixed_database_against_brute_force(rng):
    tree = RITree(now=50_000)
    brute = BruteForceIntervals()
    next_id = 0
    for _ in range(400):
        lower = rng.randrange(0, 40_000)
        kind = rng.randrange(3)
        if kind == 0:
            upper = lower + rng.randrange(0, 2000)
            tree.insert(lower, upper, next_id)
            brute.insert(lower, upper, next_id)
        elif kind == 1:
            tree.insert(lower, UPPER_INF, next_id)
            brute.insert(lower, 10**9, next_id)  # effectively infinite
        else:
            tree.insert(lower, UPPER_NOW, next_id)
            brute.insert(lower, 50_000, next_id)  # upper = now
        next_id += 1
    for _ in range(100):
        lower = rng.randrange(0, 60_000)
        upper = lower + rng.randrange(0, 5000)
        expected = sorted(brute.intersection(lower, upper))
        assert sorted(tree.intersection(lower, upper)) == expected, (lower, upper)


def test_bulk_load_takes_sentinel_rows_like_hint(rng):
    from repro.core import HintStore

    records = []
    for interval_id in range(300):
        lower = rng.randrange(0, 40_000)
        upper = rng.choice([lower + rng.randrange(0, 2000), UPPER_INF, UPPER_NOW])
        records.append((lower, upper, interval_id))
    tree, hint = RITree(now=50_000), HintStore(now=50_000)
    tree.bulk_load(records)
    hint.bulk_load(records)
    assert tree.verify().ok
    assert (tree.infinite_count, tree.now_relative_count) == (
        sum(upper == UPPER_INF for _, upper, _ in records),
        sum(upper == UPPER_NOW for _, upper, _ in records),
    )
    for _ in range(100):
        lower = rng.randrange(0, 60_000)
        upper = lower + rng.randrange(0, 5000)
        expected = sorted(hint.intersection(lower, upper))
        assert sorted(tree.intersection(lower, upper)) == expected, (lower, upper)
    assert sorted(tree.stored_records()) == sorted(hint.stored_records())


def test_advancing_clock_updates_effective_uppers(rng):
    tree = RITree(now=1000)
    tree.insert(500, UPPER_NOW, 1)
    assert tree.stored_records() == [(500, 1000, 1)]
    assert tree.query(900, 1000, predicate="finished_by") == [1]
    tree.advance_to(2000)
    assert tree.stored_records() == [(500, 2000, 1)]
    assert tree.query(900, 1000, predicate="finished_by") == []
    assert tree.query(900, 2000, predicate="finished_by") == [1]
    assert tree.query(2000, 2100, predicate="meets") == [1]


def test_counts():
    tree = RITree(now=10)
    tree.insert(1, 2, 1)
    tree.insert(3, UPPER_INF, 2)
    tree.insert(4, UPPER_NOW, 3)
    assert tree.interval_count == 3
    assert tree.infinite_count == 1
    assert tree.now_relative_count == 1


def test_the_former_class_name_resolves_to_ritree():
    """``benchmarks/e2e/ingest_temporal.py`` still imports the name."""
    from repro.core import temporal

    assert temporal.TemporalRITree is RITree
    with pytest.raises(AttributeError):
        temporal.NoSuchName
