"""Transaction scoping and busy/locked retry on the sqlite backend."""

from __future__ import annotations

import sqlite3

import pytest

from repro.engine import RetryExhaustedError, RetryPolicy
from repro.sql.ritree_sql import (
    _BATCH_TABLES,
    SQLRITree,
    sqlite_transient_classify,
)


def batch_row_counts(tree) -> dict[str, int]:
    return {
        table: tree.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        for table in _BATCH_TABLES
    }


def test_classify_is_busy_or_locked_only():
    assert sqlite_transient_classify(sqlite3.OperationalError("database is locked"))
    assert sqlite_transient_classify(sqlite3.OperationalError("database is busy"))
    assert not sqlite_transient_classify(sqlite3.OperationalError("no such table: x"))
    assert not sqlite_transient_classify(sqlite3.IntegrityError("locked"))
    assert not sqlite_transient_classify(ValueError("database is locked"))


# ----------------------------------------------------------------------
# batch fill cycles: no stray TEMP rows can outlive a failure
# ----------------------------------------------------------------------
def test_mid_cycle_failure_leaves_no_stray_batch_rows():
    tree = SQLRITree()
    tree.bulk_load([(i, i + 10, i) for i in range(0, 100, 5)])

    def failing_run():
        raise RuntimeError("mid-cycle failure after the fill")

    with pytest.raises(RuntimeError):
        tree._batch_cycle(
            lambda: tree._fill_batch_tables([(0, 50), (60, 90)]),
            failing_run,
            empty=[],
        )
    assert batch_row_counts(tree) == {table: 0 for table in _BATCH_TABLES}
    report = tree.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    # The connection is usable immediately: no transaction left open.
    assert sorted(tree.intersection(0, 12)) == [0, 5, 10]


def test_invalid_probe_mid_batch_leaves_store_clean():
    tree = SQLRITree()
    tree.bulk_load([(1, 5, 1), (7, 20, 2)])
    with pytest.raises(ValueError):
        tree.intersection_many([(0, 10), (9, 3)])  # second probe inverted
    assert batch_row_counts(tree) == {table: 0 for table in _BATCH_TABLES}
    assert tree.verify().ok
    assert tree.intersection_many([(0, 10)]) == [[1, 2]]


def test_busy_run_is_rolled_back_and_retried():
    tree = SQLRITree(retry=RetryPolicy(attempts=3))
    tree.bulk_load([(1, 5, 1), (7, 20, 2)])
    failures = []

    def flaky_run():
        if not failures:
            failures.append(1)
            raise sqlite3.OperationalError("database is locked")
        return list(tree.conn.execute("SELECT COUNT(*) FROM batchProbes"))

    rows = tree._batch_cycle(
        lambda: tree._fill_batch_tables([(0, 10)]), flaky_run, empty=[]
    )
    # The retried cycle re-ran the fill after the rollback reverted it.
    assert rows == [(1,)]
    assert tree.retry.total_retries == 1
    assert batch_row_counts(tree) == {table: 0 for table in _BATCH_TABLES}
    assert tree.verify().ok


def test_batch_retry_exhaustion_is_typed():
    tree = SQLRITree(retry=RetryPolicy(attempts=2))
    tree.bulk_load([(1, 5, 1)])

    def always_locked():
        raise sqlite3.OperationalError("database is busy")

    with pytest.raises(RetryExhaustedError):
        tree._batch_cycle(
            lambda: tree._fill_batch_tables([(0, 10)]), always_locked, empty=[]
        )
    assert batch_row_counts(tree) == {table: 0 for table in _BATCH_TABLES}
    assert tree.verify().ok


def test_non_transient_errors_pass_through_unretried():
    tree = SQLRITree(retry=RetryPolicy(attempts=5))
    tree.bulk_load([(1, 5, 1)])

    def broken_run():
        raise sqlite3.OperationalError("no such table: nowhere")

    with pytest.raises(sqlite3.OperationalError):
        tree._batch_cycle(
            lambda: tree._fill_batch_tables([(0, 10)]), broken_run, empty=[]
        )
    assert tree.retry.total_retries == 0


# ----------------------------------------------------------------------
# fill transactions: rollback, retry, and the params dirty flag
# ----------------------------------------------------------------------
def test_transact_rolls_back_first_attempt_then_succeeds():
    tree = SQLRITree(retry=RetryPolicy(attempts=3))
    failures = []

    def body():
        tree.conn.execute(
            f'INSERT INTO {tree.name} ("node", "lower", "upper", "id") '
            f"VALUES (?, ?, ?, ?)",
            (tree.backbone.register(1, 2), 1, 2, 7),
        )
        if not failures:
            failures.append(1)
            raise sqlite3.OperationalError("database is locked")

    tree._transact(body)
    # Exactly one row: the failed attempt's insert was rolled back.
    count = tree.conn.execute(f"SELECT COUNT(*) FROM {tree.name}").fetchone()[0]
    assert count == 1
    assert tree.retry.total_retries == 1


def test_params_dictionary_survives_a_rolled_back_attempt():
    tree = SQLRITree(retry=RetryPolicy(attempts=3))
    for lower, upper, _ in [(1, 5, 1), (300, 900, 2)]:
        tree.backbone.register(lower, upper)
    failures = []

    def body():
        tree._save_params()
        if not failures:
            failures.append(1)
            raise sqlite3.OperationalError("database is locked")

    # The rollback reverts the dictionary write; without the dirty-flag
    # reset the retry would skip re-persisting and leave it stale.
    tree._transact(body)
    report = tree.verify()
    assert report.ok, [i.as_dict() for i in report.issues]


def test_failed_bulk_load_resets_the_dirty_flag():
    tree = SQLRITree(retry=RetryPolicy(attempts=1))
    bad = [(1, 5, 1), (3, 9, [])]  # a list cannot bind as the id column
    with pytest.raises((sqlite3.ProgrammingError, sqlite3.InterfaceError)):
        tree.bulk_load(bad)
    assert tree.interval_count == 0
    tree.bulk_load([(1, 5, 1), (3, 9, 2)])
    report = tree.verify()
    assert report.ok, [i.as_dict() for i in report.issues]


def test_failed_cycle_spares_pending_single_statement_work():
    tree = SQLRITree(retry=RetryPolicy(attempts=1))
    tree.insert(1, 5, 1)  # implicit transaction, not yet committed

    def always_locked():
        raise sqlite3.OperationalError("database is locked")

    with pytest.raises(RetryExhaustedError):
        tree._batch_cycle(
            lambda: tree._fill_batch_tables([(0, 10)]), always_locked, empty=[]
        )
    # The cycle's rollback must not swallow the earlier insert.
    assert tree.interval_count == 1
    assert tree.verify().ok


# ----------------------------------------------------------------------
# genuine cross-connection contention on a file database
# ----------------------------------------------------------------------
def test_real_lock_contention_roundtrip(tmp_path):
    path = str(tmp_path / "intervals.db")
    tree = SQLRITree(sqlite3.connect(path, timeout=0.05), retry=RetryPolicy(attempts=2))
    tree.bulk_load([(1, 5, 1)])
    blocker = sqlite3.connect(path, timeout=0.05)
    blocker.execute("BEGIN IMMEDIATE")
    try:
        with pytest.raises(RetryExhaustedError):
            tree.bulk_load([(10, 20, 2)])
    finally:
        blocker.rollback()
        blocker.close()
    tree.bulk_load([(10, 20, 2)])
    assert sorted(tree.intersection(0, 100)) == [1, 2]
    report = tree.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
