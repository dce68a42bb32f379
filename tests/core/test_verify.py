"""The verify() contract: structured reports and corruption detection."""

from __future__ import annotations

import pytest

from repro.core.ritree import RITree
from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.core.verify import VerificationIssue, VerificationReport
from repro.sql.ritree_sql import SQLRITree


# ----------------------------------------------------------------------
# report semantics
# ----------------------------------------------------------------------
def test_report_truthiness_and_raise():
    report = VerificationReport("S", "backend")
    report.add_check("something")
    assert report.ok and bool(report)
    report.raise_for_issues()
    report.add_issue("bad-thing", "it broke", {"where": 3})
    assert not report.ok and not bool(report)
    with pytest.raises(AssertionError, match="bad-thing"):
        report.raise_for_issues()
    payload = report.as_dict()
    assert payload["ok"] is False
    assert payload["checks"] == ["something"]
    assert payload["issues"][0]["context"] == {"where": 3}


def test_issue_as_dict():
    issue = VerificationIssue("code", "msg")
    assert issue.as_dict() == {"code": "code", "message": "msg", "context": {}}


# ----------------------------------------------------------------------
# clean stores verify clean
# ----------------------------------------------------------------------
def test_ritree_clean_store_verifies():
    tree = RITree()
    tree.bulk_load([(1, 5, 1), (3, 9, 2), (7, 20, 3)])
    tree.insert(2, 4, 4)
    tree.delete(3, 9, 2)
    report = tree.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert "bptree:lowerIndex" in report.checks
    assert "fork-node" in report.checks


def test_temporal_clean_store_verifies():
    tree = RITree(now=100)
    tree.bulk_load([(1, 5, 1)])
    tree.insert(50, UPPER_INF, 2)
    tree.insert(40, UPPER_NOW, 3)
    tree.advance_to(150)
    report = tree.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert "reserved-rows" in report.checks


def test_sql_clean_store_verifies():
    tree = SQLRITree(now=10)
    tree.bulk_load([(1, 5, 1), (3, 9, 2)])
    tree.insert(50, UPPER_INF, 3)
    tree.insert(7, UPPER_NOW, 4)
    report = tree.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert "sqlite-integrity" in report.checks
    assert "figure2-indexes" in report.checks
    assert "batch-tables-empty" in report.checks


def test_empty_stores_verify():
    assert RITree().verify().ok
    assert SQLRITree().verify().ok


# ----------------------------------------------------------------------
# corruption is detected
# ----------------------------------------------------------------------
def test_ritree_detects_wrong_fork_node():
    tree = RITree()
    tree.bulk_load([(1, 5, 1), (3, 9, 2)])
    # Store a row at a node Figure 6 would never pick for these bounds.
    tree.table.insert((tree.backbone.fork_node(1, 5) + 1, 1, 5, 99))
    report = tree.verify()
    codes = {issue.code for issue in report.issues}
    assert "fork-node-mismatch" in codes


def test_ritree_detects_entry_count_drift():
    tree = RITree()
    tree.bulk_load([(i, i + 3, i) for i in range(0, 60, 2)])
    # Remove one lowerIndex entry behind the store's back.
    entry = next(iter(tree._lower_tree.scan_all()))
    tree._lower_tree.delete(entry)
    report = tree.verify()
    codes = {issue.code for issue in report.issues}
    assert "index-entry-count" in codes
    assert "missing-index-entry" in codes


def test_temporal_detects_reserved_count_drift():
    tree = RITree(now=100)
    tree.insert(10, UPPER_NOW, 1)
    tree._now_count += 1  # counter drifts from the stored rows
    report = tree.verify()
    codes = {issue.code for issue in report.issues}
    assert "reserved-count-mismatch" in codes


def _insert_raw(tree, row) -> None:
    """Store ``(node, lower, upper, id)`` behind the store's back."""
    if isinstance(tree, SQLRITree):
        tree.conn.execute(
            f'INSERT INTO {tree.name} ("node", "lower", "upper", "id") '
            f"VALUES (?, ?, ?, ?)",
            row,
        )
    else:
        tree.table.insert(row)


@pytest.mark.parametrize("sentinel", [UPPER_NOW, UPPER_INF], ids=["now", "inf"])
@pytest.mark.parametrize("backend", [RITree, SQLRITree])
def test_temporal_detects_sentinel_on_regular_node(backend, sentinel):
    tree = backend(now=100)
    tree.insert(1, 5, 1)
    # The node a finite (1, 9) takes: Figure 6 maps (1, sentinel) there too.
    _insert_raw(tree, (tree.backbone.fork_node(1, 9), 1, sentinel, 2))
    report = tree.verify()
    codes = {issue.code for issue in report.issues}
    assert "sentinel-on-regular-node" in codes


def test_sql_detects_fork_node_mismatch():
    tree = SQLRITree()
    tree.bulk_load([(1, 5, 1), (3, 9, 2)])
    tree.conn.execute(
        f'INSERT INTO {tree.name} ("node", "lower", "upper", "id") '
        f"VALUES (?, ?, ?, ?)",
        (tree.backbone.fork_node(1, 5) + 1, 1, 5, 99),
    )
    report = tree.verify()
    codes = {issue.code for issue in report.issues}
    assert "fork-node-mismatch" in codes


def test_sql_detects_missing_index():
    tree = SQLRITree()
    tree.bulk_load([(1, 5, 1)])
    tree.conn.execute(f"DROP INDEX {tree.name}_upperIndex")
    report = tree.verify()
    codes = {issue.code for issue in report.issues}
    assert "missing-index" in codes


def test_sql_detects_stale_params_dictionary():
    tree = SQLRITree()
    tree.bulk_load([(1, 5, 1)])
    tree.conn.execute(
        f'UPDATE {tree.name}_params SET "value" = 12345 '
        f'WHERE "key" = \'right_root\''
    )
    report = tree.verify()
    codes = {issue.code for issue in report.issues}
    assert "params-dictionary" in codes


def test_sql_detects_hidden_reserved_rows():
    tree = SQLRITree(now=10)
    tree.insert(5, UPPER_NOW, 1)
    # Unset the flag behind the store's back: queries would miss the row.
    tree._has_now = False
    report = tree.verify()
    codes = {issue.code for issue in report.issues}
    assert "reserved-flag" in codes


def test_sql_detects_stray_batch_rows():
    tree = SQLRITree()
    tree.bulk_load([(1, 5, 1)])
    tree.conn.execute(
        'INSERT INTO batchProbes ("qid", "lower", "upper") VALUES (0, 1, 2)'
    )
    report = tree.verify()
    codes = {issue.code for issue in report.issues}
    assert "stray-batch-rows" in codes


def test_sql_verify_passes_after_batch_cycles():
    tree = SQLRITree()
    tree.bulk_load([(i, i + 5, i) for i in range(0, 40, 2)])
    tree.intersection_many([(0, 10), (20, 30)])
    tree.join_pairs([(3, 8, 77)])
    tree.join_count([(3, 8, 77)], predicate="before")
    report = tree.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
