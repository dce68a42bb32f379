"""Tests for the sqlite3-backed RI-tree (paper Section 5)."""

import re
import sqlite3

import pytest

from repro.core.costmodel import BoundSummary
from repro.core.predicates import (
    FAMILIES,
    JOIN_PREDICATES,
    PREDICATES,
    compile_query,
    range_duration,
)
from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.methods.memory import BruteForceIntervals
from repro.sql import SQLRITree, schema

from ..conftest import make_intervals


def test_figure2_schema_created():
    tree = SQLRITree()
    catalog = "SELECT name FROM sqlite_master WHERE type = ?"
    tables = {row[0] for row in tree.conn.execute(catalog, ("table",))}
    assert "Intervals" in tables
    assert "Intervals_params" in tables
    indexes = {row[0] for row in tree.conn.execute(catalog, ("index",))}
    assert "Intervals_lowerIndex" in indexes
    assert "Intervals_upperIndex" in indexes


def test_docstring_example():
    tree = SQLRITree()
    tree.insert(3, 9, interval_id=1)
    tree.insert(5, 15, interval_id=2)
    assert sorted(tree.intersection(8, 12)) == [1, 2]


def test_empty_tree():
    tree = SQLRITree()
    assert tree.intersection(0, 100) == []
    assert tree.interval_count == 0


def test_matches_brute_force(rng):
    records = make_intervals(rng, 800, domain=60_000, mean_length=500)
    tree = SQLRITree()
    tree.bulk_load(records)
    lookup = {r[2]: r[:2] for r in records}
    for _ in range(120):
        lower = rng.randrange(0, 66_000)
        upper = lower + rng.randrange(0, 3000)
        got = sorted(tree.intersection(lower, upper))
        expected = sorted(
            i for i, (s, e) in lookup.items() if s <= upper and e >= lower
        )
        assert got == expected


def test_preliminary_query_equivalent(rng):
    records = make_intervals(rng, 400, domain=30_000, mean_length=400)
    tree = SQLRITree()
    tree.bulk_load(records)
    for _ in range(40):
        lower = rng.randrange(0, 33_000)
        upper = lower + rng.randrange(0, 2000)
        expected = sorted(tree.intersection(lower, upper))
        assert sorted(tree.intersection_preliminary(lower, upper)) == expected


def test_union_all_duplicate_free(rng):
    records = make_intervals(rng, 500, domain=20_000, mean_length=2000)
    tree = SQLRITree()
    tree.bulk_load(records)
    for _ in range(40):
        lower = rng.randrange(0, 22_000)
        upper = lower + rng.randrange(0, 5000)
        results = tree.intersection(lower, upper)
        assert len(results) == len(set(results))


def test_single_statement_delete():
    tree = SQLRITree()
    tree.insert(1, 10, 1)
    tree.insert(1, 10, 2)
    tree.delete(1, 10, 1)
    assert tree.intersection(5, 5) == [2]
    with pytest.raises(KeyError):
        tree.delete(1, 10, 1)
    with pytest.raises(KeyError):
        tree.delete(99, 100, 5)


def test_params_persist_across_reopen(tmp_path):
    path = tmp_path / "ritree.db"
    conn = sqlite3.connect(path)
    tree = SQLRITree(conn, name="P")
    tree.bulk_load([(100, 200, 1), (-50, 20, 2), (5000, 6000, 3)])
    params_before = tree.backbone.params()
    conn.commit()
    conn.close()

    conn2 = sqlite3.connect(path)
    reopened = SQLRITree(conn2, name="P", attach=True)
    assert reopened.backbone.params() == params_before
    assert sorted(reopened.intersection(-100, 10_000)) == [1, 2, 3]
    # Updates continue correctly after reopening.
    reopened.insert(150, 160, 4)
    assert sorted(reopened.intersection(140, 170)) == [1, 4]


def test_attach_without_params_rejected():
    conn = sqlite3.connect(":memory:")
    with pytest.raises(Exception):
        SQLRITree(conn, name="Nothing", attach=True)


def test_view_trigger_wrapping():
    conn = sqlite3.connect(":memory:")
    tree = SQLRITree(conn, name="W")
    view = tree.create_view()
    conn.executemany(
        f'INSERT INTO {view} ("lower", "upper", "id") VALUES (?, ?, ?)',
        [(0, 10, 1), (5, 25, 2), (30, 40, 3)],
    )
    tree.sync_params()
    assert sorted(tree.intersection(8, 35)) == [1, 2, 3]
    assert tree.intersection(26, 29) == []
    # View inserts widen the before/after envelope too.
    assert sorted(tree.query(26, 29, predicate="before")) == [1, 2]
    assert tree.query(26, 29, predicate="after") == [3]


def test_temporal_now_and_infinity():
    tree = SQLRITree(now=1000)
    tree.insert(0, 100, 1)
    tree.insert(500, UPPER_INF, 2)
    tree.insert(900, UPPER_NOW, 3)
    assert sorted(tree.intersection(950, 960)) == [2, 3]
    assert tree.intersection(101, 400) == []
    tree.advance_to(5000)
    assert sorted(tree.intersection(2000, 2100)) == [2, 3]
    with pytest.raises(ValueError):
        tree.insert(6000, UPPER_NOW, 4)
    with pytest.raises(ValueError):
        tree.advance_to(0)


def test_query_plan_uses_both_indexes():
    tree = SQLRITree()
    tree.bulk_load([(i, i + 10, i) for i in range(100)])
    plan = "\n".join(tree.explain_query(20, 40))
    assert "upperIndex (node=? AND upper>?)" in plan
    assert "lowerIndex" in plan
    assert "AUTOMATIC" not in plan
    assert "SCAN i" not in plan


def test_multiple_trees_share_connection():
    conn = sqlite3.connect(":memory:")
    a = SQLRITree(conn, name="A")
    b = SQLRITree(conn, name="B")
    a.insert(0, 10, 1)
    b.insert(100, 110, 2)
    assert a.intersection(0, 200) == [1]
    assert b.intersection(0, 200) == [2]


#: Row 17 of the explain fixture is [510, 547]: each pinned-lower
#: relation's query below matches it.
PINNED_LOWER_QUERIES = {
    "equals": (510, 547),
    "met_by": (400, 510),
    "starts": (510, 900),
    "started_by": (510, 520),
}


@pytest.mark.parametrize(
    "predicate, lower, upper, seek",
    [(range_duration(0, 35), 100, 4_000, "upperIndex (node=? AND upper>?)")]
    + [
        (name, lower, upper, "lowerIndex (node=? AND lower=? AND upper>?)")
        for name, (lower, upper) in PINNED_LOWER_QUERIES.items()
    ],
    ids=["range_duration"] + list(PINNED_LOWER_QUERIES),
)
def test_explain_query_families_use_both_indexes(predicate, lower, upper, seek):
    """A single-node row seeks its Figure 10 key, the fold row scans its
    node range, and no branch builds an AUTOMATIC index -- also where a
    pinned lower bound puts an equality on ``i."lower"``."""
    tree = SQLRITree()
    records = [(i * 30, i * 30 + 20 + i % 40, i) for i in range(300)]
    tree.bulk_load(records)
    plan = "\n".join(tree.explain_query(lower, upper, predicate=predicate))
    assert "lowerIndex" in plan
    assert "upperIndex" in plan
    assert seek in plan
    assert "AUTOMATIC" not in plan
    assert "SCAN i" not in plan
    # Results match the refinement run for real.
    oracle = BruteForceIntervals(records)
    expected = sorted(oracle.query(lower, upper, predicate=predicate))
    assert sorted(tree.query(lower, upper, predicate=predicate)) == expected
    assert expected or predicate not in PINNED_LOWER_QUERIES


def test_explain_query_gates_an_empty_candidate_range():
    tree = SQLRITree()
    tree.bulk_load([(10, 50, 1), (40, 90, 2)])
    # An empty candidate range (before with nothing on the left) makes
    # the plan trivially empty.
    assert tree.explain_query(0, 5, predicate="before") == []


def test_explain_rejects_what_intersection_rejects():
    tree = SQLRITree()
    tree.bulk_load([(10, 50, 1), (40, 90, 2)])
    for explain in (
        tree.explain_query,
        lambda lower, upper: tree.explain_query(lower, upper, predicate="during"),
    ):
        with pytest.raises(ValueError):
            explain(60, 20)
    with pytest.raises(ValueError):
        tree.intersection(60, 20)


def test_explain_on_empty_store_runs_no_statement():
    """Like ``intersection``, ``explain_query`` skips a provably empty
    statement: no plan and not one statement reaches the connection."""
    tree = SQLRITree()
    statements = []
    tree.conn.set_trace_callback(statements.append)
    assert tree.explain_query(20, 60) == []
    assert tree.explain_query(20, 60, predicate="during") == []
    tree.conn.set_trace_callback(None)
    assert tree.intersection(20, 60) == []
    assert statements == []


def test_temporal_rows_delete_close_and_reattach(tmp_path):
    """Now-relative rows close and both sentinel kinds delete; a missing
    row is a KeyError that changes nothing, and the reopened database
    holds the same records."""
    path = str(tmp_path / "temporal.db")
    tree = SQLRITree(sqlite3.connect(path), now=100)
    oracle = BruteForceIntervals()
    oracle.advance_to(100)
    for store in (tree, oracle):
        store.insert(0, 30, 1)
        store.insert(10, UPPER_NOW, 7)
        store.insert(20, UPPER_NOW, 8)
        store.insert(30, UPPER_INF, 9)
        store.append_batch([], closes=[(10, 7, 50)])
        store.delete(20, UPPER_NOW, 8)
    expected = sorted(oracle.stored_records())
    assert sorted(tree.stored_records()) == expected
    assert expected == [(0, 30, 1), (10, 50, 7), (30, UPPER_INF, 9)]
    assert tree.verify().ok
    with pytest.raises(KeyError):
        tree.append_batch([(40, 45, 10)], closes=[(10, 7, 60)])  # closed
    with pytest.raises(KeyError):
        tree.delete(20, UPPER_NOW, 8)
    with pytest.raises(KeyError):
        tree.delete(31, UPPER_INF, 9)
    assert sorted(tree.stored_records()) == expected
    tree.conn.commit()
    tree.conn.close()
    reopened = SQLRITree(sqlite3.connect(path), attach=True, now=100)
    assert sorted(reopened.stored_records()) == expected
    assert reopened.verify().ok
    reopened.delete(30, UPPER_INF, 9)
    assert sorted(reopened.intersection(0, 1_000)) == [1, 7]


def test_cost_model_counts_reserved_rows_as_stored_records():
    """Now-relative rows count at the clock and infinite rows at the
    sentinel, as ``stored_records()`` reports them."""
    tree = SQLRITree(now=100)
    tree.append_batch([(5, 50, 1), (10, UPPER_NOW, 2), (30, UPPER_INF, 3)])
    summary = tree.cost_model().summary
    expected = BoundSummary.from_records(tree.stored_records(), summary.buckets)
    assert summary.count == expected.count == 3
    assert summary.lower_bounds == expected.lower_bounds
    assert summary.upper_bounds == expected.upper_bounds
    assert summary.duration_bounds == expected.duration_bounds
    tree.advance_to(400)
    moved = tree.cost_model(refresh=True).summary
    expected = BoundSummary.from_records(tree.stored_records(), summary.buckets)
    assert moved.upper_bounds == expected.upper_bounds


def test_before_after_envelope_outlives_deletes_and_refused_batches():
    """The in-memory envelope only widens: deleted rows and a refused
    batch leave it a superset of the stored rows, so answers stay exact,
    and no query reads the envelope from the relation."""
    tree = SQLRITree(now=100)
    oracle = BruteForceIntervals()
    oracle.advance_to(100)
    for store in (tree, oracle):
        store.append_batch([(10, 20, 1), (30, 40, 2), (50, 60, 3)])
        store.insert(70, UPPER_NOW, 4)
        store.delete(10, 20, 1)
        store.delete(50, 60, 3)
    with pytest.raises(KeyError):
        tree.append_batch([(0, 500, 9)], closes=[(99, 99, 120)])
    statements = []
    tree.conn.set_trace_callback(statements.append)
    for name in ("before", "after"):
        for lower, upper in ((0, 5), (25, 35), (45, 65), (101, 120), (600, 700)):
            expected = sorted(oracle.query(lower, upper, predicate=name))
            assert sorted(tree.query(lower, upper, predicate=name)) == expected
    tree.conn.set_trace_callback(None)
    assert not [s for s in statements if "MIN(" in s]


# ----------------------------------------------------------------------
# explain reads the statement that runs
# ----------------------------------------------------------------------
def _sentinel_tree() -> SQLRITree:
    """Finite rows plus one row of each Section 4.6 sentinel kind."""
    tree = SQLRITree(now=900)
    tree.bulk_load([(i * 7, i * 7 + i % 60, i) for i in range(400)])
    tree.insert(300, UPPER_INF, 5_000)
    tree.insert(600, UPPER_NOW, 5_001)
    return tree


class _Recorder:
    """A connection that records every ``execute`` it forwards.

    sqlite's trace callback never reports an ``EXPLAIN`` statement, so
    the explain tests record statements and binds at the DB-API call.
    """

    def __init__(self, conn: sqlite3.Connection) -> None:
        self.conn = conn
        self.calls = []

    def execute(self, sql, params=()):
        self.calls.append((sql, params))
        return self.conn.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self.conn, name)


def _executed(tree: SQLRITree, op) -> list[tuple]:
    """The ``(statement, binds)`` pairs ``op`` executes on ``tree``."""
    recorder = _Recorder(tree.conn)
    tree.conn = recorder
    try:
        op()
    finally:
        tree.conn = recorder.conn
    return recorder.calls


def _explained(calls: list[tuple]) -> list[tuple]:
    """``calls`` with their one Figure 9 statement explained."""
    figure9 = [sql for sql, _binds in calls if sql.startswith("\nSELECT")]
    assert len(figure9) == 1
    return [
        ("EXPLAIN QUERY PLAN " + sql if sql in figure9 else sql, binds)
        for sql, binds in calls
    ]


def _used(calls: list[tuple]) -> list[tuple]:
    """``calls`` with each bind set cut to the names its statement uses."""
    used = []
    for sql, binds in calls:
        if isinstance(binds, dict):
            binds = {k: v for k, v in binds.items() if re.search(f":{k}\\b", sql)}
        used.append((sql, binds))
    return used


def _label(predicate) -> str:
    return predicate if isinstance(predicate, str) else predicate.name


#: Join predicates of the explain test: none, one per refinement shape.
JOINS = ["intersects", "during", "before", range_duration(5, 40)]


@pytest.mark.parametrize("predicate", [*PREDICATES, range_duration(5, 40)], ids=_label)
def test_explain_query_explains_the_statement_query_runs(predicate):
    """Same fills, same statement, same binds: ``stab`` included, whose
    query runs ``intersection(lower, lower)``."""
    tree = _sentinel_tree()
    ran = _executed(tree, lambda: tree.query(500, 900, predicate=predicate))
    explained = _executed(
        tree, lambda: tree.explain_query(500, 900, predicate=predicate)
    )
    assert _used(explained) == _used(_explained(ran))


@pytest.mark.parametrize("predicate", JOINS, ids=_label)
def test_explain_join_explains_the_statement_join_pairs_runs(predicate):
    tree = _sentinel_tree()
    probes = [(i * 50, i * 50 + 10 + i % 30, i) for i in range(20)]
    ran = _executed(tree, lambda: tree.join_pairs(probes, predicate=predicate))
    explained = _executed(tree, lambda: tree.explain_join(probes, predicate=predicate))
    assert explained == _explained(ran)


# ----------------------------------------------------------------------
# covering indexes: refinements read the index, not the table
# ----------------------------------------------------------------------
def _searches(plan: list[str]) -> list[str]:
    """The seeks into the interval relation, one per Figure 9 branch."""
    searches = [line for line in plan if line.startswith("SEARCH i ")]
    assert len(searches) == 3, plan
    return searches


def _assert_covering(searches: list[str]) -> None:
    """Each seek reads an index alone, never the table."""
    assert all(" USING COVERING INDEX " in line for line in searches), searches


@pytest.mark.parametrize("predicate", [*PREDICATES, range_duration(5, 40)], ids=_label)
def test_query_plans_are_covering(predicate):
    """Both bounds are in both indexes, so each predicate and family
    refinement is answered without a table seek per candidate."""
    tree = _sentinel_tree()
    pred = compile_query(predicate)
    _assert_covering(_searches(tree.explain_query(500, 900, predicate=pred)))


@pytest.mark.parametrize(
    "predicate",
    [
        *JOIN_PREDICATES,
        range_duration(5, 40),
        compile_query("range_duration_by", {"dmin": 5, "dmax": 40}),
    ],
    ids=_label,
)
def test_join_plans_are_covering(predicate):
    tree = _sentinel_tree()
    probes = [(i * 50, i * 50 + 10 + i % 30, i) for i in range(20)]
    _assert_covering(_searches(tree.explain_join(probes, predicate=predicate)))


def test_attach_to_an_older_index_layout(tmp_path):
    """A relation written with the three-column Section 4.3 indexes
    attaches unchanged: it answers every predicate and family, and
    ``verify()`` names the layout it lacks."""
    path = tmp_path / "older.db"
    conn = sqlite3.connect(path)
    writer = SQLRITree(conn, name="Old", now=900)
    records = [(i * 7, i * 7 + i % 60, i) for i in range(400)]
    writer.bulk_load(records + [(300, UPPER_INF, 5_000), (600, UPPER_NOW, 5_001)])
    for suffix, bound in (("lowerIndex", "lower"), ("upperIndex", "upper")):
        conn.execute(f"DROP INDEX Old_{suffix}")
        conn.execute(f'CREATE INDEX Old_{suffix} ON Old ("node", "{bound}", "id")')
    conn.commit()
    conn.close()

    tree = SQLRITree(sqlite3.connect(path), name="Old", attach=True, now=900)
    oracle = BruteForceIntervals(records)
    oracle.advance_to(900)
    oracle.insert(300, UPPER_INF, 5_000)
    oracle.insert(600, UPPER_NOW, 5_001)
    families = [
        compile_query(name, {"dmin": 5, "dmax": 40} if family.parameters else None)
        for name, family in FAMILIES.items()
    ]
    for pred in families:
        for lower, upper in ((-50, 10), (500, 900), (1_000, 2_900), (2_795, 2_795)):
            got = sorted(tree.query(lower, upper, predicate=pred))
            assert got == sorted(oracle.query(lower, upper, predicate=pred)), (
                pred.name,
                lower,
                upper,
            )
    issues = [issue for issue in tree.verify().issues if issue.code == "index-columns"]
    assert len(issues) == 2
    for issue in issues:
        suffix = issue.context["index"].removeprefix("Old_")
        assert str(list(schema.INDEX_COLUMNS[suffix])) in issue.message
