"""Unit tests for tables with secondary indexes."""

import pytest

from repro.engine import Database
from repro.engine.errors import EngineError, SchemaError


def make_table(db=None):
    db = db or Database(block_size=512, cache_blocks=16)
    table = db.create_table("T", ["a", "b", "c"])
    table.create_index("ia", ["a"])
    table.create_index("iab", ["a", "b"])
    return db, table


def test_insert_maintains_all_indexes(rng):
    _, table = make_table()
    rows = [(rng.randrange(100), rng.randrange(100), i) for i in range(300)]
    rowids = [table.insert(row) for row in rows]
    scanned = [entry for entry in table.index_scan("ia")]
    assert len(scanned) == 300
    assert scanned == sorted((row[0], rowid)
                             for row, rowid in zip(rows, rowids))


def test_index_scan_prefix(rng):
    _, table = make_table()
    rows = [(i % 10, i, i) for i in range(200)]
    table.bulk_load(rows)
    got = [e for e in table.index_scan("iab", (3,), (3,))]
    assert all(e[0] == 3 for e in got)
    assert len(got) == 20


def test_delete_removes_from_heap_and_indexes():
    _, table = make_table()
    rowid = table.insert((1, 2, 3))
    other = table.insert((4, 5, 6))
    assert table.delete(rowid) == (1, 2, 3)
    assert table.row_count == 1
    assert [e for e in table.index_scan("ia")] == [(4, other)]
    for index in table.indexes.values():
        index.tree.check_invariants()


def test_delete_many_is_one_logged_statement():
    db = Database(block_size=512, cache_blocks=16, wal=True)
    _, table = make_table(db)
    rowids = table.insert_many([(i, i, i) for i in range(40)])
    logged = db.wal.durable_records
    assert table.delete_many([rowids[30], rowids[3], rowids[7]]) == [
        (30, 30, 30), (3, 3, 3), (7, 7, 7)]
    records = db.wal.records()[logged:]
    assert [r["t"] for r in records] == ["begin", "delete", "commit"]
    assert records[1]["rows"] == [[30, 30, 30], [3, 3, 3], [7, 7, 7]]
    assert table.row_count == 37
    for index in table.indexes.values():
        assert len(index.tree) == 37
        index.tree.check_invariants()
    recovered = db.recover().table("T")
    assert sorted(row for _, row in recovered.scan()) == sorted(
        (i, i, i) for i in range(40) if i not in (3, 7, 30))


@pytest.mark.parametrize("pick", [lambda r: [r[0], r[5], r[0]],
                                  lambda r: [r[1], r[2], r[2] + 1000],
                                  lambda r: [r[4], r[3]]],
                         ids=["repeated", "invalid", "dead"])
def test_delete_many_refuses_before_anything_changes(pick):
    db = Database(block_size=512, cache_blocks=16, wal=True)
    _, table = make_table(db)
    rowids = table.insert_many([(i, i, i) for i in range(10)])
    table.delete(rowids[3])
    logged = db.wal.durable_records
    with pytest.raises(EngineError):
        table.delete_many(pick(rowids))
    assert db.wal.durable_records == logged and not db.wal_desynced
    assert table.row_count == 9
    assert [e[0] for e in table.index_scan("ia")] == [
        i for i in range(10) if i != 3]


def test_duplicate_key_values_allowed():
    _, table = make_table()
    table.insert((7, 7, 1))
    table.insert((7, 7, 2))  # same key columns, distinct rowid suffix
    entries = [e for e in table.index_scan("iab", (7, 7), (7, 7))]
    assert len(entries) == 2


def test_bulk_load_builds_equivalent_indexes(rng):
    rows = [(rng.randrange(50), rng.randrange(50), i) for i in range(500)]
    _, loaded = make_table()
    loaded.bulk_load(rows)
    db2 = Database(block_size=512, cache_blocks=16)
    _, inserted = make_table(db2)
    for row in rows:
        inserted.insert(row)
    assert ([e[:2] for e in loaded.index_scan("ia")]
            == [e[:2] for e in inserted.index_scan("ia")])
    loaded.index("ia").tree.check_invariants()
    loaded.index("iab").tree.check_invariants()


def test_bulk_load_non_empty_rejected():
    _, table = make_table()
    table.insert((1, 1, 1))
    with pytest.raises(SchemaError):
        table.bulk_load([(2, 2, 2)])


def test_create_index_on_existing_rows():
    _, table = make_table()
    rowids = [table.insert((i, i, i)) for i in range(50)]
    index = table.create_index("ic", ["c"])
    assert len(index.tree) == 50
    assert [e for e in table.index_scan("ic", (10,), (10,))] == [(10, rowids[10])]


def test_schema_errors():
    db = Database(block_size=512, cache_blocks=16)
    with pytest.raises(SchemaError):
        db.create_table("empty", [])
    with pytest.raises(SchemaError):
        db.create_table("dup", ["x", "x"])
    table = db.create_table("T", ["a"])
    with pytest.raises(SchemaError):
        table.create_index("bad", ["nope"])
    table.create_index("i", ["a"])
    with pytest.raises(SchemaError):
        table.create_index("i", ["a"])
    with pytest.raises(SchemaError):
        table.index("missing")
    with pytest.raises(SchemaError):
        table.column_position("zzz")


def test_fetch_and_scan():
    _, table = make_table()
    rowid = table.insert((1, 2, 3))
    assert table.fetch(rowid) == (1, 2, 3)
    assert list(table.scan()) == [(rowid, (1, 2, 3))]
    assert len(table) == 1


def test_index_last_le():
    _, table = make_table()
    for i in (10, 20, 30):
        table.insert((i, 0, 0))
    entry = table.index_last_le("ia", (25,))
    assert entry[0] == 20
    assert table.index_last_le("ia", (5,)) is None
