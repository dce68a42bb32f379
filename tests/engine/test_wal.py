"""Write-ahead log, checkpointing and crash recovery."""

from __future__ import annotations

import base64
import random

import pytest

from repro.engine import (
    Database,
    FaultInjector,
    RecoveryError,
    SchemaError,
    SimulatedCrash,
    WalError,
    WriteAheadLog,
)
from repro.engine.wal import decode_record, encode_page, encode_record


# ----------------------------------------------------------------------
# record framing
# ----------------------------------------------------------------------
def test_record_roundtrip_with_crc():
    record = {"t": "insert", "table": "T", "rows": [[1, 2, 3], [4, 5, 6]]}
    line = encode_record(record)
    assert decode_record(line) == record


def test_corrupt_line_fails_crc():
    line = encode_record({"t": "commit", "b": 1})
    with pytest.raises(WalError):
        decode_record(line[:-1] + ("0" if line[-1] != "0" else "1"))


def test_unknown_kind_rejected_both_ways():
    with pytest.raises(WalError):
        encode_record({"t": "vacuum"})
    good = encode_record({"t": "commit", "b": 1})
    with pytest.raises(WalError):
        decode_record(good[:9] + '{"t":"vacuum"}')


def test_encoding_is_canonical():
    a = encode_record({"t": "meta", "store": "S", "data": {"x": 1, "y": 2}})
    b = encode_record({"t": "meta", "data": {"y": 2, "x": 1}, "store": "S"})
    assert a == b


def test_page_line_is_the_record_encoding():
    image = bytes(range(256)) * 3
    line = encode_page("T\u00e4\n", 7, image)
    record = decode_record(line)
    assert base64.b64decode(record["image"]) == image
    assert line == encode_record(
        {"t": "page", "table": "T\u00e4\n", "page": 7, "image": record["image"]}
    )


# ----------------------------------------------------------------------
# durability boundary
# ----------------------------------------------------------------------
def test_tail_is_volatile_until_forced():
    wal = WriteAheadLog()
    wal.append({"t": "begin", "b": 1})
    wal.append({"t": "commit", "b": 1})
    assert wal.tail_records == 2 and wal.durable_records == 0
    assert wal.drop_tail() == 2
    assert wal.tail_records == 0 and wal.durable_records == 0
    wal.append({"t": "begin", "b": 2})
    wal.append({"t": "commit", "b": 2})
    wal.force()
    assert wal.durable_records == 2
    assert wal.drop_tail() == 0


def test_force_accounts_whole_blocks():
    wal = WriteAheadLog(block_size=64)
    wal.append({"t": "begin", "b": 1})
    wal.append({"t": "commit", "b": 1})
    wal.force()
    appended = wal.durable_bytes
    assert wal.stats.wal_writes == -(-appended // 64)
    wal.records()
    assert wal.stats.wal_reads == -(-appended // 64)


def test_empty_force_is_free():
    wal = WriteAheadLog()
    wal.force()
    assert wal.forces == 0
    assert wal.stats.wal_writes == 0


# ----------------------------------------------------------------------
# database logging and atomic batches
# ----------------------------------------------------------------------
def test_solo_statements_autocommit():
    db = Database(wal=True)
    table = db.create_table("T", ["a"])
    table.insert((1,))
    # create_table and insert each committed as their own batch.
    kinds = [r["t"] for r in db.wal.records()]
    assert kinds == ["begin", "create_table", "commit", "begin", "insert", "commit"]


def test_atomic_groups_one_force():
    db = Database(wal=True)
    table = db.create_table("T", ["a"])
    forces_before = db.wal.forces
    with db.atomic():
        for i in range(10):
            table.insert((i,))
    assert db.wal.forces == forces_before + 1


def test_empty_atomic_batch_writes_nothing():
    db = Database(wal=True)
    db.create_table("T", ["a"])
    durable, forces = db.wal.durable_records, db.wal.forces
    with db.atomic():
        pass
    assert (db.wal.durable_records, db.wal.forces) == (durable, forces)
    assert db.wal.tail_records == 0


def test_failed_batch_rolls_back_by_omission():
    db = Database(wal=True)
    table = db.create_table("T", ["a"])
    table.insert((1,))
    with pytest.raises(RuntimeError):
        with db.atomic():
            table.insert((2,))
            raise RuntimeError("mid-batch failure")
    assert db.wal_desynced
    recovered = db.recover()
    assert [row for _, row in recovered.table("T").scan()] == [(1,)]


def test_failed_batch_without_mutations_is_harmless():
    db = Database(wal=True)
    db.create_table("T", ["a"])
    with pytest.raises(KeyError):
        with db.atomic():
            raise KeyError("lookup miss before any mutation")
    assert not db.wal_desynced


def test_nested_atomic_flattens():
    db = Database(wal=True)
    table = db.create_table("T", ["a"])
    with db.atomic():
        table.insert((1,))
        with db.atomic():
            table.insert((2,))
        table.insert((3,))
    kinds = [r["t"] for r in db.wal.records()]
    assert kinds.count("begin") == 2  # DDL batch + one flattened batch
    assert kinds.count("commit") == 2


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
def test_recover_replays_committed_prefix():
    db = Database(wal=True)
    table = db.create_table("T", ["a", "b"])
    table.create_index("ia", ["a"])
    with db.atomic():
        for i in range(20):
            table.insert((i, i * i))
    table.delete(5)  # rowid 5 -> row (5, 25)
    recovered = db.recover()
    rows = sorted(row for _, row in recovered.table("T").scan())
    assert rows == sorted((i, i * i) for i in range(20) if i != 5)
    tree = recovered.table("T").index("ia").tree
    assert tree.violations() == []
    assert recovered.replayed_ops > 0


def test_insert_many_logs_one_record():
    db = Database(wal=True)
    table = db.create_table("T", ["a", "b"])
    table.insert_many([(3, 1), (1, 2)])
    table.insert_many([])  # logs nothing
    records = db.wal.records()
    assert [r["t"] for r in records] == [
        "begin", "create_table", "commit", "begin", "insert", "commit"
    ]
    assert records[4] == {"t": "insert", "table": "T", "rows": [[3, 1], [1, 2]]}


def test_multi_row_insert_record_replays():
    db = Database(wal=True)
    table = db.create_table("T", ["a", "b"])
    table.create_index("ia", ["a"])
    table.insert((7, 7))
    db.wal.append({"t": "begin", "b": 99})
    db.wal.append(
        {"t": "insert", "table": "T", "rows": [[5, 0], [2, 1], [5, 0], [9, 3]]}
    )
    db.wal.append({"t": "delete", "table": "T", "rows": [[5, 0]]})
    db.wal.append({"t": "commit", "b": 99})
    db.wal.force()
    recovered = db.recover()
    # Rows keep their order and row ids; the delete resolves to one copy.
    restored = recovered.table("T")
    assert sorted(row for _, row in restored.scan()) == [(2, 1), (5, 0), (7, 7), (9, 3)]
    assert restored.fetch(2) == (2, 1) and restored.fetch(4) == (9, 3)
    assert [e[0] for e in restored.index_scan("ia")] == [2, 5, 7, 9]
    assert restored.index("ia").tree.violations() == []


def test_rejected_row_leaves_no_record():
    db = Database(wal=True)
    table = db.create_table("T", ["a", "b"])
    with pytest.raises(SchemaError):
        table.insert((1, 2, 3))
    with pytest.raises(SchemaError):
        table.insert_many([(1, 2), (1, 2, 3)])
    assert [r["t"] for r in db.wal.records()] == ["begin", "create_table", "commit"]
    assert table.row_count == 0
    recovered = db.recover()
    assert list(recovered.table("T").scan()) == []
    recovered.table("T").insert((1, 2))
    again = recovered.recover()
    assert [row for _, row in again.table("T").scan()] == [(1, 2)]


@pytest.mark.parametrize(
    "bad", [(2**63, 0), (0, -(2**63) - 1), (2**70, 1)]
)
def test_out_of_range_value_is_rejected_before_logging(bad):
    """A value a page cannot store never reaches the log, so flush and
    recover keep working."""
    db = Database(wal=True)
    table = db.create_table("T", ["a", "b"])
    with pytest.raises(SchemaError, match="64-bit"):
        table.insert(bad)
    with pytest.raises(SchemaError, match="64-bit"):
        table.insert_many([(1, 2), bad])
    bulk = db.create_table("B", ["a", "b"])
    with pytest.raises(SchemaError, match="64-bit"):
        bulk.bulk_load([(1, 2), bad])
    assert [r["t"] for r in db.wal.records()] == [
        "begin", "create_table", "commit", "begin", "create_table", "commit"]
    assert table.row_count == bulk.row_count == 0
    edge = (2**63 - 1, -(2**63))
    table.insert(edge)
    bulk.bulk_load([edge])
    db.flush()
    recovered = db.recover()
    assert [row for _, row in recovered.table("T").scan()] == [edge]
    assert [row for _, row in recovered.table("B").scan()] == [edge]


def test_recover_drops_unforced_tail():
    db = Database(wal=True)
    table = db.create_table("T", ["a"])
    table.insert((1,))
    # Simulate a crash mid-batch: records buffered but never forced.
    db.wal.append({"t": "begin", "b": 999})
    db.wal.append({"t": "insert", "table": "T", "rows": [[2]]})
    recovered = db.recover()
    assert [row for _, row in recovered.table("T").scan()] == [(1,)]


def test_recover_restores_meta():
    db = Database(wal=True)
    db.create_table("T", ["a"])
    db.log_meta("T", {"kind": "test", "x": 7})
    recovered = db.recover()
    assert recovered.store_meta("T") == {"kind": "test", "x": 7}


def test_checkpoint_bounds_replay():
    db = Database(wal=True)
    table = db.create_table("T", ["a"])
    table.create_index("ia", ["a"])
    for i in range(10):
        table.insert((i,))
    db.checkpoint()
    assert db.wal.durable_records == table.heap.page_count + 1  # pages + manifest
    table.insert((99,))
    recovered = db.recover()
    rows = sorted(row for _, row in recovered.table("T").scan())
    assert rows == sorted([(i,) for i in range(10)] + [(99,)])
    # ckpt + one committed batch (begin/insert/meta-free/commit)
    assert recovered.replayed_ops <= 2


def test_checkpoint_inside_batch_is_an_error():
    db = Database(wal=True)
    with pytest.raises(WalError):
        with db.atomic():
            db.checkpoint()


def test_checkpoint_requires_wal():
    db = Database()
    with pytest.raises(WalError):
        db.checkpoint()
    with pytest.raises(WalError):
        db.recover()


def test_crash_during_checkpoint_preserves_old_log():
    db = Database(wal=True)
    table = db.create_table("T", ["a"])
    table.insert((1,))
    injector = FaultInjector().crash_at_write_point(1)
    db.wal.rebind(db.stats, injector)
    with pytest.raises(SimulatedCrash):
        db.checkpoint()
    db.wal.rebind(db.stats, None)
    # The old log survived the crashed checkpoint swap intact.
    recovered = db.recover()
    assert [row for _, row in recovered.table("T").scan()] == [(1,)]


def test_replay_rejects_commit_without_begin():
    from repro.engine.database import _committed_records

    with pytest.raises(RecoveryError):
        _committed_records([{"t": "commit", "b": 1}])
    with pytest.raises(RecoveryError):
        _committed_records([{"t": "insert", "table": "T", "rows": [[1]]}])


def test_wal_io_is_accounted_in_stats():
    db = Database(wal=True)
    table = db.create_table("T", ["a"])
    with db.measure() as delta:
        with db.atomic():
            for i in range(50):
                table.insert((i,))
    assert delta.wal_writes >= 1
    assert delta.wal_total >= 1
    assert db.stats.wal_writes >= 1


def test_wal_off_has_zero_wal_traffic():
    db = Database()
    table = db.create_table("T", ["a"])
    for i in range(50):
        table.insert((i,))
    db.flush()
    assert db.stats.wal_writes == 0
    assert db.stats.wal_reads == 0


# ----------------------------------------------------------------------
# incremental checkpoints
# ----------------------------------------------------------------------
class CapturingLog(WriteAheadLog):
    """A log that keeps the contents of every checkpoint it is handed."""

    def __init__(self) -> None:
        super().__init__(block_size=256)
        self.snapshots: list[list[str]] = []

    def checkpoint(self, lines, fresh) -> None:
        self.snapshots.append(list(lines))
        super().checkpoint(lines, fresh)


def full_scan_state(db: Database) -> dict:
    """The reference: each table's schema and row multiset by a full
    scan, and the store metadata."""
    tables = {
        table.name: (
            list(table.columns),
            [(index.name, list(index.columns)) for index in table.indexes.values()],
            sorted(row for _, row in table.scan()),
        )
        for table in db.tables()
    }
    return {"tables": tables, "meta": dict(db._wal_meta)}


def recovered_state(lines: list[str]) -> dict:
    """The state a database recovers from a log holding ``lines``."""
    wal = WriteAheadLog(block_size=256)
    for line in lines:
        wal.append(decode_record(line))
    wal.force()
    return full_scan_state(Database(block_size=256, wal=wal).recover())


def mutate(db: Database, rng: random.Random) -> None:
    """One random insert, delete or bulk load on one of the two tables."""
    table = db.table(rng.choice("AB"))
    if table.row_count == 0 and rng.random() < 0.5:
        rows = [(rng.randrange(100), i) for i in range(rng.randrange(1, 30))]
        table.bulk_load(rows)
    elif table.row_count and rng.random() < 0.4:
        rowid, _ = rng.choice(list(table.scan()))
        table.delete(rowid)
    else:
        table.insert((rng.randrange(100), rng.randrange(-(2**40), 2**40)))


@pytest.mark.parametrize("seed", range(4))
def test_incremental_checkpoint_matches_full_scan_encoding(seed):
    """After every checkpoint and every recovery, the log recovers the
    state a full scan reads: schemas, row multisets and metadata."""
    rng = random.Random(seed)
    log = CapturingLog()
    db = Database(block_size=256, cache_blocks=8, wal=log)
    db.create_table("A", ["k", "v"]).create_index("ik", ["k"])
    db.create_table("B", ["k", "v"])
    checked = 0
    for _ in range(300):
        roll = rng.random()
        if roll < 0.6:
            mutate(db, rng)
        elif roll < 0.75:
            with db.atomic():
                for _ in range(rng.randrange(1, 8)):
                    mutate(db, rng)
        elif roll < 0.8:
            db.log_meta("S", {"clock": rng.randrange(1000)})
        else:
            expected = full_scan_state(db)
            if roll < 0.95:
                db.checkpoint()
            else:
                db = db.recover()  # checkpoints the replayed state
                assert full_scan_state(db) == expected
            assert recovered_state(log.snapshots[-1]) == expected
            checked += 1
    assert checked > 10


def test_checkpoint_writes_only_the_changed_page_lines():
    db = Database(block_size=256, wal=True)
    table = db.create_table("T", ["a", "b"])
    table.create_index("ia", ["a"])
    heap = table.heap
    table.bulk_load([(i, i) for i in range(100 * heap.slots_per_page)])
    assert heap.page_count == 100
    with db.measure() as first:
        db.checkpoint()
    table.insert((-1, -1))
    assert heap.page_count == 101  # the full pages leave it a new one
    with db.measure() as after_insert:
        db.checkpoint()
    page_line = encode_page("T", 100, heap.page(100).to_bytes())
    manifest = encode_record(db.wal.records()[-1])
    written = len(page_line) + 1 + len(manifest) + 1
    assert after_insert.wal_writes <= -(-written // 256)
    assert after_insert.wal_writes * 20 < first.wal_writes


def test_checkpoint_reads_only_changed_heap_pages():
    db = Database(block_size=256, wal=True)
    table = db.create_table("T", ["a", "b"])
    table.create_index("ia", ["a"])
    table.bulk_load([(i, i) for i in range(100)])
    with db.measure() as first:
        db.checkpoint()
    assert first.logical_reads == table.heap.page_count > 1
    with db.measure() as again:
        db.checkpoint()
    assert again.logical_reads == 0
    pages = table.heap.page_count
    for i in range(3):
        table.insert((1000 + i, i))
    assert table.heap.page_count == pages + 1  # all three on one new page
    with db.measure() as after_inserts:
        db.checkpoint()
    assert after_inserts.logical_reads == 1
    table.delete(0)
    with db.measure() as after_delete:
        db.checkpoint()
    assert after_delete.logical_reads == 1
