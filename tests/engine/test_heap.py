"""Unit tests for heap files."""

import pytest

from repro.engine import Database
from repro.engine.buffer import BufferPool
from repro.engine.errors import BlockError, SchemaError
from repro.engine.heap import HeapFile
from repro.engine.storage import DiskManager


def make_heap(arity: int = 3, block_size: int = 256) -> HeapFile:
    disk = DiskManager(block_size=block_size)
    pool = BufferPool(disk, capacity=16)
    return HeapFile(pool, arity=arity)


def test_insert_fetch_roundtrip():
    heap = make_heap()
    rowid = heap.insert((1, 2, 3))
    assert heap.fetch(rowid) == (1, 2, 3)
    assert heap.row_count == 1


def test_rowids_are_stable_across_growth():
    heap = make_heap()
    rowids = [heap.insert((i, i, i)) for i in range(500)]
    for i, rowid in enumerate(rowids):
        assert heap.fetch(rowid) == (i, i, i)


def test_delete_returns_row_and_frees_slot():
    heap = make_heap()
    rowid = heap.insert((9, 9, 9))
    assert heap.delete(rowid) == (9, 9, 9)
    assert heap.row_count == 0
    with pytest.raises(BlockError):
        heap.fetch(rowid)


def test_deleted_slot_is_reused():
    heap = make_heap()
    rowids = [heap.insert((i, 0, 0)) for i in range(100)]
    heap.delete(rowids[3])
    pages_before = heap.page_count
    new_rowid = heap.insert((777, 0, 0))
    assert heap.page_count == pages_before  # no new page
    assert heap.fetch(new_rowid) == (777, 0, 0)


def test_double_delete_rejected():
    heap = make_heap()
    rowid = heap.insert((1, 1, 1))
    heap.delete(rowid)
    with pytest.raises(BlockError):
        heap.delete(rowid)


def test_invalid_rowid_rejected():
    heap = make_heap()
    with pytest.raises(BlockError):
        heap.fetch(123456)


def test_wrong_arity_rejected():
    heap = make_heap(arity=2)
    with pytest.raises(SchemaError):
        heap.insert((1, 2, 3))


def test_scan_yields_live_rows_in_storage_order():
    heap = make_heap()
    rowids = [heap.insert((i, 0, 0)) for i in range(50)]
    for rowid in rowids[::2]:
        heap.delete(rowid)
    scanned = list(heap.scan())
    assert [row[0] for _, row in scanned] == list(range(1, 50, 2))
    assert all(
        rowid == expected for (rowid, _), expected in zip(scanned, rowids[1::2])
    )


def test_bulk_append_matches_inserts():
    heap = make_heap()
    rows = [(i, i * 2, i * 3) for i in range(300)]
    rowids = heap.bulk_append(rows)
    assert heap.row_count == 300
    for rowid, row in zip(rowids, rows):
        assert heap.fetch(rowid) == row


def test_bulk_append_then_insert_fills_last_page():
    heap = make_heap()
    heap.bulk_append([(1, 1, 1)])  # partially filled page
    pages = heap.page_count
    heap.insert((2, 2, 2))
    assert heap.page_count == pages


def test_negative_values_roundtrip():
    heap = make_heap()
    rowid = heap.insert((-5, -(2**62), 0))
    assert heap.fetch(rowid) == (-5, -(2**62), 0)


def test_page_count_linear_in_rows():
    heap = make_heap(arity=3, block_size=256)
    for i in range(400):
        heap.insert((i, i, i))
    per_page = heap.slots_per_page
    assert heap.page_count == -(-400 // per_page)


def heap_with_holes() -> HeapFile:
    heap = make_heap()  # 7 slots per page
    rowids = [heap.insert((i, i, i)) for i in range(60)]
    for rowid in rowids[3:40:4] + rowids[41:43]:
        heap.delete(rowid)
    heap.mark_clean()
    return heap


def test_insert_many_matches_the_per_row_loop_over_holes():
    rows = [(100 + i, i, -i) for i in range(40)]
    looped, batched = heap_with_holes(), heap_with_holes()
    holes = list(range(3, 40, 4)) + [41, 42]
    expected = [looped.insert(row) for row in rows]
    # Holes first, lowest page and slot first, then the unused slots of
    # the last page and whole new pages.
    assert expected == holes + list(range(60, 60 + len(rows) - len(holes)))
    assert batched.insert_many(rows) == expected
    assert batched.page_count == looped.page_count
    assert batched.row_count == looped.row_count == 60 - len(holes) + len(rows)
    for page_index in range(looped.page_count):
        slots = looped.page(page_index).live_slots()
        assert batched.page(page_index).live_slots() == slots
    assert list(batched.changed_pages()) == list(looped.changed_pages())
    # Both directories agree: the next row lands in the same slot.
    assert batched.insert((0, 0, 0)) == looped.insert((0, 0, 0))


def test_insert_many_checks_every_row_before_storing_any():
    heap = heap_with_holes()
    with pytest.raises(SchemaError):
        heap.insert_many([(1, 2, 3), (1, 2)])
    assert heap.row_count == 60 - 12
    assert list(heap.changed_pages()) == []


def test_delete_many_kills_a_page_run_with_one_request():
    heap = make_heap()  # 7 slots per page
    rowids = [heap.insert((i, -i, 0)) for i in range(14)]
    stats = heap.pool.stats
    before = stats.logical_reads
    assert heap.delete_many(rowids[1:6]) == [(i, -i, 0) for i in range(1, 6)]
    assert stats.logical_reads - before == 1
    # Two pages, two runs: one request each, in the per-row order.
    before = stats.logical_reads
    assert heap.delete_many([rowids[8], rowids[0], rowids[9]]) == [
        (8, -8, 0),
        (0, 0, 0),
        (9, -9, 0),
    ]
    assert stats.logical_reads - before == 3
    assert heap.row_count == 14 - 8
    assert heap.page(0).live_slots() == [(6, (6, -6, 0))]
    with pytest.raises(BlockError):
        heap.fetch(rowids[3])


def test_delete_many_raises_on_a_dead_row_after_the_rows_before_it():
    heap = make_heap()
    rowids = [heap.insert((i, i, i)) for i in range(5)]
    heap.delete(rowids[2])
    with pytest.raises(BlockError):
        heap.delete_many([rowids[0], rowids[2], rowids[4]])
    assert heap.page(0).live_slots() == [(1, (1, 1, 1)), (3, (3, 3, 3)), (4, (4, 4, 4))]
    assert heap.row_count == 3


def test_table_delete_many_requests_each_heap_page_twice():
    """One fetch and one kill request per page run, not one kill per row."""
    db = Database(block_size=256, cache_blocks=16)
    table = db.create_table("T", ["a", "b", "c"])  # no index: heap reads only
    rowids = table.insert_many([(i, i, i) for i in range(7)])
    assert table.heap.page_count == 1
    before = db.stats.logical_reads
    table.delete_many(rowids[:5])
    assert db.stats.logical_reads - before == 2
    assert [row for _rowid, row in table.scan()] == [(5, 5, 5), (6, 6, 6)]


def test_pages_keep_their_rows_through_eviction():
    """A page written, evicted and read back holds the same slots."""
    heap = make_heap()
    rowids = heap.insert_many([(i, -i, 2**40 + i) for i in range(70)])
    holes = rowids[3:60:5]
    heap.delete_many(holes)
    heap.pool.clear()
    live = [rowid for rowid in rowids if rowid not in holes]
    assert heap.fetch_many(live) == [(i, -i, 2**40 + i) for i in live]
    assert heap.insert_many([(7, 7, 7)] * (len(holes) + 1)) == holes + [70]
    heap.pool.clear()
    assert heap.fetch(rowids[3]) == (7, 7, 7)
    assert heap.fetch(70) == (7, 7, 7)
