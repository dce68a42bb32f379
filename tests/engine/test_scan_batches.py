"""Batched scan pipeline: leaf-slice scans, reader fast path, fetch_many.

The contract under test is the one the RI-tree's I/O claims rest on:
``scan_batches`` must return exactly what the per-entry ``scan_range``
returns, with an identical logical/physical I/O trace, while the buffer
pool's pre-bound readers keep the same accounting as ``BufferPool.get``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.bptree import BPlusTree
from repro.engine.buffer import BufferPool
from repro.engine.errors import BlockError
from repro.engine.serial import pad_high, pad_low
from repro.engine.storage import DiskManager


def _build_tree(db, entries):
    tree = BPlusTree(db.pool, arity=2, name="t")
    for entry in sorted(entries):
        tree.insert(entry)
    return tree


# ----------------------------------------------------------------------
# scan parity (the property the whole pipeline rests on)
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scan_batches_matches_scan_range(data):
    keys = data.draw(st.sets(
        st.tuples(st.integers(-200, 200), st.integers(0, 50)),
        max_size=300))
    db = Database(block_size=256, cache_blocks=16)
    tree = _build_tree(db, keys)
    for _ in range(5):
        lo = data.draw(st.one_of(
            st.just(()), st.tuples(st.integers(-220, 220)),
            st.tuples(st.integers(-220, 220), st.integers(-5, 55))))
        hi = data.draw(st.one_of(
            st.just(()), st.tuples(st.integers(-220, 220)),
            st.tuples(st.integers(-220, 220), st.integers(-5, 55))))
        per_entry = list(tree.scan_range(lo, hi))
        batched = [e for batch in tree.scan_batches(lo, hi) for e in batch]
        expected = [e for e in sorted(keys)
                    if pad_low(lo, 2) <= e <= pad_high(hi, 2)]
        assert batched == per_entry == expected


def test_scan_batches_io_identical_to_unbatched_reference(rng):
    """Batched scans vs the retained pre-batching reference execution.

    ``scan_range`` is a wrapper over ``scan_batches``, so the genuinely
    independent comparison is against ``scan_range_unbatched`` -- the
    seed implementation kept verbatim for exactly this purpose.
    """
    db = Database(block_size=256, cache_blocks=16)
    entries = {(rng.randrange(5000), i) for i in range(2000)}
    tree = _build_tree(db, entries)
    for lo, hi in [((), ()), ((100,), (4000,)), ((2500,), (2500,)),
                   ((4999,), ()), ((), (3,)), ((9000,), ())]:
        db.clear_cache()
        before = db.stats.snapshot()
        a = list(tree.scan_range_unbatched(lo, hi))
        mid = db.stats.snapshot()
        b = [e for batch in tree.scan_batches(lo, hi) for e in batch]
        after = db.stats.snapshot()
        assert a == b == list(tree.scan_range(lo, hi))
        assert tree.count_range(lo, hi) == len(a)
        per_entry_io = mid - before
        batched_io = after - mid
        assert per_entry_io.logical_reads == batched_io.logical_reads
        # The second pass runs warm, so only the logical trace is
        # comparable here; cold-vs-cold equality is checked below.
        db.clear_cache()
        cold_a = db.stats.snapshot()
        list(tree.scan_range_unbatched(lo, hi))
        cold_b = db.stats.snapshot()
        db.clear_cache()
        cold_c = db.stats.snapshot()
        list(tree.scan_batches(lo, hi))
        cold_d = db.stats.snapshot()
        assert (cold_b - cold_a).physical_reads == \
            (cold_d - cold_c).physical_reads
        assert (cold_b - cold_a).logical_reads == \
            (cold_d - cold_c).logical_reads


def test_scan_batches_yields_leaf_slices(rng):
    db = Database(block_size=256, cache_blocks=32)
    tree = _build_tree(db, {(i, 0) for i in range(500)})
    batches = list(tree.scan_batches((10,), (480,)))
    assert all(batches), "no empty batches"
    assert all(len(batch) <= tree.leaf_capacity for batch in batches)
    flat = [e for batch in batches for e in batch]
    assert flat == sorted(flat)
    # Interior batches are whole leaves; only the boundaries are partial.
    assert sum(len(b) for b in batches) == 471


def test_scan_batches_empty_cases():
    db = Database(block_size=256, cache_blocks=16)
    tree = BPlusTree(db.pool, arity=2, name="t")
    assert list(tree.scan_batches((), ())) == []
    tree.insert((5, 5))
    assert list(tree.scan_batches((9,), (1,))) == []
    assert list(tree.scan_batches((6,), ())) == []


# ----------------------------------------------------------------------
# pin/evict edge cases under the reader fast path
# ----------------------------------------------------------------------
def test_scan_survives_dirty_eviction_mid_batch(rng):
    """Batches already yielded stay valid while eviction churns the pool."""
    db = Database(block_size=256, cache_blocks=8)
    tree = _build_tree(db, {(i, 0) for i in range(400)})
    other = BPlusTree(db.pool, arity=2, name="churn")
    scan = tree.scan_batches((), ())
    collected = []
    for i, batch in enumerate(scan):
        collected.extend(batch)
        # Dirty and evict pages between batch pulls: inserts into a second
        # tree churn the 8-frame pool, writing dirty leaves back mid-scan.
        for j in range(4):
            other.insert((1000 * i + j, 1))
    assert collected == [(i, 0) for i in range(400)]
    tree.check_invariants()
    other.check_invariants()


def test_scan_with_pinned_boundary_leaf():
    """A pinned boundary leaf is served from cache and never evicted."""
    db = Database(block_size=256, cache_blocks=8)
    tree = _build_tree(db, {(i, 0) for i in range(400)})
    lo = pad_low((37,), 2)
    boundary_leaf = tree._descend(lo)[-1][0]
    db.pool.pin(boundary_leaf)
    try:
        churn = BPlusTree(db.pool, arity=2, name="churn")
        for j in range(40):
            churn.insert((j, 0))
        assert db.pool.is_resident(boundary_leaf)
        flat = [e for b in tree.scan_batches((37,), (60,)) for e in b]
        assert flat == [(i, 0) for i in range(37, 61)]
        assert db.pool.is_resident(boundary_leaf)
    finally:
        db.pool.unpin(boundary_leaf)


def test_make_reader_accounting_matches_get():
    disk = DiskManager(block_size=256)
    pool = BufferPool(disk, capacity=8)

    class Page:
        def __init__(self, data):
            self.data = bytes(data)

        def to_bytes(self):
            return self.data

    ids = [disk.allocate() for _ in range(12)]
    for block_id in ids:
        disk.write(block_id, bytes([block_id % 251]) * 4)
    read = pool.make_reader(Page)
    before = pool.stats.snapshot()
    for block_id in ids:                       # 12 misses
        assert read(block_id).data == disk.read(block_id)
    misses = pool.stats.snapshot()
    # disk.read above also counts physical reads; only compare logical.
    assert misses.logical_reads - before.logical_reads == 12
    resident = [b for b in ids if pool.is_resident(b)]
    assert len(resident) == 8
    hits_before = pool.stats.snapshot()
    for block_id in resident:                  # pure hits
        read(block_id)
    hits_after = pool.stats.snapshot()
    assert hits_after.logical_reads - hits_before.logical_reads == len(resident)
    assert hits_after.physical_reads == hits_before.physical_reads


def test_make_reader_survives_cache_clear():
    db = Database(block_size=256, cache_blocks=8)
    tree = _build_tree(db, {(i, 0) for i in range(100)})
    db.clear_cache()
    assert [e for b in tree.scan_batches((), ()) for e in b] == \
        [(i, 0) for i in range(100)]


# ----------------------------------------------------------------------
# heap fetch_many
# ----------------------------------------------------------------------
def test_fetch_many_parity_and_page_grouping(db, rng):
    table = db.create_table("rows", ["a", "b"])
    rowids = [table.insert((i, i * i)) for i in range(300)]
    picked = rng.sample(rowids, 120)
    assert table.fetch_many(picked) == [table.fetch(r) for r in picked]
    # Index-ordered rowids cluster by page: grouped fetch does one logical
    # read per page run, a per-row loop does one per row.
    ordered = sorted(rowids)
    before = db.stats.snapshot()
    table.fetch_many(ordered)
    grouped = db.stats.snapshot() - before
    for rowid in ordered:
        table.fetch(rowid)
    per_row = db.stats.snapshot() - before
    assert grouped.logical_reads == table.heap.page_count
    assert per_row.logical_reads - grouped.logical_reads == len(ordered)


def test_fetch_many_rejects_dead_and_invalid_rowids(db):
    table = db.create_table("rows", ["a"])
    rowids = [table.insert((i,)) for i in range(10)]
    table.delete(rowids[3])
    with pytest.raises(BlockError):
        table.fetch_many(rowids)
    with pytest.raises(BlockError):
        table.fetch_many([10 ** 9])
    with pytest.raises(BlockError):
        table.fetch_many([-1])
    assert table.fetch_many([]) == []
