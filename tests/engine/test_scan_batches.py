"""Batched scan pipeline: leaf-slice scans, reader fast path, fetch_many.

The contract under test is the one the RI-tree's I/O claims rest on:
``scan_batches`` must return exactly what the per-entry ``scan_range``
returns, with an identical logical/physical I/O trace, while the buffer
pool's pre-bound readers keep the same accounting as ``BufferPool.get``
-- whatever form (array or tuple list) each cached leaf is in.
"""

import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ritree import RITree
from repro.engine import Database
from repro.engine.bptree import NO_BLOCK, BPlusTree
from repro.engine.buffer import BufferPool
from repro.engine.errors import BlockError
from repro.engine.serial import pad_high, pad_low
from repro.engine.storage import DiskManager
from repro.methods.memory import BruteForceIntervals


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
    keys = data.draw(
        st.sets(st.tuples(st.integers(-200, 200), st.integers(0, 50)), max_size=300)
    )
    db = Database(block_size=256, cache_blocks=16)
    tree = _build_tree(db, keys)
    prefix = st.one_of(
        st.just(()),
        st.tuples(st.integers(-220, 220)),
        st.tuples(st.integers(-220, 220), st.integers(-5, 55)),
    )
    for _ in range(5):
        lo = data.draw(prefix)
        hi = data.draw(prefix)
        per_entry = list(tree.scan_range(lo, hi))
        batched = [e for batch in tree.scan_batches(lo, hi) for e in batch]
        expected = [e for e in sorted(keys) if pad_low(lo, 2) <= e <= pad_high(hi, 2)]
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
    for lo, hi in [
        ((), ()),
        ((100,), (4000,)),
        ((2500,), (2500,)),
        ((4999,), ()),
        ((), (3,)),
        ((9000,), ()),
    ]:
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
        assert (cold_b - cold_a).physical_reads == (cold_d - cold_c).physical_reads
        assert (cold_b - cold_a).logical_reads == (cold_d - cold_c).logical_reads


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
    for block_id in ids:  # 12 misses
        assert read(block_id).data == disk.read(block_id)
    misses = pool.stats.snapshot()
    # disk.read above also counts physical reads; only compare logical.
    assert misses.logical_reads - before.logical_reads == 12
    resident = [b for b in ids if pool.is_resident(b)]
    assert len(resident) == 8
    hits_before = pool.stats.snapshot()
    for block_id in resident:  # pure hits
        read(block_id)
    hits_after = pool.stats.snapshot()
    assert hits_after.logical_reads - hits_before.logical_reads == len(resident)
    assert hits_after.physical_reads == hits_before.physical_reads


def test_make_reader_survives_cache_clear():
    db = Database(block_size=256, cache_blocks=8)
    tree = _build_tree(db, {(i, 0) for i in range(100)})
    db.clear_cache()
    assert [e for b in tree.scan_batches((), ()) for e in b] == [
        (i, 0) for i in range(100)
    ]


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
        table.fetch_many([10**9])
    with pytest.raises(BlockError):
        table.fetch_many([-1])
    assert table.fetch_many([]) == []


# ----------------------------------------------------------------------
# page forms: array leaves, tuple leaves and a mix
# ----------------------------------------------------------------------
def _leaves(tree):
    """``(block id, leaf)`` along the leaf chain, read without a scan."""
    leaf_id = tree._descend(pad_low((), tree.arity))[-1][0]
    while leaf_id != NO_BLOCK:
        leaf = tree._get(leaf_id)
        yield leaf_id, leaf
        leaf_id = leaf.next_leaf


def _forms(ritree) -> set[str]:
    trees = (ritree._lower_tree, ritree._upper_tree)
    return {
        "array" if leaf.entries is None else "tuple"
        for tree in trees
        for _leaf_id, leaf in _leaves(tree)
    }


def _warm(ritree) -> None:
    """Read every page of the relation, so each is cached in its form."""
    for tree in (ritree._lower_tree, ritree._upper_tree):
        tree.check_invariants()
    list(ritree.table.scan())


def _write_leaves(ritree, records, every: int) -> None:
    """Write every ``every``-th leaf of both indexes without changing them.

    Deleting an interval and inserting it again writes its two leaves;
    leaves filled to 0.9 by the bulk load neither merge nor split, and
    the freed heap slot is the lowest free one, so the row id returns.
    """
    by_id = {interval_id: (lower, upper) for lower, upper, interval_id in records}
    for tree in (ritree._lower_tree, ritree._upper_tree):
        leaves = [leaf for _leaf_id, leaf in _leaves(tree)][::every]
        for interval_id in [tree._entries(leaf)[0][2] for leaf in leaves]:
            lower, upper = by_id[interval_id]
            ritree.delete(lower, upper, interval_id)
            ritree.insert(lower, upper, interval_id)


def _read_everything(ritree, oracle, windows, ranges, cold=False):
    """Every read path over ``windows`` and index ``ranges``, plus the
    I/O it cost; ``cold`` empties the cache before each read."""
    stats = ritree.db.stats
    logical = physical = 0
    out = []

    def read(run):
        nonlocal logical, physical
        if cold:
            ritree.db.clear_cache()
        before = stats.snapshot()
        result = run()
        delta = stats.snapshot() - before
        logical += delta.logical_reads
        physical += delta.physical_reads
        return result

    for tree, lo_prefix, hi_prefix in ranges:
        lo = pad_low(lo_prefix, tree.arity)
        hi = pad_high(hi_prefix, tree.arity)
        entries = read(lambda: _flat(tree.scan_batches_padded(lo, hi)))
        reference = read(lambda: list(tree.scan_range_unbatched(lo_prefix, hi_prefix)))
        assert entries == reference
        assert read(lambda: tree.count_range_padded(lo, hi)) == len(entries)
        for column in range(tree.arity):
            scanned = read(lambda: _flat(tree.scan_batches_padded(lo, hi, column)))
            assert scanned == [entry[column] for entry in entries]
        out.append(entries)
    for lower, upper in windows:
        ids = sorted(read(lambda: ritree.intersection(lower, upper)))
        assert ids == sorted(oracle.intersection(lower, upper))
        out.append(ids)
        for name in ("contains", "during", "overlaps", "starts", "finished_by"):
            ids = sorted(read(lambda: ritree.query(lower, upper, predicate=name)))
            assert ids == sorted(oracle.query(lower, upper, predicate=name))
            out.append(ids)
    return out, logical, physical


def _flat(batches) -> list:
    return list(chain.from_iterable(batches))


def test_reads_agree_across_page_forms():
    """Cold array leaves, cached array leaves, a mix and written leaves
    give the same answers for the same logical reads."""
    rng = random.Random(7)
    records = []
    for interval_id in range(600):
        lower = rng.randrange(-5_000, 5_000)
        records.append((lower, lower + rng.randrange(400), interval_id))
    ritree = RITree(Database(block_size=512, cache_blocks=4096))
    ritree.bulk_load(records)
    oracle = BruteForceIntervals(records)
    windows = [
        (lower, lower + rng.randrange(600)) for lower in range(-5_200, 5_000, 173)
    ]
    nodes = sorted({row[0] for _rowid, row in ritree.table.scan()})
    ranges = [
        (tree, lo, hi)
        for tree in (ritree._lower_tree, ritree._upper_tree)
        for lo, hi in [
            ((), ()),
            ((nodes[3],), (nodes[3],)),
            ((nodes[5], 0), (nodes[40],)),
            ((nodes[-1], 10**6), ()),
            ((), (nodes[0] - 1,)),
        ]
    ]
    # Cold: each read starts from an empty cache, so every leaf it reads
    # is an array when first scanned.
    cold = _read_everything(ritree, oracle, windows, ranges, cold=True)
    # Cached, every page read once by the invariant walk: arrays.
    ritree.db.clear_cache()
    _warm(ritree)
    assert _forms(ritree) == {"array"}
    arrays = _read_everything(ritree, oracle, windows, ranges)

    ritree.db.clear_cache()
    _write_leaves(ritree, records, every=2)
    _warm(ritree)
    assert _forms(ritree) == {"array", "tuple"}
    mixed = _read_everything(ritree, oracle, windows, ranges)

    _write_leaves(ritree, records, every=1)
    _warm(ritree)
    assert _forms(ritree) == {"tuple"}
    written = _read_everything(ritree, oracle, windows, ranges)

    assert arrays == mixed == written
    assert arrays[2] == 0  # every cached state reads no block
    assert cold[:2] == arrays[:2]
    assert cold[2] > 0

    # A written leaf evicted and read again comes back as an array.
    tree = ritree._upper_tree
    leaf_id, leaf = next(_leaves(tree))
    entries = list(leaf.entries)
    ritree.db.pool.flush_block(leaf_id)
    ritree.db.pool.drop(leaf_id)
    reread = tree._get(leaf_id)
    assert reread.entries is None
    assert tree._entries(reread) == entries
    assert _read_everything(ritree, oracle, windows, ranges)[0] == arrays[0]


def test_a_leaf_read_again_while_cached_turns_into_tuples():
    """A scan leaves the leaves it read from disk as arrays; the next
    scan that finds one cached decodes it once."""
    db = Database(block_size=256, cache_blocks=64)
    tree = BPlusTree(db.pool, arity=2, name="t")
    tree.bulk_load([(i, -i) for i in range(100)])  # 8 leaves, none cached
    lo, hi = pad_low((), 2), pad_high((), 2)
    for scan in (
        lambda: _flat(tree.scan_batches_padded(lo, hi)),
        lambda: _flat(tree.scan_batches_padded(lo, hi, 1)),
        lambda: tree.count_range_padded(lo, hi),
    ):
        db.clear_cache()
        first = scan()
        assert {leaf.entries is None for _leaf_id, leaf in _leaves(tree)} == {True}
        assert scan() == first
        assert {leaf.values is None for _leaf_id, leaf in _leaves(tree)} == {True}
        assert tree.count_range_padded(lo, hi) == 100
