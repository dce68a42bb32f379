"""Unit tests for the B+-tree."""

import pytest

from repro.engine.bptree import NO_BLOCK, BPlusTree, DuplicateEntryError
from repro.engine.buffer import BufferPool
from repro.engine.errors import KeyNotFoundError, SchemaError
from repro.engine.storage import DiskManager


def make_tree(arity: int = 2, block_size: int = 256, capacity: int = 16) -> BPlusTree:
    disk = DiskManager(block_size=block_size)
    pool = BufferPool(disk, capacity=capacity)
    return BPlusTree(pool, arity=arity)


def test_empty_tree():
    tree = make_tree()
    assert len(tree) == 0
    assert tree.first() is None
    assert list(tree.scan_all()) == []
    assert not tree.contains((1, 2))
    tree.check_invariants()


def test_insert_and_contains():
    tree = make_tree()
    tree.insert((5, 1))
    tree.insert((3, 2))
    assert tree.contains((5, 1))
    assert tree.contains((3, 2))
    assert not tree.contains((5, 2))
    assert len(tree) == 2


def test_duplicate_insert_rejected():
    tree = make_tree()
    tree.insert((1, 1))
    with pytest.raises(DuplicateEntryError):
        tree.insert((1, 1))


def test_wrong_arity_rejected():
    tree = make_tree(arity=2)
    with pytest.raises(SchemaError):
        tree.insert((1, 2, 3))
    with pytest.raises(SchemaError):
        tree.contains((1,))


def test_ordered_scan_after_random_inserts(rng):
    tree = make_tree()
    entries = {(rng.randrange(1000), i) for i in range(500)}
    for entry in entries:
        tree.insert(entry)
    assert list(tree.scan_all()) == sorted(entries)
    tree.check_invariants()
    assert tree.height > 1  # must actually have split


def test_range_scan_prefix_semantics(rng):
    tree = make_tree(arity=3)
    entries = sorted({(rng.randrange(50), rng.randrange(100), i) for i in range(400)})
    for entry in entries:
        tree.insert(entry)
    got = list(tree.scan_range((10,), (20,)))
    expected = [e for e in entries if 10 <= e[0] <= 20]
    assert got == expected
    # Two-column prefix.
    got = list(tree.scan_range((10, 50), (20,)))
    expected = [e for e in entries if (10, 50) <= (e[0], e[1]) and e[0] <= 20]
    assert got == expected


def test_range_scan_empty_when_lo_above_hi():
    tree = make_tree()
    tree.insert((1, 1))
    assert list(tree.scan_range((5,), (4,))) == []


def test_delete_missing_entry_rejected():
    tree = make_tree()
    tree.insert((1, 1))
    with pytest.raises(KeyNotFoundError):
        tree.delete((2, 2))


def test_delete_all_entries_collapses_to_empty(rng):
    tree = make_tree()
    entries = sorted({(rng.randrange(10_000), i) for i in range(600)})
    for entry in entries:
        tree.insert(entry)
    rng.shuffle(entries)
    for entry in entries:
        tree.delete(entry)
        if len(tree) % 97 == 0:
            tree.check_invariants()
    assert len(tree) == 0
    assert tree.height == 1
    assert list(tree.scan_all()) == []
    tree.check_invariants()


def test_interleaved_inserts_and_deletes(rng):
    tree = make_tree()
    alive: set[tuple[int, int]] = set()
    for step in range(3000):
        if alive and rng.random() < 0.4:
            victim = rng.choice(sorted(alive))
            tree.delete(victim)
            alive.remove(victim)
        else:
            entry = (rng.randrange(500), step)
            tree.insert(entry)
            alive.add(entry)
        if step % 500 == 0:
            tree.check_invariants()
    assert list(tree.scan_all()) == sorted(alive)
    tree.check_invariants()


def test_bulk_load_equals_inserts(rng):
    entries = sorted({(rng.randrange(100_000), i) for i in range(2000)})
    bulk = make_tree()
    bulk.bulk_load(entries)
    bulk.check_invariants()
    assert list(bulk.scan_all()) == entries
    assert len(bulk) == len(entries)


def test_bulk_load_rejects_unsorted():
    tree = make_tree()
    with pytest.raises(SchemaError):
        tree.bulk_load([(2, 1), (1, 1)])


def test_bulk_load_rejects_duplicates():
    tree = make_tree()
    with pytest.raises(SchemaError):
        tree.bulk_load([(1, 1), (1, 1)])


def test_bulk_load_rejects_non_empty():
    tree = make_tree()
    tree.insert((1, 1))
    with pytest.raises(SchemaError):
        tree.bulk_load([(2, 2)])


def test_bulk_load_empty_is_noop():
    tree = make_tree()
    tree.bulk_load([])
    assert len(tree) == 0
    tree.check_invariants()


def test_bulk_load_single_entry():
    tree = make_tree()
    tree.bulk_load([(7, 7)])
    assert list(tree.scan_all()) == [(7, 7)]
    tree.check_invariants()


def test_updates_after_bulk_load(rng):
    entries = sorted({(rng.randrange(10_000), i) for i in range(1500)})
    tree = make_tree()
    tree.bulk_load(entries)
    extra = [(rng.randrange(10_000), 100_000 + i) for i in range(300)]
    for entry in extra:
        tree.insert(entry)
    for entry in entries[::3]:
        tree.delete(entry)
    survivors = sorted(set(entries) - set(entries[::3]) | set(extra))
    assert list(tree.scan_all()) == survivors
    tree.check_invariants()


def test_last_le_basic():
    tree = make_tree()
    for value in (10, 20, 30):
        tree.insert((value, value))
    assert tree.last_le((25,)) == (20, 20)
    assert tree.last_le((30,)) == (30, 30)
    assert tree.last_le((9,)) is None
    assert tree.last_le((100,)) == (30, 30)


def test_last_le_across_leaves(rng):
    tree = make_tree()
    entries = sorted({(rng.randrange(100_000), i) for i in range(1500)})
    tree.bulk_load(entries)
    for probe in (0, 1, 50_000, 99_999, 200_000):
        expected = None
        for entry in entries:
            if entry <= (probe, 2**62):
                expected = entry
        assert tree.last_le((probe,)) == expected


def test_leaf_chain_matches_scan(rng):
    tree = make_tree()
    for i in range(800):
        tree.insert((rng.randrange(5000), i))
    # check_invariants verifies the chain in-order; also verify termination.
    leaf_id = tree.root_id
    node = tree._get(leaf_id)
    while hasattr(node, "children"):
        leaf_id = node.children[0]
        node = tree._get(leaf_id)
    count = 0
    while leaf_id != NO_BLOCK:
        leaf = tree._get(leaf_id)
        count += len(tree._entries(leaf))
        leaf_id = leaf.next_leaf
    assert count == len(tree)


def test_block_count_tracks_size(rng):
    tree = make_tree()
    for i in range(2000):
        tree.insert((rng.randrange(100_000), i))
    blocks = tree.block_count
    # O(n/b): entries-per-leaf is bounded by capacity, and fill >= 1/3.
    assert blocks >= 2000 / tree.leaf_capacity
    assert blocks <= 3 * (2000 / tree.leaf_capacity) + tree.height + 10


def test_scan_is_lazy():
    tree = make_tree()
    for i in range(200):
        tree.insert((i, i))
    scan = tree.scan_range((0,), (199,))
    first = next(scan)
    assert first == (0, 0)
