"""Property-based tests: the B+-tree behaves as a sorted set of tuples."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.verify import VerificationReport, verify_engine_tree
from repro.engine.bptree import BPlusTree, DuplicateEntryError, InternalPage
from repro.engine.buffer import BufferPool
from repro.engine.errors import SchemaError
from repro.engine.storage import DiskManager

entry_strategy = st.tuples(st.integers(-1000, 1000), st.integers(0, 10_000))


def fresh_tree(block_size: int = 256) -> BPlusTree:
    disk = DiskManager(block_size=block_size)
    pool = BufferPool(disk, capacity=16)
    return BPlusTree(pool, arity=2)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sets(entry_strategy, max_size=300))
def test_insert_scan_equals_sorted_set(entries):
    tree = fresh_tree()
    for entry in entries:
        tree.insert(entry)
    assert list(tree.scan_all()) == sorted(entries)
    tree.check_invariants()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sets(entry_strategy, min_size=1, max_size=300), st.data())
def test_delete_subset_equals_set_difference(entries, data):
    tree = fresh_tree()
    for entry in entries:
        tree.insert(entry)
    victims = data.draw(st.sets(st.sampled_from(sorted(entries)),
                                max_size=len(entries)))
    for victim in victims:
        tree.delete(victim)
    assert list(tree.scan_all()) == sorted(entries - victims)
    tree.check_invariants()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sets(entry_strategy, max_size=300),
       st.tuples(st.integers(-1100, 1100)),
       st.tuples(st.integers(-1100, 1100)))
def test_range_scan_equals_filtered_sort(entries, lo, hi):
    tree = fresh_tree()
    tree.bulk_load(sorted(entries))
    got = list(tree.scan_range(lo, hi))
    expected = [e for e in sorted(entries) if lo[0] <= e[0] <= hi[0]]
    assert got == expected


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sets(entry_strategy, max_size=250), entry_strategy)
def test_last_le_equals_max_of_filtered(entries, probe):
    tree = fresh_tree()
    tree.bulk_load(sorted(entries))
    candidates = [e for e in entries if e <= probe]
    expected = max(candidates) if candidates else None
    assert tree.last_le(probe) == expected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sets(entry_strategy, max_size=400), st.floats(0.7, 1.0))
def test_bulk_load_any_fill_factor(entries, fill):
    tree = fresh_tree()
    tree.bulk_load(sorted(entries), fill=fill)
    assert list(tree.scan_all()) == sorted(entries)
    tree.check_invariants()


def tree_pages(tree: BPlusTree):
    """Root, height, entry count and the bytes of every reachable page."""
    pages = {}
    stack = [tree.root_id]
    while stack:
        block_id = stack.pop()
        page = tree._get(block_id)
        pages[block_id] = page.to_bytes()
        if isinstance(page, InternalPage):
            stack.extend(page.children)
    return tree.root_id, tree.height, tree.entry_count, pages


def preloaded_tree(preload, bulk: bool) -> BPlusTree:
    tree = fresh_tree()
    if bulk:
        tree.bulk_load(sorted(preload))
    else:
        for entry in preload:
            tree.insert(entry)
    return tree


def batch_case(seed, preload_size, batch_size, window, duplicate):
    """A preload and a sorted batch drawn from 4,000 two-column entries.

    The batch comes from a window of the entries the preload left out
    (narrow windows give long leaf runs); with ``duplicate`` it also
    repeats one preloaded entry.
    """
    rng = random.Random(seed)
    universe = [(x // 10, x) for x in range(4000)]
    preload = rng.sample(universe, preload_size)
    stored = set(preload)
    remaining = [entry for entry in universe if entry not in stored]
    start = rng.randrange(len(remaining))
    pool = remaining[start : start + window]
    batch = rng.sample(pool, min(batch_size, len(pool)))
    if duplicate and preload:
        batch.append(rng.choice(preload))
    return preload, sorted(batch)


# A 256-byte block holds 15 leaf entries and 9 separators, so preloads and
# batches of a few hundred entries split leaves and internal nodes and
# grow the root; the 16-block pool evicts, so a leaf left clean after a
# change would lose it.
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32), st.integers(0, 400), st.integers(1, 300),
       st.integers(1, 4000), st.booleans(), st.booleans())
def test_insert_many_builds_the_pages_of_the_sorted_loop(
    seed, preload_size, batch_size, window, duplicate, bulk
):
    preload, batch = batch_case(seed, preload_size, batch_size, window, duplicate)
    looped = preloaded_tree(preload, bulk)
    loop_failed = False
    for entry in batch:
        try:
            looped.insert(entry)
        except DuplicateEntryError:
            loop_failed = True
            break
    batched = preloaded_tree(preload, bulk)
    batch_failed = False
    try:
        batched.insert_many(batch)
    except DuplicateEntryError:
        batch_failed = True
    assert batch_failed == loop_failed == (duplicate and bool(preload))
    assert tree_pages(batched) == tree_pages(looped)
    report = VerificationReport("insert_many", "engine")
    verify_engine_tree(report, batched, "batched")
    assert report.ok, report.issues


def test_insert_many_grows_the_root_through_internal_splits():
    batched, looped = fresh_tree(), fresh_tree()
    entries = [(i // 7, i) for i in range(600)]
    batched.insert_many(entries)
    for entry in entries:
        looped.insert(entry)
    assert batched.height >= 3
    assert tree_pages(batched) == tree_pages(looped)
    batched.check_invariants()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sets(entry_strategy, min_size=1, max_size=150), st.data())
def test_insert_many_rejects_bad_batches_before_touching_the_tree(entries, data):
    tree = fresh_tree()
    tree.insert_many(sorted(entries))
    before = tree_pages(tree)
    stored = data.draw(st.sampled_from(sorted(entries)))
    fresh = (2000, 0)  # outside entry_strategy, so never stored
    with pytest.raises(DuplicateEntryError):
        tree.insert_many([stored])
    with pytest.raises(DuplicateEntryError):
        tree.insert_many([fresh, fresh])
    with pytest.raises(SchemaError):
        tree.insert_many([(2001, 0), fresh])
    with pytest.raises(SchemaError):
        tree.insert_many([(2001, 0, 0)])
    assert tree_pages(tree) == before


class BPlusTreeMachine(RuleBasedStateMachine):
    """Stateful comparison against a Python set."""

    def __init__(self):
        super().__init__()
        self.tree = fresh_tree()
        self.model: set[tuple[int, int]] = set()

    @rule(entry=entry_strategy)
    def insert(self, entry):
        if entry in self.model:
            return
        self.tree.insert(entry)
        self.model.add(entry)

    @rule(entry=entry_strategy)
    def delete_if_present(self, entry):
        if entry in self.model:
            self.tree.delete(entry)
            self.model.remove(entry)

    @rule(lo=st.integers(-1100, 1100), hi=st.integers(-1100, 1100))
    def range_scan(self, lo, hi):
        got = list(self.tree.scan_range((lo,), (hi,)))
        expected = sorted(e for e in self.model if lo <= e[0] <= hi)
        assert got == expected

    @rule(entry=entry_strategy)
    def membership(self, entry):
        assert self.tree.contains(entry) == (entry in self.model)

    @invariant()
    def count_matches(self):
        assert len(self.tree) == len(self.model)


TestBPlusTreeStateful = BPlusTreeMachine.TestCase
TestBPlusTreeStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
