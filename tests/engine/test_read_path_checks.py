"""The inlined read paths keep every check of ``BufferPool.get``.

``BPlusTree.scan_batches_padded``, ``BPlusTree.count_range_padded`` and
``Table.fetch_many`` probe the cache inline and call the pool's miss step
themselves.  With a cold cache, each must fail on a bad block exactly as
``BufferPool.get`` with the structure's loader does: a torn block, an
injected transient read fault (with and without a retry policy), a freed
block id, and a short or wrong-type page.  The block that fails is the
root of the index, a leaf inside the scan, or the heap page of a row.
"""

from functools import partial

import pytest

from repro.engine import (
    BlockError,
    Database,
    FaultInjector,
    RetryExhaustedError,
    RetryPolicy,
    SerializationError,
    TornPageError,
    TransientIOError,
)
from repro.engine.bptree import PAGE_INTERNAL, InternalPage
from repro.engine.heap import PAGE_HEAP, load_page
from repro.engine.serial import pack_header, pad_high, pad_low

#: 20 rows fill a heap page of 512 bytes, so the last page is half full.
ROWS = [(i, 2 * i) for i in range(290)]
WIDE = (pad_low((), 2), pad_high((), 2))


class BlockFaults(FaultInjector):
    """Fails the next ``times`` physical reads of one block transiently."""

    def __init__(self) -> None:
        super().__init__()
        self.block = -1
        self.times = 0

    def on_read(self, block_id: int) -> None:
        super().on_read(block_id)
        if block_id == self.block and self.times:
            self.times -= 1
            raise TransientIOError(f"injected transient read fault on {block_id}")


def cold_db(retry=None):
    injector = BlockFaults()
    db = Database(block_size=512, cache_blocks=16, injector=injector, retry=retry)
    table = db.create_table("T", ["a", "b"])
    table.create_index("ia", ["a"])
    table.bulk_load(ROWS)
    db.flush()
    db.clear_cache()
    return db, table, injector


def second_leaf(tree) -> int:
    """The leaf a full scan reads after the first (inside its loop)."""
    node = tree._get(tree.root_id)
    while isinstance(node, InternalPage):
        node = tree._get(node.children[0])
    return node.next_leaf


#: Where a path reads from, and how it reads: ``(target, run)`` builders.
def index_root(table):
    return table.index("ia").tree.root_id


def index_leaf(table):
    return second_leaf(table.index("ia").tree)


def heap_page(table):
    return table.heap._page_ids[1]


def rows_of_page_one(table):
    per_page = table.heap.slots_per_page
    return list(range(per_page - 2, 2 * per_page + 1))


PATHS = {
    "scan_batches_padded/root": (
        index_root,
        lambda table: list(table.index("ia").tree.scan_batches_padded(*WIDE)),
    ),
    "scan_batches_padded/leaf": (
        index_leaf,
        lambda table: list(table.index("ia").tree.scan_batches_padded(*WIDE, 1)),
    ),
    "count_range_padded/root": (
        index_root,
        lambda table: table.index("ia").tree.count_range_padded(*WIDE),
    ),
    "count_range_padded/leaf": (
        index_leaf,
        lambda table: table.index("ia").tree.count_range_padded(*WIDE),
    ),
    "fetch_many/heap": (
        heap_page,
        lambda table: table.fetch_many(rows_of_page_one(table)),
    ),
}


def loader_of(table, target):
    if target in table.heap._page_ids:
        return partial(load_page, table.heap.codec)
    return table.index("ia").tree._load


def torn(db, target, injector):
    data = db.disk._blocks[target]
    injector.tear_write(injector.writes + 1)
    db.disk.write(target, data)


def freed(db, target, injector):
    db.disk.free(target)


def short_page(db, target, injector):
    db.disk.write(target, b"\x01\x00")


def page_shorter_than_its_count(db, target, injector):
    page_type = db.disk._blocks[target][0]
    db.disk.write(target, pack_header(page_type, 50, -1) + b"\x00" * 16)


def wrong_type(db, target, injector):
    page_type = db.disk._blocks[target][0]
    # A heap page where an index page belongs, and an index page where a
    # heap page belongs.
    other = PAGE_INTERNAL if page_type == PAGE_HEAP else PAGE_HEAP
    db.disk.write(target, pack_header(other, 0, -1) + b"\x00" * 8)


def transient(db, target, injector):
    injector.block, injector.times = target, 1


def transient_twice(db, target, injector):
    injector.block, injector.times = target, 2


#: ``(corruption, retry attempts, error both paths raise)``.
CASES = {
    "torn": (torn, None, TornPageError),
    "transient": (transient, None, TransientIOError),
    "transient-retry-exhausted": (transient_twice, 2, RetryExhaustedError),
    "freed": (freed, None, BlockError),
    "short": (short_page, None, SerializationError),
    "shorter-than-count": (page_shorter_than_its_count, None, SerializationError),
    "wrong-type": (wrong_type, None, SerializationError),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_inlined_path_raises_as_get_does(path, case):
    corrupt, attempts, error = CASES[case]
    target_of, run = PATHS[path]
    outcomes = []
    for via_get in (True, False):
        retry = None if attempts is None else RetryPolicy(attempts=attempts)
        db, table, injector = cold_db(retry)
        target = target_of(table)
        loader = loader_of(table, target)
        db.clear_cache()
        corrupt(db, target, injector)
        with pytest.raises(error) as caught:
            if via_get:
                db.pool.get(target, loader)
            else:
                run(table)
        outcomes.append(type(caught.value))
        assert not db.pool.is_resident(target)
        assert db.pool.resident <= db.pool.capacity
    assert outcomes[0] is outcomes[1] is error


@pytest.mark.parametrize("path", sorted(PATHS))
def test_retried_transient_fault_reads_as_clean(path):
    target_of, run = PATHS[path]
    clean_db, clean_table, _ = cold_db()
    before = clean_db.stats.physical_reads
    expected = run(clean_table)
    clean_reads = clean_db.stats.physical_reads - before
    retry = RetryPolicy(attempts=3)
    db, table, injector = cold_db(retry)
    target = target_of(table)
    db.clear_cache()
    transient(db, target, injector)
    before = db.stats.physical_reads
    assert run(table) == expected
    assert retry.total_retries == 1
    assert db.stats.physical_reads - before == clean_reads


def test_fetch_many_rejects_out_of_range_and_dead_rowids():
    db, table, _ = cold_db()
    rows = len(ROWS)
    capacity = len(table.heap._page_ids) * table.heap.slots_per_page
    for rowid in (-1, capacity, capacity + 5):
        with pytest.raises(BlockError, match="invalid rowid"):
            table.fetch_many([0, rowid])
    # Past the last row but inside the last page's slots.
    assert rows < capacity
    with pytest.raises(BlockError, match="not live"):
        table.fetch_many([rows])
    table.delete(7)
    db.clear_cache()
    with pytest.raises(BlockError, match="not live"):
        table.fetch_many([5, 6, 7])
    assert table.fetch_many([5, 6, 8]) == [ROWS[5], ROWS[6], ROWS[8]]
