"""Unit tests for the LRU buffer pool."""

import sys

import pytest

from repro.engine.buffer import BufferPool
from repro.engine.database import Database
from repro.engine.errors import BufferError_
from repro.engine.storage import DiskManager


class FakePage:
    """A page whose serialised form is its payload."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload

    def to_bytes(self) -> bytes:
        return self.payload


def load(data: bytes) -> FakePage:
    return FakePage(data)


def make_pool(capacity: int = 8) -> tuple[DiskManager, BufferPool]:
    disk = DiskManager(block_size=128)
    return disk, BufferPool(disk, capacity=capacity)


def write_block(disk: DiskManager, payload: bytes) -> int:
    block = disk.allocate()
    disk.write(block, payload)
    return block


def test_get_miss_then_hit():
    disk, pool = make_pool()
    block = write_block(disk, b"abc")
    before = disk.stats.physical_reads
    page1 = pool.get(block, load)
    page2 = pool.get(block, load)
    assert page1 is page2
    assert disk.stats.physical_reads == before + 1  # second get was a hit
    assert pool.stats.logical_reads >= 2


def test_eviction_writes_back_dirty_pages():
    disk, pool = make_pool(capacity=8)
    block = disk.allocate()
    pool.put_new(block, FakePage(b"dirty"))
    pool.mark_dirty(block)
    # Fill the pool to force eviction of `block`.
    for _ in range(10):
        other = write_block(disk, b"x")
        pool.get(other, load)
    assert not pool.is_resident(block)
    assert disk.read(block) == b"dirty"


def test_eviction_skips_clean_write_back():
    disk, pool = make_pool(capacity=8)
    block = write_block(disk, b"clean")
    pool.get(block, load)
    writes_before = disk.stats.physical_writes
    for _ in range(10):
        pool.get(write_block(disk, b"y"), load)
    # Exactly the 10 explicit write_block calls; evictions of clean pages
    # must not add write-backs.
    assert disk.stats.physical_writes == writes_before + 10


def test_pinned_pages_survive_eviction_pressure():
    disk, pool = make_pool(capacity=8)
    block = write_block(disk, b"pinme")
    pool.get(block, load)
    pool.pin(block)
    for _ in range(20):
        pool.get(write_block(disk, b"z"), load)
    assert pool.is_resident(block)
    pool.unpin(block)


def test_all_pinned_raises():
    disk, pool = make_pool(capacity=8)
    blocks = [write_block(disk, b"p") for _ in range(8)]
    for block in blocks:
        pool.get(block, load)
        pool.pin(block)
    with pytest.raises(BufferError_):
        pool.get(write_block(disk, b"q"), load)
    for block in blocks:
        pool.unpin(block)


@pytest.mark.parametrize("via", ["get", "reader", "scan_refs", "put_new"])
def test_refused_miss_leaves_the_pool_unchanged(via):
    disk, pool = make_pool(capacity=8)
    blocks = [write_block(disk, b"p") for _ in range(8)]
    for block in blocks:
        pool.get(block, load)
        pool.pin(block)
    refused = write_block(disk, b"q")
    reads = disk.stats.physical_reads
    with pytest.raises(BufferError_):
        if via == "get":
            pool.get(refused, load)
        elif via == "reader":
            pool.make_reader(load)(refused)
        elif via == "scan_refs":
            pool.scan_refs(load)[2](refused)
        else:
            pool.put_new(refused, FakePage(b"new"))
    assert pool.resident <= pool.capacity
    assert not pool.is_resident(refused)
    assert all(pool.is_resident(block) for block in blocks)
    assert disk.stats.physical_reads == reads
    for block in blocks:
        pool.unpin(block)
    assert pool.get(refused, load).payload == b"q"


def calls_during(run, *args) -> list[str]:
    """Names of the Python frames ``run(*args)`` activates; calls into C
    functions, such as a :func:`functools.partial`, make none."""
    names = []

    def hook(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        run(*args)
    finally:
        sys.setprofile(None)
    return names


def test_a_miss_runs_three_python_frames():
    db = Database(block_size=512, cache_blocks=16)
    table = db.create_table("T", ["a", "b"])
    table.create_index("ia", ["a"])
    table.bulk_load([(i, -i) for i in range(600)])
    db.flush()
    db.clear_cache()
    tree, heap = table.index("ia").tree, table.heap
    # Into an empty pool: a B+-tree page, then a heap page.
    miss = tree._hot[2]
    assert calls_during(miss, tree.root_id) == ["_miss", "read", "load_node"]
    miss = heap._hot[2]
    block = heap._page_ids[0]
    assert calls_during(miss, block) == ["_miss", "read", "load_page"]
    # Into a full pool whose least recently used page is clean.
    block = heap._page_ids[-1]
    heap.fetch_many(range(0, 600 - heap.slots_per_page, heap.slots_per_page))
    assert db.pool.resident == db.pool.capacity
    assert not db.pool.is_resident(block)
    assert calls_during(miss, block) == ["_miss", "read", "load_page"]
    assert db.pool.resident == db.pool.capacity


def test_put_new_duplicate_rejected():
    disk, pool = make_pool()
    block = disk.allocate()
    pool.put_new(block, FakePage(b"a"))
    with pytest.raises(BufferError_):
        pool.put_new(block, FakePage(b"b"))


def test_mark_dirty_nonresident_rejected():
    disk, pool = make_pool()
    block = write_block(disk, b"a")
    with pytest.raises(BufferError_):
        pool.mark_dirty(block)


def test_unpin_without_pin_rejected():
    disk, pool = make_pool()
    block = write_block(disk, b"a")
    pool.get(block, load)
    with pytest.raises(BufferError_):
        pool.unpin(block)


def test_flush_all_persists_dirty_pages():
    disk, pool = make_pool()
    block = disk.allocate()
    pool.put_new(block, FakePage(b"persist"))
    pool.flush_all()
    assert disk.read(block) == b"persist"


def test_clear_empties_cache_after_flush():
    disk, pool = make_pool()
    block = disk.allocate()
    pool.put_new(block, FakePage(b"c"))
    pool.clear()
    assert pool.resident == 0
    assert disk.read(block) == b"c"


def test_drop_discards_without_write_back():
    disk, pool = make_pool()
    block = write_block(disk, b"orig")
    page = pool.get(block, load)
    page.payload = b"mutated"
    pool.mark_dirty(block)
    pool.drop(block)
    assert disk.read(block) == b"orig"


def test_drop_pinned_rejected():
    disk, pool = make_pool()
    block = write_block(disk, b"a")
    pool.get(block, load)
    pool.pin(block)
    with pytest.raises(BufferError_):
        pool.drop(block)
    pool.unpin(block)


def test_lru_order_eviction():
    disk, pool = make_pool(capacity=8)
    first = write_block(disk, b"first")
    pool.get(first, load)
    others = [write_block(disk, b"o") for _ in range(7)]
    for block in others:
        pool.get(block, load)
    # Touch `first` so it becomes most-recently-used.
    pool.get(first, load)
    pool.get(write_block(disk, b"new"), load)
    assert pool.is_resident(first)
    assert not pool.is_resident(others[0])


def test_capacity_floor_enforced():
    disk = DiskManager(block_size=128)
    with pytest.raises(BufferError_):
        BufferPool(disk, capacity=2)


def test_physical_reads_never_exceed_logical():
    disk, pool = make_pool(capacity=8)
    blocks = [write_block(disk, bytes([i])) for i in range(30)]
    disk.stats.reset()
    for _ in range(3):
        for block in blocks:
            pool.get(block, load)
    assert disk.stats.physical_reads <= pool.stats.logical_reads
