"""Stateful test: the buffer pool against a plain list-based LRU model.

Hypothesis drives one :class:`BufferPool` through page requests (misses
and hits through ``get``, a ``make_reader`` reader, the ``scan_refs`` fast
path and ``HeapFile.fetch_many``), pins, writes, new pages, drops,
flushes and clears.  A model that keeps the resident blocks in a list,
least recently used first, predicts after every step the resident order,
the logical, physical and written block counts, the order of the disk
writes, the block ids announced to the fault injector as flush points,
and what every block holds on disk.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.engine.buffer import BufferPool
from repro.engine.faults import FaultInjector
from repro.engine.heap import HeapFile
from repro.engine.storage import DiskManager

CAPACITY = 8
FAKE_BLOCKS = 12
HEAP_ROWS = 12
VIAS = ["get", "reader", "scan_refs"]


class FakePage:
    """A page whose serialised form is its payload."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload

    def to_bytes(self) -> bytes:
        return self.payload


class RecordingInjector(FaultInjector):
    """Records the block of every disk write and every flush point."""

    def __init__(self) -> None:
        super().__init__()
        self.written: list[int] = []
        self.flushed: list[int] = []

    def on_write(self, block_id: int) -> bool:
        self.written.append(block_id)
        return super().on_write(block_id)

    def on_flush(self, block_id: int) -> None:
        self.flushed.append(block_id)
        super().on_flush(block_id)


class LruModel:
    """The pool as a list of resident blocks, least recently used first."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.order: list[int] = []
        self.dirty: set[int] = set()
        self.pins: dict[int, int] = {}
        #: What each block holds in the cache, and on disk.
        self.cached: dict[int, bytes] = {}
        self.on_disk: dict[int, bytes] = {}
        self.logical = 0
        self.physical = 0
        self.written: list[int] = []
        self.flushed: list[int] = []

    def _write_back(self, block_id: int) -> None:
        self.flushed.append(block_id)
        self.written.append(block_id)
        self.on_disk[block_id] = self.cached[block_id]
        self.dirty.discard(block_id)

    def _make_room(self) -> None:
        if len(self.order) < self.capacity:
            return
        victim = next(block for block in self.order if block not in self.pins)
        if victim in self.dirty:
            self._write_back(victim)
        self.order.remove(victim)
        del self.cached[victim]

    def request(self, block_id: int) -> None:
        self.logical += 1
        if block_id in self.order:
            self.order.remove(block_id)
        else:
            self.physical += 1
            self._make_room()
            self.cached[block_id] = self.on_disk[block_id]
        self.order.append(block_id)

    def put_new(self, block_id: int, payload: bytes) -> None:
        self._make_room()
        self.order.append(block_id)
        self.cached[block_id] = payload
        self.dirty.add(block_id)

    def mark_dirty(self, block_id: int, payload: bytes) -> None:
        self.order.remove(block_id)
        self.order.append(block_id)
        self.cached[block_id] = payload
        self.dirty.add(block_id)

    def flush_all(self) -> None:
        for block_id in [block for block in self.order if block in self.dirty]:
            self._write_back(block_id)


class BufferPoolMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.injector = RecordingInjector()
        self.disk = DiskManager(block_size=128, injector=self.injector)
        self.pool = BufferPool(self.disk, capacity=CAPACITY, injector=self.injector)
        self.model = LruModel(CAPACITY)
        self.fake: list[int] = []
        for number in range(FAKE_BLOCKS):
            block_id = self.disk.allocate()
            payload = b"block %d" % number
            self.disk.write(block_id, payload)
            self.fake.append(block_id)
            self.model.on_disk[block_id] = payload
        self.heap = HeapFile(self.pool, arity=2)
        rows = [(number, -number) for number in range(HEAP_ROWS)]
        self.rowids = self.heap.bulk_append(rows)
        self.rows = dict(zip(self.rowids, rows))
        self.heap_blocks = list(self.heap._page_ids)
        for block_id in self.heap_blocks:
            self.model.on_disk[block_id] = self.disk._blocks[block_id]
        self.disk.stats.reset()
        self.injector.written.clear()
        #: The page object last handed out for each fake block: the cached
        #: one while the block stays resident.
        self.pages: dict[int, FakePage] = {}
        self.reader = self.pool.make_reader(FakePage)
        self.frames, self.stats, self.miss = self.pool.scan_refs(FakePage)
        self.version = 0

    def _resident(self, index: int) -> int:
        order = self.model.order
        return order[index % len(order)]

    def _new_payload(self) -> bytes:
        self.version += 1
        return b"version %d" % self.version

    # -- page requests -------------------------------------------------
    @rule(index=st.integers(0, 99), via=st.sampled_from(VIAS))
    def request_fake(self, index: int, via: str) -> None:
        self._request(self.fake[index % len(self.fake)], via)

    @rule(via=st.sampled_from(VIAS))
    def request_every_fake(self, via: str) -> None:
        """A sweep longer than the pool: evicts whatever is unpinned."""
        for block_id in list(self.fake):
            self._request(block_id, via)

    def _request(self, block_id: int, via: str) -> None:
        if via == "get":
            page = self.pool.get(block_id, FakePage)
        elif via == "reader":
            page = self.reader(block_id)
        else:
            # The scan_refs contract, as the B+-tree and heap loops run it.
            # Only the miss's result is looked at: what a hit finds is the
            # page already handed out.
            self.stats.logical_reads += 1
            page = None
            if self.frames.get(block_id) is None:
                page = self.miss(block_id)
            else:
                self.frames.move_to_end(block_id)
        self.model.request(block_id)
        if page is not None:
            assert page.payload == self.model.cached[block_id]
            self.pages[block_id] = page

    @rule(positions=st.lists(st.integers(0, HEAP_ROWS - 1), min_size=1, max_size=6))
    def fetch_rows(self, positions: list[int]) -> None:
        rowids = [self.rowids[position] for position in positions]
        assert self.heap.fetch_many(rowids) == [self.rows[rowid] for rowid in rowids]
        previous = None
        for rowid in rowids:
            page_index = rowid // self.heap.slots_per_page
            if page_index != previous:
                self.model.request(self.heap_blocks[page_index])
            previous = page_index

    # -- pins, writes and new pages ------------------------------------
    @precondition(lambda self: self.model.order)
    @rule(index=st.integers(0, 99))
    def pin(self, index: int) -> None:
        block_id = self._resident(index)
        # Leave one frame unpinned, so every miss can evict.
        if block_id not in self.model.pins and len(self.model.pins) >= CAPACITY - 1:
            return
        self.pool.pin(block_id)
        self.model.pins[block_id] = self.model.pins.get(block_id, 0) + 1

    @precondition(lambda self: self.model.pins)
    @rule(index=st.integers(0, 99))
    def unpin(self, index: int) -> None:
        pinned = sorted(self.model.pins)
        block_id = pinned[index % len(pinned)]
        self.pool.unpin(block_id)
        self.model.pins[block_id] -= 1
        if not self.model.pins[block_id]:
            del self.model.pins[block_id]

    @precondition(lambda self: self.model.order)
    @rule(index=st.integers(0, 99))
    def mark_dirty(self, index: int) -> None:
        block_id = self._resident(index)
        payload = self.model.cached[block_id]
        if block_id in self.pages:
            payload = self.pages[block_id].payload = self._new_payload()
        self.pool.mark_dirty(block_id)
        self.model.mark_dirty(block_id, payload)

    @rule()
    def put_new(self) -> None:
        block_id = self.disk.allocate()
        payload = self._new_payload()
        self.pages[block_id] = FakePage(payload)
        self.pool.put_new(block_id, self.pages[block_id])
        self.fake.append(block_id)
        self.model.put_new(block_id, payload)

    @precondition(lambda self: len(self.fake) > 1)
    @rule(index=st.integers(0, 99))
    def drop_and_free(self, index: int) -> None:
        block_id = self.fake[index % len(self.fake)]
        if block_id in self.model.pins:
            return
        self.pool.drop(block_id)
        self.disk.free(block_id)
        self.fake.remove(block_id)
        self.pages.pop(block_id, None)
        if block_id in self.model.cached:
            self.model.order.remove(block_id)
            self.model.dirty.discard(block_id)
            del self.model.cached[block_id]
        self.model.on_disk.pop(block_id, None)

    # -- write-back ----------------------------------------------------
    @rule()
    def flush_all(self) -> None:
        self.pool.flush_all()
        self.model.flush_all()

    @precondition(lambda self: not self.model.pins)
    @rule()
    def clear(self) -> None:
        self.pool.clear()
        self.model.flush_all()
        self.model.order.clear()
        self.model.cached.clear()

    # -- the comparison ------------------------------------------------
    @invariant()
    def matches_the_model(self) -> None:
        model = self.model
        assert list(self.pool._frames) == model.order
        assert self.pool.resident <= CAPACITY
        assert self.stats.logical_reads == model.logical
        assert self.stats.physical_reads == model.physical
        assert self.stats.physical_writes == len(model.written)
        assert self.injector.written == model.written
        assert self.injector.flushed == model.flushed
        for block_id, payload in model.on_disk.items():
            assert self.disk._blocks[block_id] == payload


BufferPoolMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
test_buffer_pool_matches_an_lru_list = BufferPoolMachine.TestCase
