"""Heap files: unordered base-table storage with stable row ids.

A heap page stores fixed-width integer rows in slots; a slot is either live
or dead (deleted).  Row ids encode ``(page, slot)`` as a single integer so
they can be appended to index entries, which is how the engine's secondary
indexes stay unambiguous even for duplicate key values.

A page has one form, in memory as on disk: one flat ``array('q')`` of
slots, each a live flag followed by the row's columns (all zeros when
dead).  Reading a page is one copy of the block; a fetch builds a tuple
only for each row it returns; an insert fills a slot and a delete zeroes
one in place, so the page never turns into tuples.  A page carries the
heap's codec and encodes itself, so the buffer pool caches it directly,
and :func:`load_page` decodes a block with one header parse and one copy.

:meth:`HeapFile.fetch_many`, the "table access by index rowid" step of
every RI-tree query, runs its page requests the way the B+-tree scan
loops do: the cache-hit path inline per the
:meth:`~repro.engine.buffer.BufferPool.scan_refs` contract and the row-id
range check inline, so a page switch that hits the cache calls no Python
function.  A caller may pass a struct that unpacks only the columns it
needs, one tuple per row.

The free-slot directory is kept in memory and is rebuilt trivially because
the simulated disk does not outlive the process; this matches how the engine
is used by the benchmarks (build, query, discard).

From its first checkpoint on (:meth:`HeapFile.mark_clean`), a heap also
remembers which pages ``insert_many``, ``delete`` and ``bulk_append``
changed since the last one, so a checkpoint logs the block image
(:meth:`HeapPage.to_bytes`) of only those pages, and recovery reads a
logged image back with :func:`load_page` and :meth:`HeapPage.live_slots`.
A heap that is never checkpointed tracks nothing.
"""

from __future__ import annotations

import struct
from array import array
from functools import partial
from typing import Iterable, Iterator, Optional, Sequence

from .buffer import BufferPool
from .errors import BlockError, SchemaError, SerializationError
from .serial import (
    PAGE_HEADER,
    PAGE_HEADER_SIZE,
    SWAP_BYTES,
    IntTupleCodec,
    pack_header,
    values_to_bytes,
)

#: Page type tag for heap pages.
PAGE_HEAP = 3


#: Live flag of a slot; a dead slot holds zeros.
LIVE = 1

_new = object.__new__


def slot_values(rows: Sequence[tuple[int, ...]], width: int) -> array:
    """Live slots of ``width`` values holding ``rows``, flat:
    ``1, row..., 1, row..., ...``."""
    flat = [LIVE] * (len(rows) * width)
    for column, values in enumerate(zip(*rows), 1):
        flat[column::width] = values
    return array("q", flat)


class HeapPage:
    """Slots of fixed-width rows, flat in one ``array('q')``.

    Slot ``s`` of a heap of arity ``a`` is ``values[s * (a + 1):(s + 1) *
    (a + 1)]``: the live flag then the columns, or zeros once deleted.
    ``codec`` is the heap's slot codec, which the page encodes itself with.
    """

    __slots__ = ("values", "codec")

    def __init__(self, codec: IntTupleCodec, values: array) -> None:
        self.values = values
        self.codec = codec

    def to_bytes(self) -> bytes:
        header = pack_header(PAGE_HEAP, len(self.values) // self.codec.arity, 0)
        return header + values_to_bytes(self.values)

    def live_slots(self) -> list[tuple[int, tuple[int, ...]]]:
        """``(slot, row)`` for the live slots, in slot order."""
        slots = self.codec.native.iter_unpack(self.values)
        return [(slot, row[1:]) for slot, row in enumerate(slots) if row[0] == LIVE]


def load_page(codec: IntTupleCodec, data: bytes) -> HeapPage:
    """Decode one heap block: its header once, its slots with one copy.

    The page is built without running its ``__init__``, so this function
    is the only Python frame a buffer miss spends on decoding.
    """
    if len(data) < PAGE_HEADER_SIZE:
        raise SerializationError("page shorter than its header")
    page_type, count, _aux = PAGE_HEADER.unpack_from(data)
    if page_type != PAGE_HEAP:
        raise SerializationError(f"expected heap page, found type {page_type}")
    end = PAGE_HEADER_SIZE + count * codec.entry_size
    if len(data) < end:
        raise SerializationError(
            f"heap page of {count} slots needs {end} bytes, has {len(data)}"
        )
    values = array("q")
    values.frombytes(memoryview(data)[PAGE_HEADER_SIZE:end])
    if SWAP_BYTES:
        values.byteswap()
    page = _new(HeapPage)
    page.values = values
    page.codec = codec
    return page


class HeapFile:
    """An append-friendly collection of rows with delete-in-place.

    Rows go in through :meth:`insert_many` (:meth:`insert` is one row of
    it) or, into new pages only, :meth:`bulk_append`, and leave through
    :meth:`delete_many` (:meth:`delete` is one row of it).  Change
    tracking for checkpoints starts with the first :meth:`mark_clean`;
    until then :meth:`changed_pages` reports every page.

    Parameters
    ----------
    pool:
        Buffer pool the file lives on.
    arity:
        Number of integer columns per row.
    name:
        Diagnostic name.
    """

    def __init__(self, pool: BufferPool, arity: int, name: str = "heap") -> None:
        if arity < 1:
            raise SchemaError("heap rows need at least one column")
        self.pool = pool
        self.name = name
        self.arity = arity
        # One extra column per slot holds the live flag.
        self.codec = IntTupleCodec(arity + 1)
        self.width = arity + 1
        block_size = pool.disk.block_size
        self.slots_per_page = (block_size - PAGE_HEADER_SIZE) // self.codec.entry_size
        if self.slots_per_page < 1:
            raise SchemaError(
                f"block size {block_size} too small for heap arity {arity}"
            )
        # A row is the ``arity`` values after its slot's live flag.
        self._row = struct.Struct(f"={arity}q")
        self._dead = array("q", [0] * self.width)
        # The loader is bound once per heap file: a reader for the page
        # requests of writes and scans, and the scan_refs fast path that
        # fetch_many inlines.
        load = partial(load_page, self.codec)
        self._read = pool.make_reader(load)
        self._hot = pool.scan_refs(load)
        self._page_ids: list[int] = []
        self._pages_with_space: set[int] = set()
        #: Pages changed since the last :meth:`mark_clean` (``None``:
        #: not tracking yet).
        self._changed: Optional[set[int]] = None
        self.row_count = 0

    # ------------------------------------------------------------------
    # row id arithmetic
    # ------------------------------------------------------------------
    def _make_rowid(self, page_index: int, slot: int) -> int:
        return page_index * self.slots_per_page + slot

    def _check_page(self, page_index: int, rowid: int) -> None:
        if not 0 <= page_index < len(self._page_ids):
            raise BlockError(f"{self.name}: invalid rowid {rowid}")

    # ------------------------------------------------------------------
    # page access
    # ------------------------------------------------------------------
    def page(self, page_index: int) -> HeapPage:
        """One page of the heap (one page request)."""
        return self._read(self._page_ids[page_index])

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def insert(self, row: tuple[int, ...]) -> int:
        """Store a row; return its row id (:meth:`insert_many` of one)."""
        return self.insert_many([row])[0]

    def insert_many(self, rows: Sequence[tuple[int, ...]]) -> list[int]:
        """Store rows in order; return their row ids.

        The heap's only insertion path.  Rows fill dead and unused slots
        of the pages with space, lowest page first and lowest slot first,
        then go to whole new pages appended at the end -- the row ids and
        page contents of storing the rows one at a time, with one page
        request per page touched.  Every row's arity is checked before
        any is stored.
        """
        for row in rows:
            self._check_arity(row)
        rowids: list[int] = []
        total = len(rows)
        position = 0
        slots_per_page = self.slots_per_page
        width = self.width
        while position < total and self._pages_with_space:
            page_index = min(self._pages_with_space)
            values = self.page(page_index).values
            base = page_index * slots_per_page
            start = position
            for slot, flag in enumerate(values[::width]):
                if flag != LIVE:
                    offset = slot * width
                    row = (LIVE, *rows[position])
                    values[offset : offset + width] = array("q", row)
                    rowids.append(base + slot)
                    position += 1
                    if position == total:
                        break
            used = len(values) // width
            take = min(total - position, slots_per_page - used)
            if take > 0:
                values.extend(slot_values(rows[position : position + take], width))
                rowids.extend(range(base + used, base + used + take))
                position += take
            if position > start:
                self.pool.mark_dirty(self._page_ids[page_index])
                self._note_change(page_index, values)
            else:  # stale directory entry: the page was already full
                self._pages_with_space.discard(page_index)
        while position < total:
            chunk = rows[position : position + slots_per_page]
            page = HeapPage(self.codec, slot_values(chunk, width))
            block_id = self.pool.disk.allocate()
            self.pool.put_new(block_id, page)
            self._page_ids.append(block_id)
            page_index = len(self._page_ids) - 1
            base = page_index * slots_per_page
            rowids.extend(range(base, base + len(chunk)))
            self._note_change(page_index, page.values)
            position += len(chunk)
        self.row_count += total
        return rowids

    def fetch(self, rowid: int) -> tuple[int, ...]:
        """Return the live row stored under ``rowid``."""
        return self.fetch_many([rowid])[0]

    def fetch_many(
        self, rowids: Sequence[int], layout: Optional[struct.Struct] = None
    ) -> list[tuple[int, ...]]:
        """Fetch several rows, grouping same-page runs into one page access.

        Rows come back in ``rowids`` order.  Consecutive row ids that live
        on the same heap page share a single page request, so a rowid list
        in index order (the common "table access by index rowid" pattern)
        costs one logical read per distinct page run instead of one per
        row.  The request *order* of pages matches the per-row fetch loop,
        so buffer replacement behaves identically.  Each returned row is
        unpacked from its slot on its own; the rest of the page stays
        untouched.

        ``layout`` unpacks each row in place of the full row: a
        native-order :class:`struct.Struct` no longer than a row, applied
        at the row's first column.  Pad bytes skip leading columns, so
        ``struct.Struct("=8x2q")`` on a row ``(a, b, c)`` returns
        ``(b, c)`` without building the full row first.

        The page requests inline the cache-hit path per the
        :meth:`~repro.engine.buffer.BufferPool.scan_refs` contract, and
        the row-id range check runs inline too, so a page switch that
        hits the cache calls no Python function.
        """
        if layout is None:
            layout = self._row
        elif layout.size > self.arity * 8:
            raise SchemaError(
                f"{self.name}: row layout of {layout.size} bytes exceeds "
                f"a row of {self.arity * 8}"
            )
        unpack_row = layout.unpack_from
        frames, stats, miss = self._hot
        frames_get = frames.get
        move_to_end = frames.move_to_end
        page_ids = self._page_ids
        page_count = len(page_ids)
        slots_per_page = self.slots_per_page
        width = self.width
        rows: list[tuple[int, ...]] = []
        append = rows.append
        # Row ids of the current page are ``base <= rowid < limit``; the
        # empty range makes the first row id switch pages.
        base = limit = 0
        for rowid in rowids:
            if not base <= rowid < limit:
                page_index = rowid // slots_per_page
                if not 0 <= page_index < page_count:
                    raise BlockError(f"{self.name}: invalid rowid {rowid}")
                block_id = page_ids[page_index]
                stats.logical_reads += 1
                page = frames_get(block_id)
                if page is None:
                    page = miss(block_id)
                else:
                    move_to_end(block_id)
                values = page.values
                used = len(values)
                base = page_index * slots_per_page
                limit = base + slots_per_page
            start = (rowid - base) * width
            if start >= used or values[start] != LIVE:
                raise BlockError(f"{self.name}: rowid {rowid} is not live")
            append(unpack_row(values, start * 8 + 8))
        return rows

    def delete(self, rowid: int) -> tuple[int, ...]:
        """Kill the slot under ``rowid``; return the old row."""
        return self.delete_many([rowid])[0]

    def delete_many(self, rowids: Sequence[int]) -> list[tuple[int, ...]]:
        """Kill the slots under ``rowids``; return the old rows in order.

        The heap's only delete path and the mirror of :meth:`fetch_many`:
        one page request per same-page run, in the order of the per-row
        loop.  Each killed slot is zeroed in place.  A row id that is not
        live raises :class:`~repro.engine.errors.BlockError` after the
        slots before it are killed.
        """
        rows: list[tuple[int, ...]] = []
        unpack_row = self._row.unpack_from
        slots_per_page = self.slots_per_page
        width = self.width
        dead = self._dead
        current_index: Optional[int] = None
        values = dead
        for rowid in rowids:
            page_index, slot = divmod(rowid, slots_per_page)
            if page_index != current_index:
                self._check_page(page_index, rowid)
                values = self.page(page_index).values
                current_index = page_index
            start = slot * width
            if start >= len(values) or values[start] != LIVE:
                raise BlockError(f"{self.name}: rowid {rowid} is not live")
            rows.append(unpack_row(values, (start + 1) * 8))
            values[start : start + width] = dead
            self.pool.mark_dirty(self._page_ids[page_index])
            self._pages_with_space.add(page_index)
            if self._changed is not None:
                self._changed.add(page_index)
            self.row_count -= 1
        return rows

    def scan(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield ``(rowid, row)`` for every live row in storage order."""
        for batch in self.scan_batches():
            yield from batch

    def scan_batches(self) -> Iterator[list[tuple[int, tuple[int, ...]]]]:
        """Batched full scan: one ``[(rowid, row), ...]`` list per page.

        Same rows, same page requests and same order as :meth:`scan`,
        but consumers get whole page slices instead of a per-row
        generator hop -- the heap-side mirror of the B+-tree's
        ``scan_batches`` leaf slices.  Each list is decoded when its page
        is read, so consumer pauses survive eviction.
        """
        for page_index in range(len(self._page_ids)):
            base = page_index * self.slots_per_page
            slots = self.page(page_index).live_slots()
            batch = [(base + slot, row) for slot, row in slots]
            if batch:
                yield batch

    def bulk_append(self, rows: list[tuple[int, ...]]) -> list[int]:
        """Append many rows with direct page writes; return their row ids."""
        rowids: list[int] = []
        disk = self.pool.disk
        position = 0
        while position < len(rows):
            chunk = rows[position : position + self.slots_per_page]
            for row in chunk:
                self._check_arity(row)
            page = HeapPage(self.codec, slot_values(chunk, self.width))
            block_id = disk.allocate()
            disk.write(block_id, page.to_bytes())
            self._page_ids.append(block_id)
            page_index = len(self._page_ids) - 1
            rowids.extend(
                self._make_rowid(page_index, slot) for slot in range(len(chunk))
            )
            if len(chunk) < self.slots_per_page:
                self._pages_with_space.add(page_index)
            if self._changed is not None:
                self._changed.add(page_index)
            position += len(chunk)
        self.row_count += len(rows)
        return rowids

    @property
    def page_count(self) -> int:
        """Number of pages the heap occupies."""
        return len(self._page_ids)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def changed_pages(self) -> Iterable[int]:
        """Ascending indexes of the pages changed since :meth:`mark_clean`.

        Every page before the first :meth:`mark_clean`.
        """
        if self._changed is None:
            return range(len(self._page_ids))
        return sorted(self._changed)

    def mark_clean(self) -> None:
        """Forget the changed pages; track changes from here on."""
        self._changed = set()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _note_change(self, page_index: int, values: array) -> None:
        if self._changed is not None:
            self._changed.add(page_index)
        if values[:: self.width].count(LIVE) >= self.slots_per_page:
            self._pages_with_space.discard(page_index)
        else:
            self._pages_with_space.add(page_index)

    def _check_arity(self, row: tuple[int, ...]) -> None:
        if len(row) != self.arity:
            raise SchemaError(f"{self.name}: row arity {len(row)} != {self.arity}")
