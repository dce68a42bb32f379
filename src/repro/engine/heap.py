"""Heap files: unordered base-table storage with stable row ids.

A heap page stores fixed-width integer rows in slots; a slot is either live
or dead (deleted).  Row ids encode ``(page, slot)`` as a single integer so
they can be appended to index entries, which is how the engine's secondary
indexes stay unambiguous even for duplicate key values.

The free-slot directory is kept in memory and is rebuilt trivially because
the simulated disk does not outlive the process; this matches how the engine
is used by the benchmarks (build, query, discard).

From its first checkpoint on (:meth:`HeapFile.mark_clean`), a heap also
remembers which pages ``insert_many``, ``delete`` and ``bulk_append``
changed since the last one, so a checkpoint re-encodes only those pages.
A heap that is never checkpointed tracks nothing.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .buffer import BufferPool
from .errors import BlockError, SchemaError, SerializationError
from .serial import PAGE_HEADER_SIZE, IntTupleCodec, pack_header, unpack_header

#: Page type tag for heap pages.
PAGE_HEAP = 3


class HeapPage:
    """Slots of fixed-width rows; ``None`` marks a dead slot."""

    __slots__ = ("slots",)

    def __init__(
        self, slots: Optional[list[Optional[tuple[int, ...]]]] = None
    ) -> None:
        self.slots: list[Optional[tuple[int, ...]]] = slots if slots is not None else []

    def to_bytes_with(self, codec: IntTupleCodec) -> bytes:
        # Each slot is serialised as (live_flag, columns...).
        flat: list[tuple[int, ...]] = []
        dead = (0,) * codec.arity
        for slot in self.slots:
            if slot is None:
                flat.append(dead)
            else:
                flat.append((1,) + slot)
        header = pack_header(PAGE_HEAP, len(self.slots), 0)
        return header + codec.pack_many(flat)

    @classmethod
    def from_bytes_with(cls, codec: IntTupleCodec, data: bytes) -> "HeapPage":
        page_type, count, _aux = unpack_header(data)
        if page_type != PAGE_HEAP:
            raise SerializationError(f"expected heap page, found type {page_type}")
        raw = codec.unpack_many(data[PAGE_HEADER_SIZE:], count)
        slots: list[Optional[tuple[int, ...]]] = []
        for record in raw:
            if record[0] == 1:
                slots.append(record[1:])
            else:
                slots.append(None)
        return cls(slots)


class _BoundHeap:
    """Pairs a heap page with its codec for buffer-pool serialisation."""

    __slots__ = ("page", "codec")

    def __init__(self, page: HeapPage, codec: IntTupleCodec) -> None:
        self.page = page
        self.codec = codec

    def to_bytes(self) -> bytes:
        return self.page.to_bytes_with(self.codec)


class HeapFile:
    """An append-friendly collection of rows with delete-in-place.

    Rows go in through :meth:`insert_many` (:meth:`insert` is one row of
    it) or, into new pages only, :meth:`bulk_append`.  Change tracking
    for checkpoints starts with the first :meth:`mark_clean`; until then
    :meth:`changed_pages` reports every page.

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
        block_size = pool.disk.block_size
        self.slots_per_page = (block_size - PAGE_HEADER_SIZE) // self.codec.entry_size
        if self.slots_per_page < 1:
            raise SchemaError(
                f"block size {block_size} too small for heap arity {arity}"
            )
        # Pre-bound fast-path reader: one loader closure per heap file.
        self._read = pool.make_reader(self._load)
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

    def _split_rowid(self, rowid: int) -> tuple[int, int]:
        page_index, slot = divmod(rowid, self.slots_per_page)
        if not 0 <= page_index < len(self._page_ids):
            raise BlockError(f"{self.name}: invalid rowid {rowid}")
        return page_index, slot

    # ------------------------------------------------------------------
    # page access
    # ------------------------------------------------------------------
    def _load(self, data: bytes) -> _BoundHeap:
        return _BoundHeap(HeapPage.from_bytes_with(self.codec, data), self.codec)

    def _get_page(self, page_index: int) -> HeapPage:
        return self._read(self._page_ids[page_index]).page

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
        while position < total and self._pages_with_space:
            page_index = min(self._pages_with_space)
            page = self._get_page(page_index)
            slots = page.slots
            base = page_index * slots_per_page
            start = position
            if None in slots:
                for slot, existing in enumerate(slots):
                    if existing is None:
                        slots[slot] = tuple(rows[position])
                        rowids.append(base + slot)
                        position += 1
                        if position == total:
                            break
            while position < total and len(slots) < slots_per_page:
                slots.append(tuple(rows[position]))
                rowids.append(base + len(slots) - 1)
                position += 1
            if position > start:
                self.pool.mark_dirty(self._page_ids[page_index])
                self._note_change(page_index, page)
            else:  # stale directory entry: the page was already full
                self._pages_with_space.discard(page_index)
        while position < total:
            chunk = [tuple(row) for row in rows[position : position + slots_per_page]]
            block_id = self.pool.disk.allocate()
            page = HeapPage(chunk)
            self.pool.put_new(block_id, _BoundHeap(page, self.codec))
            self._page_ids.append(block_id)
            page_index = len(self._page_ids) - 1
            base = page_index * slots_per_page
            rowids.extend(range(base, base + len(chunk)))
            self._note_change(page_index, page)
            position += len(chunk)
        self.row_count += total
        return rowids

    def fetch(self, rowid: int) -> tuple[int, ...]:
        """Return the live row stored under ``rowid``."""
        page_index, slot = self._split_rowid(rowid)
        page = self._get_page(page_index)
        if slot >= len(page.slots) or page.slots[slot] is None:
            raise BlockError(f"{self.name}: rowid {rowid} is not live")
        return page.slots[slot]

    def fetch_many(self, rowids: Sequence[int]) -> list[tuple[int, ...]]:
        """Fetch several rows, grouping same-page runs into one page access.

        Rows come back in ``rowids`` order.  Consecutive row ids that live
        on the same heap page share a single page request, so a rowid list
        in index order (the common "table access by index rowid" pattern)
        costs one logical read per distinct page run instead of one per
        row.  The request *order* of pages matches the per-row fetch loop,
        so buffer replacement behaves identically.
        """
        rows: list[tuple[int, ...]] = []
        slots_per_page = self.slots_per_page
        current_index: Optional[int] = None
        slots: list = []
        for rowid in rowids:
            page_index, slot = divmod(rowid, slots_per_page)
            if page_index != current_index:
                if not 0 <= page_index < len(self._page_ids):
                    raise BlockError(f"{self.name}: invalid rowid {rowid}")
                slots = self._get_page(page_index).slots
                current_index = page_index
            row = slots[slot] if slot < len(slots) else None
            if row is None:
                raise BlockError(f"{self.name}: rowid {rowid} is not live")
            rows.append(row)
        return rows

    def delete(self, rowid: int) -> tuple[int, ...]:
        """Kill the slot under ``rowid``; return the old row."""
        page_index, slot = self._split_rowid(rowid)
        page = self._get_page(page_index)
        if slot >= len(page.slots) or page.slots[slot] is None:
            raise BlockError(f"{self.name}: rowid {rowid} is not live")
        row = page.slots[slot]
        page.slots[slot] = None
        self.pool.mark_dirty(self._page_ids[page_index])
        self._pages_with_space.add(page_index)
        if self._changed is not None:
            self._changed.add(page_index)
        self.row_count -= 1
        return row

    def scan(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield ``(rowid, row)`` for every live row in storage order."""
        for page_index in range(len(self._page_ids)):
            page = self._get_page(page_index)
            # Snapshot so consumer pauses survive eviction.
            slots = list(page.slots)
            for slot, row in enumerate(slots):
                if row is not None:
                    yield self._make_rowid(page_index, slot), row

    def scan_batches(self) -> Iterator[list[tuple[int, tuple[int, ...]]]]:
        """Batched full scan: one ``[(rowid, row), ...]`` list per page.

        Same rows, same page requests and same order as :meth:`scan`,
        but consumers get whole page slices instead of a per-row
        generator hop -- the heap-side mirror of the B+-tree's
        ``scan_batches`` leaf slices.
        """
        for page_index in range(len(self._page_ids)):
            page = self._get_page(page_index)
            base = page_index * self.slots_per_page
            batch = [
                (base + slot, row)
                for slot, row in enumerate(page.slots)
                if row is not None
            ]
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
            block_id = disk.allocate()
            page = HeapPage([tuple(row) for row in chunk])
            disk.write(block_id, page.to_bytes_with(self.codec))
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

    def live_rows(self, page_index: int) -> list[tuple[int, ...]]:
        """The live rows of one page in slot order (one page request)."""
        return [row for row in self._get_page(page_index).slots if row is not None]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _note_change(self, page_index: int, page: HeapPage) -> None:
        if self._changed is not None:
            self._changed.add(page_index)
        full = len(page.slots) >= self.slots_per_page and None not in page.slots
        if full:
            self._pages_with_space.discard(page_index)
        else:
            self._pages_with_space.add(page_index)

    def _check_arity(self, row: tuple[int, ...]) -> None:
        if len(row) != self.arity:
            raise SchemaError(f"{self.name}: row arity {len(row)} != {self.arity}")
