"""Disk-based B+-tree with composite integer keys.

This is the engine's stand-in for the "robust and highly tuned" built-in
B+-tree indexes that the RI-tree relies on (paper, Section 3.2).  It provides
exactly the operations the paper's access methods need:

* insertion of a sorted batch with one root-to-leaf descent per leaf run
  (a lone insert is a batch of one: O(log_b n) block accesses), and point
  deletion in O(log_b n),
* inclusive range scans over linked leaves (the ``INDEX RANGE SCAN`` of the
  paper's Figure 10 execution plan) costing O(log_b n + r/b),
* bottom-up bulk loading, used where the paper bulk-loads competitor indexes
  (Section 6.3 notes T-index and IST were bulk loaded).

Entries are fixed-arity tuples of signed 64-bit integers ordered
lexicographically; the tree is *index-organised* -- the whole entry is the
key, mirroring the paper's composite indexes ``(node, lower, id)`` /
``(node, upper, id)``.  Entries must be unique; upper layers guarantee this
by appending an id or row id column.

Design choices
--------------
* Minimum fill is one third of capacity (not one half).  This keeps the
  O(n/b) space bound while letting bulk loads at fill factor 0.9 distribute
  entries evenly without ever producing an under-minimum rightmost node, and
  matches the relaxed deletion thresholds used by production engines.
* Pages that an operation holds Python references to across other page
  accesses are pinned in the buffer pool; everything else relies on the
  mutate-then-``mark_dirty``-before-the-next-pool-call discipline.
* Leaves have two in-memory forms (:class:`LeafPage`).  A leaf read from
  disk is one flat ``array('q')``: a buffer miss costs one copy of the
  block, not one tuple per entry, and the scan that missed bisects the
  array and slices what it returns out of it.  A leaf used again while
  cached -- scanned by a later scan, or written -- turns into a sorted
  list of tuples once, which later scans bisect faster and writes edit in
  place.  So a leaf read once per residency (a working set larger than
  the cache) is never decoded, and a hot leaf is decoded once.  Eviction
  writes either form as the same bytes, and the next read brings the
  leaf back as an array.
* Internal pages keep tuple keys in every form, because every descent
  bisects a cached internal page, and a bisect over a tuple list ran
  about 3.5 times faster than one over the rows of an array (0.8 against
  2.8 µs).  An internal miss decodes in one pass: the child pointers are
  one array copy turned into a list, the keys one ``iter_unpack`` over a
  ``memoryview`` of the block.
* Every page carries its codec and encodes itself, so the buffer pool
  caches the page objects themselves.  :func:`load_node` decodes a block
  after parsing its header once and builds the page without running its
  ``__init__``: a miss costs the pool's miss step, the disk read and
  :func:`load_node`, three Python frames.

All page traffic flows through the shared
:class:`~repro.engine.buffer.BufferPool`, so physical and logical I/O is
accounted exactly as in the paper's experiments.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import partial
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .buffer import BufferPool
from .errors import KeyNotFoundError, SchemaError, SerializationError
from .serial import (
    PAGE_HEADER,
    PAGE_HEADER_SIZE,
    SWAP_BYTES,
    IntTupleCodec,
    pack_header,
    pad_high,
    pad_low,
    values_to_bytes,
)

#: Page type tags stored in the page header.
PAGE_LEAF = 1
PAGE_INTERNAL = 2

#: Sentinel for "no block" (end of the leaf chain).
NO_BLOCK = -1


class DuplicateEntryError(SchemaError):
    """Raised when inserting an entry that is already present."""


class LeafPage:
    """A leaf node: sorted unique entries plus the next-leaf link.

    The entries take one of two forms.  A leaf read from disk keeps them in
    ``values``, one flat ``array('q')`` of ``count * arity`` integers copied
    out of the block, and ``entries`` is ``None``.  Otherwise ``entries``
    holds them as a sorted list of tuples and ``values`` is ``None``: new
    leaves start so, and a cached array leaf turns into this form when a
    write or a second scan reaches it (:meth:`BPlusTree._as_tuples`).  It
    stays so until it is evicted and read again.  Both forms encode to the
    same bytes with the page's ``codec``.
    """

    __slots__ = ("entries", "values", "next_leaf", "codec")

    def __init__(
        self,
        codec: IntTupleCodec,
        entries: Optional[list[tuple[int, ...]]] = None,
        next_leaf: int = NO_BLOCK,
        values: Optional[array] = None,
    ) -> None:
        if values is not None:
            entries = None
        elif entries is None:
            entries = []
        self.entries: Optional[list[tuple[int, ...]]] = entries
        self.values = values
        self.next_leaf = next_leaf
        self.codec = codec

    def to_bytes(self) -> bytes:
        if self.values is not None:
            count = len(self.values) // self.codec.arity
            header = pack_header(PAGE_LEAF, count, self.next_leaf)
            return header + values_to_bytes(self.values)
        header = pack_header(PAGE_LEAF, len(self.entries), self.next_leaf)
        return header + self.codec.pack_many(self.entries)


class InternalPage:
    """An internal node: ``len(children) == len(keys) + 1``.

    Child ``i`` holds entries ``e`` with ``keys[i-1] <= e < keys[i]``
    (with virtual sentinels at both ends).  Keys stay a list of tuples in
    every form: each descent bisects them, which a tuple list does several
    times faster than the rows of an array.
    """

    __slots__ = ("keys", "children", "codec")

    def __init__(
        self,
        codec: IntTupleCodec,
        keys: Optional[list[tuple[int, ...]]] = None,
        children: Optional[list[int]] = None,
    ) -> None:
        self.keys: list[tuple[int, ...]] = keys if keys is not None else []
        self.children: list[int] = children if children is not None else []
        self.codec = codec

    def to_bytes(self) -> bytes:
        header = pack_header(PAGE_INTERNAL, len(self.keys), NO_BLOCK)
        children = values_to_bytes(array("q", self.children))
        return header + children + self.codec.pack_many(self.keys)


_new = object.__new__


def load_node(codec: IntTupleCodec, data: bytes) -> "LeafPage | InternalPage":
    """Decode one B+-tree block, parsing its header once.

    A leaf's body becomes its ``values`` array with one copy.  An internal
    page's children are one array copy turned into a list, and its keys
    one ``iter_unpack`` over a ``memoryview`` of the block, so no byte
    slice of the block is copied.  The page is built without running its
    ``__init__``: this function is the only Python frame a buffer miss
    spends on decoding.
    """
    if len(data) < PAGE_HEADER_SIZE:
        raise SerializationError("page shorter than its header")
    page_type, count, aux = PAGE_HEADER.unpack_from(data)
    view = memoryview(data)
    if page_type == PAGE_LEAF:
        end = PAGE_HEADER_SIZE + count * codec.entry_size
        if len(data) < end:
            raise SerializationError(
                f"leaf of {count} entries needs {end} bytes, has {len(data)}"
            )
        values = array("q")
        values.frombytes(view[PAGE_HEADER_SIZE:end])
        if SWAP_BYTES:
            values.byteswap()
        leaf = _new(LeafPage)
        leaf.entries = None
        leaf.values = values
        leaf.next_leaf = aux
        leaf.codec = codec
        return leaf
    if page_type == PAGE_INTERNAL:
        keys_start = PAGE_HEADER_SIZE + (count + 1) * 8
        end = keys_start + count * codec.entry_size
        if len(data) < end:
            raise SerializationError(
                f"internal page of {count} keys needs {end} bytes, has {len(data)}"
            )
        children = array("q")
        children.frombytes(view[PAGE_HEADER_SIZE:keys_start])
        if SWAP_BYTES:
            children.byteswap()
        node = _new(InternalPage)
        node.keys = list(codec.stored.iter_unpack(view[keys_start:end]))
        node.children = children.tolist()
        node.codec = codec
        return node
    raise SerializationError(f"unknown page type {page_type}")


def _even_groups(total: int, per_group: int) -> list[int]:
    """Split ``total`` items into groups of at most ``per_group``.

    Sizes differ by at most one, so every group holds at least
    ``per_group // 2`` items whenever more than one group is needed --
    comfortably above the tree's one-third minimum fill.
    """
    if total <= 0:
        return []
    group_count = -(-total // per_group)
    base, rem = divmod(total, group_count)
    return [base + 1] * rem + [base] * (group_count - rem)


class BPlusTree:
    """A B+-tree over a buffer pool.

    Parameters
    ----------
    pool:
        Buffer pool (and, through it, the disk) the tree lives on.
    arity:
        Number of integer columns per entry.
    name:
        Diagnostic name used in error messages and statistics.
    """

    def __init__(self, pool: BufferPool, arity: int, name: str = "index") -> None:
        self.pool = pool
        self.name = name
        self.codec = IntTupleCodec(arity)
        self.arity = arity
        block_size = pool.disk.block_size
        self.leaf_capacity = (block_size - PAGE_HEADER_SIZE) // self.codec.entry_size
        # An internal page with k keys stores k + 1 child pointers of 8 bytes.
        self.internal_capacity = (block_size - PAGE_HEADER_SIZE - 8) // (
            self.codec.entry_size + 8
        )
        if self.leaf_capacity < 4 or self.internal_capacity < 4:
            raise SchemaError(f"block size {block_size} too small for arity {arity}")
        self._min_leaf = max(1, self.leaf_capacity // 3)
        self._min_internal_keys = max(1, self.internal_capacity // 3)
        # One pre-bound fast-path reader per tree: the loader is bound
        # here once instead of on every page request.  The scan loops
        # additionally inline the cache-hit path via scan_refs.
        self._load = partial(load_node, self.codec)
        self._get = pool.make_reader(self._load)
        self._hot = pool.scan_refs(self._load)
        # Row ``i`` of an array leaf is ``values[self._row_slices[i]]``;
        # scans bisect these with ``key=values.__getitem__``, comparing
        # whole rows as arrays in C (see scan_batches_padded).
        self._row_slices = [
            slice(row * arity, (row + 1) * arity)
            for row in range(self.leaf_capacity)
        ]
        # Column getters for scans that return one column of each entry.
        self._pickers = [itemgetter(column) for column in range(arity)]
        self.root_id = pool.disk.allocate()
        pool.put_new(self.root_id, LeafPage(self.codec))
        self.height = 1
        self.entry_count = 0

    # ------------------------------------------------------------------
    # page helpers
    # ------------------------------------------------------------------
    def _entries(self, leaf: LeafPage) -> list[tuple[int, ...]]:
        """``leaf``'s entries as tuples, leaving its form as it is."""
        if leaf.values is None:
            return leaf.entries
        return self.codec.rows(leaf.values)

    def _as_tuples(self, leaf: LeafPage) -> list[tuple[int, ...]]:
        """``leaf``'s entry list, turning an array leaf into the tuple form
        in place: before a write, or when a scan finds it cached again."""
        if leaf.values is not None:
            leaf.entries = self.codec.rows(leaf.values)
            leaf.values = None
        return leaf.entries

    def _new_block(self, page) -> int:
        block_id = self.pool.disk.allocate()
        self.pool.put_new(block_id, page)
        return block_id

    # ------------------------------------------------------------------
    # lookup and scans
    # ------------------------------------------------------------------
    def _descend(self, key: tuple[int, ...]) -> list[tuple[int, int]]:
        """Return the root-to-leaf path for ``key``.

        Each element is ``(block_id, child_index_in_parent)``; the root's
        child index is ``-1``.
        """
        return self._descend_fenced(key)[0]

    def _descend_fenced(
        self, key: tuple[int, ...]
    ) -> tuple[list[tuple[int, int]], Optional[tuple[int, ...]], LeafPage]:
        """:meth:`_descend` plus the leaf's upper fence and the leaf.

        The fence is the separator right of the path at the deepest level
        that has one: the leaf holds exactly the entries ``e`` with
        ``key``'s lower fence ``<= e < fence`` (``None``: no upper bound,
        the rightmost leaf).  Same page requests as :meth:`_descend`; the
        leaf page comes back with the path, so callers that work on it
        request it once.
        """
        path = [(self.root_id, -1)]
        fence = None
        node = self._get(self.root_id)
        while isinstance(node, InternalPage):
            keys = node.keys
            idx = bisect_right(keys, key)
            if idx < len(keys):
                fence = keys[idx]
            child_id = node.children[idx]
            path.append((child_id, idx))
            node = self._get(child_id)
        return path, fence, node

    def contains(self, entry: tuple[int, ...]) -> bool:
        """Exact-match membership test."""
        self._check_arity(entry)
        entries = self._entries(self._descend_fenced(entry)[2])
        idx = bisect_left(entries, entry)
        return idx < len(entries) and entries[idx] == entry

    def _seek_leaf(self, lo: tuple[int, ...]) -> int:
        """Root-to-leaf descent for a padded key; returns the leaf's block.

        Shared by the batched scan and count loops so the descent logic
        cannot desynchronise between them.  Reads every node on the path,
        leaf included -- the same I/O trace as :meth:`_descend` -- with
        the cache-hit path inlined per the ``scan_refs`` contract (one
        frame activation per *scan*, none per page).  A leaf this read
        finds cached is in use again, so an array leaf turns into tuples
        here; the scan's own second request for it does not count.
        """
        frames, stats, miss = self._hot
        frames_get = frames.get
        move_to_end = frames.move_to_end
        node_id = self.root_id
        while True:
            stats.logical_reads += 1
            node = frames_get(node_id)
            if node is None:
                node = miss(node_id)
                if isinstance(node, LeafPage):
                    return node_id
            else:
                move_to_end(node_id)
                if isinstance(node, LeafPage):
                    if node.values is not None:
                        self._as_tuples(node)
                    return node_id
            node_id = node.children[bisect_right(node.keys, lo)]

    def scan_batches(
        self, lo_prefix: Sequence[int] = (), hi_prefix: Sequence[int] = ()
    ) -> Iterator[list[tuple[int, ...]]]:
        """Yield the range ``lo_prefix <= e <= hi_prefix`` as leaf slices.

        The batched form of :meth:`scan_range`: each yielded list is the
        qualifying slice of one leaf, produced without per-entry key
        comparisons -- only the two *boundary* leaves are bisected; interior
        leaves are emitted whole.  Consumers that aggregate (count, extend)
        therefore do O(r/b) Python-level work instead of O(r).

        The I/O trace is identical to the per-entry scan: one root-to-leaf
        descent for the lower bound, then exactly the leaves the per-entry
        scan would visit, each requested once.  Every yielded list is a
        fresh copy, so consumer pauses survive eviction and concurrent
        tree mutation exactly as with the per-entry scan's snapshots.
        """
        return self.scan_batches_padded(
            pad_low(lo_prefix, self.arity), pad_high(hi_prefix, self.arity)
        )

    def scan_batches_padded(
        self, lo: tuple[int, ...], hi: tuple[int, ...], column: Optional[int] = None
    ) -> Iterator[Sequence]:
        """:meth:`scan_batches` over pre-padded full-arity bounds.

        Query executors that compile a scan plan pad each range once at
        plan time and call this directly.  The cache-hit path is inlined
        per the :meth:`~repro.engine.buffer.BufferPool.scan_refs`
        contract, so a buffered page costs no Python-level call at all --
        the logical-read accounting is unchanged.

        ``column`` picks what a slice holds: every entry as a tuple
        (``None``), or only the values of that column -- an ``array('q')``
        taken from an array leaf with one strided slice, so a caller that
        wants one column (ids, row ids) gets it without a tuple per entry.
        An array leaf is bisected with ``key=values.__getitem__`` over
        :attr:`_row_slices`: each probe compares one row, as an array, with
        the bound as an array, all in C.  Only a leaf this scan read from
        disk is still an array here: a later leaf found cached turns into
        tuples first (see :meth:`_seek_leaf` for the first one).
        """
        if lo > hi:
            return
        frames, stats, miss = self._hot
        frames_get = frames.get
        move_to_end = frames.move_to_end
        pick = None if column is None else self._pickers[column]
        leaf_id = self._seek_leaf(lo)
        first = True
        while leaf_id != NO_BLOCK:
            stats.logical_reads += 1
            leaf = frames_get(leaf_id)
            if leaf is None:
                leaf = miss(leaf_id)
                entries = leaf.entries
            else:
                move_to_end(leaf_id)
                entries = leaf.entries
                if entries is None and not first:
                    entries = self._as_tuples(leaf)
            next_leaf = leaf.next_leaf
            # Later leaves hold only entries >= lo by tree order; a leaf
            # whose last entry passes hi is the terminal one.  (When the
            # lower-boundary tail is empty, every entry is < lo <= hi, so
            # that test cannot trigger spuriously.)
            if entries is not None:
                idx = bisect_left(entries, lo) if first else 0
                last = entries and entries[-1] > hi
                stop = bisect_right(entries, hi, idx) if last else len(entries)
                if stop > idx:
                    batch = entries[idx:stop]
                    yield batch if pick is None else list(map(pick, batch))
            else:
                values = leaf.values
                arity = self.arity
                count = len(values) // arity
                row_slices, row = self._row_slices, values.__getitem__
                idx = 0
                if first:
                    idx = bisect_left(row_slices, array("q", lo), 0, count, key=row)
                hi_values = array("q", hi)
                last = values[-arity:] > hi_values
                stop = count
                if last:
                    stop = bisect_right(row_slices, hi_values, idx, count, key=row)
                if stop > idx:
                    if column is None:
                        rows = values[idx * arity : stop * arity]
                        yield list(self.codec.native.iter_unpack(rows))
                    else:
                        yield values[idx * arity + column : stop * arity : arity]
            if last:
                return
            first = False
            leaf_id = next_leaf

    def count_range(
        self, lo_prefix: Sequence[int] = (), hi_prefix: Sequence[int] = ()
    ) -> int:
        """Number of entries in the inclusive range, without yielding them.

        Same scans, same I/O trace as :meth:`scan_batches`; the hot loop
        only sums slice lengths, so aggregation queries (the benchmark
        harness's ``intersection_count`` path) do constant Python work per
        leaf and none per entry.
        """
        return self.count_range_padded(
            pad_low(lo_prefix, self.arity), pad_high(hi_prefix, self.arity)
        )

    def count_range_padded(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> int:
        """:meth:`count_range` over pre-padded full-arity bounds."""
        if lo > hi:
            return 0
        frames, stats, miss = self._hot
        frames_get = frames.get
        move_to_end = frames.move_to_end
        leaf_id = self._seek_leaf(lo)
        first = True
        total = 0
        while leaf_id != NO_BLOCK:
            stats.logical_reads += 1
            leaf = frames_get(leaf_id)
            if leaf is None:
                leaf = miss(leaf_id)
                entries = leaf.entries
            else:
                move_to_end(leaf_id)
                entries = leaf.entries
                if entries is None and not first:
                    entries = self._as_tuples(leaf)
            next_leaf = leaf.next_leaf
            if entries is not None:
                idx = bisect_left(entries, lo) if first else 0
                if entries and entries[-1] > hi:
                    return total + bisect_right(entries, hi, idx) - idx
                total += len(entries) - idx
            else:
                values = leaf.values
                arity = self.arity
                count = len(values) // arity
                row_slices, row = self._row_slices, values.__getitem__
                idx = 0
                if first:
                    idx = bisect_left(row_slices, array("q", lo), 0, count, key=row)
                hi_values = array("q", hi)
                if values[-arity:] > hi_values:
                    stop = bisect_right(row_slices, hi_values, idx, count, key=row)
                    return total + stop - idx
                total += count - idx
            first = False
            leaf_id = next_leaf
        return total

    def scan_range(
        self, lo_prefix: Sequence[int], hi_prefix: Sequence[int]
    ) -> Iterator[tuple[int, ...]]:
        """Yield entries ``e`` with ``lo_prefix <= e <= hi_prefix``.

        Prefixes shorter than the arity are padded with open bounds, so
        ``scan_range((5,), (5,))`` yields every entry whose first column is 5
        -- the semantics of an index range scan on a composite index.

        Per-entry convenience wrapper over :meth:`scan_batches`; page
        requests happen at the same points (when a leaf's first entry is
        needed), so both forms have the same I/O trace.
        """
        for batch in self.scan_batches(lo_prefix, hi_prefix):
            yield from batch

    def scan_range_unbatched(
        self, lo_prefix: Sequence[int], hi_prefix: Sequence[int]
    ) -> Iterator[tuple[int, ...]]:
        """The pre-batching range scan, kept verbatim as a reference.

        One buffer-pool call per leaf (loader passed on every call) and
        one comparison per yielded entry -- the execution the batched
        pipeline replaced.  Parity tests and
        ``benchmarks/bench_scan_throughput.py`` run it against
        :meth:`scan_batches` to demonstrate identical results, an
        identical I/O trace, and the Python-level work the batching
        removes.  Not used by any query path.
        """
        lo = pad_low(lo_prefix, self.arity)
        hi = pad_high(hi_prefix, self.arity)
        if lo > hi:
            return
        leaf_id = self._descend(lo)[-1][0]
        while leaf_id != NO_BLOCK:
            leaf = self.pool.get(leaf_id, self._load)
            entries = leaf.entries
            if entries is None:
                entries = list(self.codec.native.iter_unpack(leaf.values))
            idx = bisect_left(entries, lo)
            # Snapshot the tail so eviction during consumer pauses is safe.
            tail = entries[idx:]
            next_leaf = leaf.next_leaf
            for entry in tail:
                if entry > hi:
                    return
                yield entry
            leaf_id = next_leaf

    def scan_all(self) -> Iterator[tuple[int, ...]]:
        """Yield every entry in order."""
        return self.scan_range((), ())

    def last_le(self, prefix: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Greatest entry whose value is ``<= prefix`` (padded high).

        The descending counterpart of a range scan's seek: one root-to-leaf
        descent, plus at most one extra descent into the nearest left
        sibling subtree when the target leaf holds no qualifying entry.
        """
        key = pad_high(prefix, self.arity)
        fallback: Optional[int] = None
        node_id = self.root_id
        node = self._get(node_id)
        while isinstance(node, InternalPage):
            idx = bisect_right(node.keys, key)
            if idx > 0:
                fallback = node.children[idx - 1]
            node_id = node.children[idx]
            node = self._get(node_id)
        entries = self._entries(node)
        idx = bisect_right(entries, key) - 1
        if idx >= 0:
            return entries[idx]
        if fallback is None:
            return None
        node = self._get(fallback)
        while isinstance(node, InternalPage):
            node = self._get(node.children[-1])
        entries = self._entries(node)
        return entries[-1] if entries else None

    def first(self) -> Optional[tuple[int, ...]]:
        """Smallest entry, or ``None`` when empty."""
        for entry in self.scan_all():
            return entry
        return None

    def __len__(self) -> int:
        return self.entry_count

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, entry: tuple[int, ...]) -> None:
        """Insert a unique entry (O(log_b n) block accesses).

        :meth:`insert_many` of one entry: the same page requests as a
        lone descent, leaf read and (on overflow) split.
        """
        self.insert_many([entry])

    def insert_many(self, entries: Sequence[tuple[int, ...]]) -> None:
        """Insert sorted unique entries with one descent per leaf run.

        The tree's only insertion path.  Entries go in in ascending
        order; after each descent every following entry below the
        leaf's upper fence joins the same leaf without another descent.
        A leaf that overflows splits at the same mid point as a lone
        insert, and the entry after a split descends afresh, so the
        resulting pages -- and the order blocks are allocated in -- are
        those of inserting the entries one at a time in sorted order.

        Raises :class:`~repro.engine.errors.SchemaError` on a wrong
        arity or unsorted input before touching the tree, and
        :class:`DuplicateEntryError` on an entry repeated in the batch
        (also before touching the tree) or already stored (after the
        entries before it went in, as in the one-at-a-time loop).
        """
        arity = self.arity
        previous = None
        for entry in entries:
            if len(entry) != arity:
                self._check_arity(entry)
            if previous is not None and entry <= previous:
                if entry == previous:
                    raise DuplicateEntryError(
                        f"{self.name}: duplicate entry {entry}"
                    )
                raise SchemaError(
                    f"{self.name}: insert_many input not sorted at {entry}"
                )
            previous = entry
        total = len(entries)
        capacity = self.leaf_capacity
        position = 0
        while position < total:
            entry = entries[position]
            path, fence, leaf = self._descend_fenced(entry)
            leaf_id = path[-1][0]
            leaf_entries = self._as_tuples(leaf)
            idx = 0
            run = 0
            while True:
                idx = bisect_left(leaf_entries, entry, idx)
                if idx < len(leaf_entries) and leaf_entries[idx] == entry:
                    if run:
                        self.pool.mark_dirty(leaf_id)
                    raise DuplicateEntryError(f"{self.name}: duplicate entry {entry}")
                leaf_entries.insert(idx, entry)
                self.entry_count += 1
                position += 1
                run += 1
                if len(leaf_entries) > capacity:
                    self._split_leaf(path, leaf_id, leaf)
                    break
                if position == total:
                    self.pool.mark_dirty(leaf_id)
                    break
                entry = entries[position]
                if fence is not None and entry >= fence:
                    self.pool.mark_dirty(leaf_id)
                    break
                idx += 1

    def _split_leaf(
        self, path: list[tuple[int, int]], leaf_id: int, leaf: LeafPage
    ) -> None:
        """Split an overfull leaf and propagate the separator upward."""
        mid = len(leaf.entries) // 2
        right = LeafPage(self.codec, leaf.entries[mid:], leaf.next_leaf)
        leaf.entries = leaf.entries[:mid]
        separator = right.entries[0]
        self.pool.pin(leaf_id)
        try:
            right_id = self._new_block(right)
            leaf.next_leaf = right_id
            self.pool.mark_dirty(leaf_id)
        finally:
            self.pool.unpin(leaf_id)
        self._insert_into_parent(path[:-1], separator, right_id)

    def _insert_into_parent(
        self, path: list[tuple[int, int]], separator: tuple[int, ...], right_id: int
    ) -> None:
        while True:
            if not path:
                old_root = self.root_id
                new_root = InternalPage(self.codec, [separator], [old_root, right_id])
                self.root_id = self._new_block(new_root)
                self.height += 1
                return
            node_id, _ = path.pop()
            node = self._get(node_id)
            idx = bisect_right(node.keys, separator)
            node.keys.insert(idx, separator)
            node.children.insert(idx + 1, right_id)
            if len(node.keys) <= self.internal_capacity:
                self.pool.mark_dirty(node_id)
                return
            mid = len(node.keys) // 2
            promoted = node.keys[mid]
            right = InternalPage(
                self.codec, node.keys[mid + 1 :], node.children[mid + 1 :]
            )
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]
            self.pool.mark_dirty(node_id)
            right_id = self._new_block(right)
            separator = promoted

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, entry: tuple[int, ...]) -> None:
        """Remove an entry, rebalancing underfull pages (O(log_b n))."""
        self._check_arity(entry)
        path, _fence, leaf = self._descend_fenced(entry)
        leaf_id = path[-1][0]
        entries = self._as_tuples(leaf)
        idx = bisect_left(entries, entry)
        if idx >= len(entries) or entries[idx] != entry:
            raise KeyNotFoundError(f"{self.name}: entry {entry} not found")
        del entries[idx]
        self.entry_count -= 1
        self.pool.mark_dirty(leaf_id)
        self._rebalance_after_delete(path)

    def _rebalance_after_delete(self, path: list[tuple[int, int]]) -> None:
        level = len(path) - 1
        while level > 0:
            node_id, child_idx = path[level]
            node = self._get(node_id)
            if isinstance(node, LeafPage):
                too_small = len(self._entries(node)) < self._min_leaf
            else:
                too_small = len(node.keys) < self._min_internal_keys
            if not too_small:
                return
            parent_id = path[level - 1][0]
            self._fix_underflow(parent_id, child_idx)
            level -= 1
        # Root: collapse an internal root left with a single child.
        root = self._get(self.root_id)
        while isinstance(root, InternalPage) and not root.keys:
            old_root = self.root_id
            self.root_id = root.children[0]
            self.pool.drop(old_root)
            self.pool.disk.free(old_root)
            self.height -= 1
            root = self._get(self.root_id)

    def _fix_underflow(self, parent_id: int, child_idx: int) -> None:
        """Borrow from or merge with a sibling of child ``child_idx``."""
        parent = self._get(parent_id)
        self.pool.pin(parent_id)
        try:
            if child_idx > 0:
                left_id = parent.children[child_idx - 1]
                right_id = parent.children[child_idx]
                sep_idx = child_idx - 1
                donor_is_left = True
            else:
                left_id = parent.children[0]
                right_id = parent.children[1]
                sep_idx = 0
                donor_is_left = False
            freed = self._borrow_or_merge(
                parent_id, parent, left_id, right_id, sep_idx, donor_is_left
            )
        finally:
            self.pool.unpin(parent_id)
        if freed is not None:
            self.pool.drop(freed)
            self.pool.disk.free(freed)

    def _borrow_or_merge(
        self,
        parent_id: int,
        parent: InternalPage,
        left_id: int,
        right_id: int,
        sep_idx: int,
        donor_is_left: bool,
    ) -> Optional[int]:
        """Rebalance adjacent siblings; return a block id to free, if any."""
        left = self._get(left_id)
        self.pool.pin(left_id)
        try:
            right = self._get(right_id)
            self.pool.pin(right_id)
            try:
                if isinstance(left, LeafPage):
                    return self._rebalance_leaves(
                        parent,
                        left,
                        right,
                        sep_idx,
                        donor_is_left,
                        left_id,
                        right_id,
                        parent_id,
                    )
                return self._rebalance_internal(
                    parent,
                    left,
                    right,
                    sep_idx,
                    donor_is_left,
                    left_id,
                    right_id,
                    parent_id,
                )
            finally:
                self.pool.unpin(right_id)
        finally:
            self.pool.unpin(left_id)

    def _rebalance_leaves(
        self,
        parent: InternalPage,
        left: LeafPage,
        right: LeafPage,
        sep_idx: int,
        donor_is_left: bool,
        left_id: int,
        right_id: int,
        parent_id: int,
    ) -> Optional[int]:
        left_entries = self._as_tuples(left)
        right_entries = self._as_tuples(right)
        donor = left_entries if donor_is_left else right_entries
        if len(donor) > self._min_leaf:
            if donor_is_left:
                right_entries.insert(0, left_entries.pop())
            else:
                left_entries.append(right_entries.pop(0))
            parent.keys[sep_idx] = right_entries[0]
            self.pool.mark_dirty(left_id)
            self.pool.mark_dirty(right_id)
            self.pool.mark_dirty(parent_id)
            return None
        # Merge right into left.
        left_entries.extend(right_entries)
        left.next_leaf = right.next_leaf
        del parent.keys[sep_idx]
        del parent.children[sep_idx + 1]
        self.pool.mark_dirty(left_id)
        self.pool.mark_dirty(parent_id)
        return right_id

    def _rebalance_internal(
        self,
        parent: InternalPage,
        left: InternalPage,
        right: InternalPage,
        sep_idx: int,
        donor_is_left: bool,
        left_id: int,
        right_id: int,
        parent_id: int,
    ) -> Optional[int]:
        donor = left if donor_is_left else right
        if len(donor.keys) > self._min_internal_keys:
            if donor_is_left:
                right.keys.insert(0, parent.keys[sep_idx])
                parent.keys[sep_idx] = left.keys.pop()
                right.children.insert(0, left.children.pop())
            else:
                left.keys.append(parent.keys[sep_idx])
                parent.keys[sep_idx] = right.keys.pop(0)
                left.children.append(right.children.pop(0))
            self.pool.mark_dirty(left_id)
            self.pool.mark_dirty(right_id)
            self.pool.mark_dirty(parent_id)
            return None
        # Merge right into left, pulling the separator down.
        left.keys.append(parent.keys[sep_idx])
        left.keys.extend(right.keys)
        left.children.extend(right.children)
        del parent.keys[sep_idx]
        del parent.children[sep_idx + 1]
        self.pool.mark_dirty(left_id)
        self.pool.mark_dirty(parent_id)
        return right_id

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, entries: Sequence[tuple[int, ...]], fill: float = 0.9) -> None:
        """Build the tree bottom-up from sorted unique ``entries``.

        This mirrors how the paper's competitor indexes were bulk loaded
        (Section 6.3: "the good clustering properties of the bulk loaded
        indexes").  The tree must be empty.
        """
        if self.entry_count:
            raise SchemaError(f"{self.name}: bulk_load on non-empty tree")
        # Even distribution guarantees groups of at least fill * capacity / 2
        # entries; the floor of 0.7 keeps that above the one-third minimum.
        if not 0.7 <= fill <= 1.0:
            raise SchemaError(f"fill factor {fill} out of range [0.7, 1.0]")
        arity = self.arity
        previous: Optional[tuple[int, ...]] = None
        for entry in entries:
            if len(entry) != arity:
                raise SchemaError(f"{self.name}: entry arity {len(entry)} != {arity}")
            if previous is not None and previous >= entry:
                raise SchemaError(
                    f"{self.name}: bulk_load input not sorted/unique at {entry}"
                )
            previous = entry
        if not entries:
            return
        disk = self.pool.disk
        # Reclaim the empty bootstrap root.
        self.pool.drop(self.root_id)
        disk.free(self.root_id)

        per_leaf = max(2, int(self.leaf_capacity * fill))
        sizes = _even_groups(len(entries), per_leaf)
        leaf_ids = [disk.allocate() for _ in sizes]
        level_seps: list[tuple[int, ...]] = []
        position = 0
        for i, size in enumerate(sizes):
            chunk = list(entries[position : position + size])
            next_leaf = leaf_ids[i + 1] if i + 1 < len(leaf_ids) else NO_BLOCK
            page = LeafPage(self.codec, chunk, next_leaf)
            disk.write(leaf_ids[i], page.to_bytes())
            if i > 0:
                level_seps.append(chunk[0])
            position += size

        level_ids = leaf_ids
        self.height = 1
        per_internal = max(2, int(self.internal_capacity * fill))
        while len(level_ids) > 1:
            group_sizes = _even_groups(len(level_ids), per_internal + 1)
            new_ids: list[int] = []
            new_seps: list[tuple[int, ...]] = []
            position = 0
            for j, size in enumerate(group_sizes):
                children = level_ids[position : position + size]
                keys = level_seps[position : position + size - 1]
                page = InternalPage(self.codec, keys, children)
                block_id = disk.allocate()
                disk.write(block_id, page.to_bytes())
                new_ids.append(block_id)
                if j > 0:
                    new_seps.append(level_seps[position - 1])
                position += size
            level_ids = new_ids
            level_seps = new_seps
            self.height += 1
        self.root_id = level_ids[0]
        self.entry_count = len(entries)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any structural violation."""
        problems = self.violations()
        assert not problems, "; ".join(problems)

    def violations(self) -> list[str]:
        """Collect every structural violation instead of raising.

        The interval stores' ``verify()`` contract reports all problems
        at once, so this walker records each broken invariant -- key
        order, fill factors, subtree bounds, uniform depth, the leaf
        chain, the entry count -- as a human-readable description and
        keeps walking.  An intact tree returns an empty list.
        """
        problems: list[str] = []
        leaves: list[int] = []
        count = self._collect_node(self.root_id, None, None, 1, leaves, problems)
        if count != self.entry_count:
            problems.append(
                f"{self.name}: entry_count={self.entry_count} but found {count}"
            )
        # The leaf chain must visit exactly the in-order leaves.
        if leaves:
            chain: list[int] = []
            seen: set[int] = set()
            leaf_id = leaves[0]
            while leaf_id != NO_BLOCK and leaf_id not in seen:
                seen.add(leaf_id)
                chain.append(leaf_id)
                leaf_id = self._get(leaf_id).next_leaf
            if leaf_id != NO_BLOCK:
                problems.append(f"{self.name}: leaf chain contains a cycle")
            elif chain != leaves:
                problems.append(
                    f"{self.name}: leaf chain disagrees with tree order"
                )
        return problems

    def _collect_node(
        self,
        node_id: int,
        lo: Optional[tuple[int, ...]],
        hi: Optional[tuple[int, ...]],
        depth: int,
        leaves: list[int],
        problems: list[str],
    ) -> int:
        node = self._get(node_id)
        if isinstance(node, LeafPage):
            if depth != self.height:
                problems.append(
                    f"{self.name}: leaf {node_id} at depth {depth}, "
                    f"height {self.height}"
                )
            entries = self._entries(node)
            if not all(a < b for a, b in zip(entries, entries[1:])):
                problems.append(
                    f"{self.name}: leaf {node_id} unsorted or duplicated"
                )
            if node_id != self.root_id and len(entries) < self._min_leaf:
                problems.append(
                    f"{self.name}: leaf {node_id} underfull ({len(entries)})"
                )
            if len(entries) > self.leaf_capacity:
                problems.append(
                    f"{self.name}: leaf {node_id} overfull ({len(entries)})"
                )
            if lo is not None and any(entry < lo for entry in entries):
                problems.append(
                    f"{self.name}: leaf {node_id} entry below subtree bound"
                )
            if hi is not None and any(entry >= hi for entry in entries):
                problems.append(
                    f"{self.name}: leaf {node_id} entry above subtree bound"
                )
            leaves.append(node_id)
            return len(entries)
        keys = node.keys
        if not all(a < b for a, b in zip(keys, keys[1:])):
            problems.append(f"{self.name}: internal {node_id} keys unsorted")
        if len(node.children) != len(keys) + 1:
            problems.append(
                f"{self.name}: internal {node_id} has {len(node.children)} "
                f"children for {len(keys)} keys"
            )
        if node_id != self.root_id:
            if len(keys) < self._min_internal_keys:
                problems.append(
                    f"{self.name}: internal {node_id} underfull ({len(keys)})"
                )
        elif not keys:
            problems.append(
                f"{self.name}: internal root {node_id} has no keys"
            )
        if len(keys) > self.internal_capacity:
            problems.append(
                f"{self.name}: internal {node_id} overfull ({len(keys)})"
            )
        total = 0
        bounds: list[Optional[tuple[int, ...]]] = [lo] + list(keys) + [hi]
        for i, child_id in enumerate(list(node.children)):
            child_lo = bounds[i] if i < len(bounds) else None
            child_hi = bounds[i + 1] if i + 1 < len(bounds) else None
            total += self._collect_node(
                child_id, child_lo, child_hi, depth + 1, leaves, problems
            )
        return total

    def _check_arity(self, entry: tuple[int, ...]) -> None:
        if len(entry) != self.arity:
            raise SchemaError(
                f"{self.name}: entry arity {len(entry)} != {self.arity}"
            )

    @property
    def block_count(self) -> int:
        """Number of blocks the tree occupies (computed by a full walk)."""
        return self._count_blocks(self.root_id)

    def _count_blocks(self, node_id: int) -> int:
        node = self._get(node_id)
        if isinstance(node, LeafPage):
            return 1
        children = list(node.children)
        return 1 + sum(self._count_blocks(child) for child in children)
