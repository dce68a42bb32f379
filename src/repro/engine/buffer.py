"""LRU buffer pool over the simulated disk.

The paper's setup fixes "the database block cache ... to the default value of
200 database blocks" (Section 6.1).  :class:`BufferPool` reproduces that
component: a fixed number of frames, least-recently-used replacement, dirty
tracking and write-back on eviction.

The pool caches *deserialised page objects* (anything implementing
:class:`PageLike`), so a buffer hit costs neither I/O nor decoding -- exactly
like a real block cache holding parsed pages.  A miss reads the block from the
:class:`~repro.engine.storage.DiskManager` (one physical read) and decodes it
via the loader supplied by the owning structure.  The loaders of B+-tree
leaves and heap pages copy the block body into one ``array('q')`` and build
no tuples; a leaf turns into a tuple list only when it is used again while
cached (a later scan or a write), and a heap page never does.  Internal
B+-tree pages decode into tuple keys.  Every form encodes back to the bytes
it was read from, so what the pool caches never changes what it writes.

Pages that an operation currently holds a Python reference to must be *pinned*
so that eviction cannot detach them from the cache (a detached page would be
re-read from stale disk bytes and updates would be lost).  The B+-tree and
heap code pin the root-to-leaf path of the operation in flight and unpin in
``finally`` blocks.

When a :class:`~repro.engine.faults.FaultInjector` is attached, every dirty
write-back (explicit flush or eviction) is announced as a *flush point*
before the disk write it triggers, so crash experiments can target the
buffer manager's background I/O as well as direct writes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Protocol

from .errors import BufferError_
from .stats import IoStats
from .storage import DiskManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from .faults import FaultInjector

#: Default cache capacity in blocks, matching the paper (Section 6.1).
DEFAULT_CACHE_BLOCKS = 200


class PageLike(Protocol):
    """The minimal interface a cached page object must provide."""

    def to_bytes(self) -> bytes:
        """Serialise the page into at most one disk block."""
        ...


class _Frame:
    """One buffer slot: the page object plus bookkeeping."""

    __slots__ = ("page", "dirty", "pins")

    def __init__(self, page: PageLike) -> None:
        self.page = page
        self.dirty = False
        self.pins = 0


class BufferPool:
    """Fixed-capacity LRU cache of deserialised pages.

    Parameters
    ----------
    disk:
        Backing block device.
    capacity:
        Number of frames.  Must be large enough to pin one operation's page
        path; the engine enforces a floor of 8 frames.
    stats:
        Counter object shared with ``disk``; defaults to ``disk.stats``.
    injector:
        Optional fault injector announced to on every dirty write-back.
    """

    def __init__(
        self,
        disk: DiskManager,
        capacity: int = DEFAULT_CACHE_BLOCKS,
        stats: IoStats | None = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        if capacity < 8:
            raise BufferError_(f"buffer capacity {capacity} below minimum of 8")
        self.disk = disk
        self.capacity = capacity
        self.stats = stats if stats is not None else disk.stats
        self.injector = injector
        self._frames: OrderedDict[int, _Frame] = OrderedDict()

    # ------------------------------------------------------------------
    # page access
    # ------------------------------------------------------------------
    def get(self, block_id: int, loader: Callable[[bytes], PageLike]) -> PageLike:
        """Return the page stored in ``block_id``.

        ``loader`` decodes raw block bytes on a miss.  Every call counts as
        one logical read; only misses touch the disk.
        """
        self.stats.logical_reads += 1
        frame = self._frames.get(block_id)
        if frame is not None:
            self._frames.move_to_end(block_id)
            return frame.page
        data = self.disk.read(block_id)
        page = loader(data)
        self._admit(block_id, _Frame(page))
        return page

    def make_reader(
        self, loader: Callable[[bytes], PageLike]
    ) -> Callable[[int], PageLike]:
        """Bind ``loader`` once and return a fast-path page reader.

        Structures that issue many page requests (B+-tree scans, heap
        fetches) would otherwise re-create a bound-method loader and pay
        several attribute lookups on *every* :meth:`get` call.  The
        returned callable closes over the pool internals and the loader,
        so a cache hit costs one dict probe and one LRU touch.

        The accounting contract is identical to :meth:`get`: every call is
        one logical read, only misses touch the disk, and admissions go
        through the same eviction path.  The closure captures the frame
        table *object* (never rebound -- :meth:`clear` empties it in
        place), so readers stay valid across cache clears.
        """
        frames = self._frames
        frames_get = frames.get
        move_to_end = frames.move_to_end
        stats = self.stats
        disk_read = self.disk.read
        admit = self._admit

        def read(block_id: int) -> PageLike:
            stats.logical_reads += 1
            frame = frames_get(block_id)
            if frame is not None:
                move_to_end(block_id)
                return frame.page
            page = loader(disk_read(block_id))
            admit(block_id, _Frame(page))
            return page

        return read

    def scan_refs(
        self, loader: Callable[[bytes], PageLike]
    ) -> tuple["OrderedDict[int, _Frame]", IoStats, Callable[[int], PageLike]]:
        """References for loops that inline the cache-hit fast path.

        The innermost scan loops (B+-tree leaf walks) probe the cache once
        per page; routing every probe through a Python callable costs one
        frame activation per page even on a hit.  ``scan_refs`` hands such
        loops ``(frames, stats, miss)`` so a hit is pure C-level dict work
        while the miss path stays centralised here.

        Contract for the caller, per probe -- identical accounting to
        :meth:`get`:

        1. ``stats.logical_reads += 1``;
        2. ``frame = frames.get(block_id)``; on a hit call
           ``frames.move_to_end(block_id)`` and use ``frame.page``;
        3. on a miss call ``miss(block_id)``, which performs the physical
           read, decodes via ``loader`` and admits the page (evicting
           through the normal path).

        The frame table and stats objects are stable for the pool's
        lifetime (:meth:`clear` empties the table in place).
        """

        def miss(block_id: int) -> PageLike:
            page = loader(self.disk.read(block_id))
            self._admit(block_id, _Frame(page))
            return page

        return self._frames, self.stats, miss

    def put_new(self, block_id: int, page: PageLike) -> None:
        """Register a freshly created page (dirty, not yet on disk)."""
        if block_id in self._frames:
            raise BufferError_(f"block {block_id} already buffered")
        frame = _Frame(page)
        frame.dirty = True
        self._admit(block_id, frame)

    def mark_dirty(self, block_id: int) -> None:
        """Record that the cached page for ``block_id`` was modified."""
        frame = self._frames.get(block_id)
        if frame is None:
            raise BufferError_(
                f"mark_dirty on non-resident block {block_id}; pin pages "
                "before mutating them"
            )
        frame.dirty = True
        self._frames.move_to_end(block_id)

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------
    def pin(self, block_id: int) -> None:
        """Exempt a resident page from eviction until unpinned."""
        frame = self._frames.get(block_id)
        if frame is None:
            raise BufferError_(f"pin on non-resident block {block_id}")
        frame.pins += 1

    def unpin(self, block_id: int) -> None:
        """Release one pin on ``block_id``."""
        frame = self._frames.get(block_id)
        if frame is None:
            raise BufferError_(f"unpin on non-resident block {block_id}")
        if frame.pins <= 0:
            raise BufferError_(f"unpin without pin on block {block_id}")
        frame.pins -= 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drop(self, block_id: int) -> None:
        """Discard a page without write-back (caller is freeing the block)."""
        frame = self._frames.get(block_id)
        if frame is None:
            return
        if frame.pins > 0:
            raise BufferError_(f"drop of pinned block {block_id}")
        del self._frames[block_id]

    def flush_block(self, block_id: int) -> None:
        """Write one dirty page back to disk, keeping it cached."""
        frame = self._frames.get(block_id)
        if frame is not None and frame.dirty:
            if self.injector is not None:
                self.injector.on_flush(block_id)
            self.disk.write(block_id, frame.page.to_bytes())
            frame.dirty = False

    def flush_all(self) -> None:
        """Write back every dirty page (e.g. before inspecting the disk)."""
        for block_id in list(self._frames):
            self.flush_block(block_id)

    def clear(self) -> None:
        """Flush everything and empty the cache (cold-cache benchmarking)."""
        self.flush_all()
        for block_id, frame in self._frames.items():
            if frame.pins > 0:
                raise BufferError_(f"clear with pinned block {block_id}")
        self._frames.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit(self, block_id: int, frame: _Frame) -> None:
        self._frames[block_id] = frame
        self._frames.move_to_end(block_id)
        while len(self._frames) > self.capacity:
            # Never evict the page being admitted: the caller holds a live
            # reference and may mutate it next.
            self._evict_one(exclude=block_id)

    def _evict_one(self, exclude: int) -> None:
        for victim_id, victim in self._frames.items():
            if victim.pins == 0 and victim_id != exclude:
                break
        else:
            raise BufferError_(
                "all buffered pages are pinned; cannot evict "
                f"(capacity={self.capacity})"
            )
        if victim.dirty:
            if self.injector is not None:
                self.injector.on_flush(victim_id)
            self.disk.write(victim_id, victim.page.to_bytes())
        del self._frames[victim_id]

    @property
    def resident(self) -> int:
        """Number of pages currently cached."""
        return len(self._frames)

    def is_resident(self, block_id: int) -> bool:
        """Whether ``block_id`` is currently cached (test helper)."""
        return block_id in self._frames
