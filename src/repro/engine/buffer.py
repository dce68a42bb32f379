"""LRU buffer pool over the simulated disk.

The paper's setup fixes "the database block cache ... to the default value of
200 database blocks" (Section 6.1).  :class:`BufferPool` reproduces that
component: a fixed number of frames, least-recently-used replacement, dirty
tracking and write-back on eviction.

The pool caches *deserialised page objects* (anything implementing
:class:`PageLike`), so a buffer hit costs neither I/O nor decoding -- exactly
like a real block cache holding parsed pages.  The frame table maps a block
id straight to its page, in LRU order; the dirty and pinned block ids are
kept beside it, so a hit is one dict probe and one LRU touch.

A miss is one step (:meth:`BufferPool._miss`), shared by :meth:`get`, the
readers of :meth:`make_reader` and the loops that use :meth:`scan_refs`: it
reads the block from the :class:`~repro.engine.storage.DiskManager` (one
physical read), decodes it with the loader supplied by the owning structure
and admits the page, evicting in the same step when the pool is full.  When
the least recently used frame is unpinned and clean -- the common case on a
working set larger than the cache -- eviction pops it; otherwise the victim
is the least recently used unpinned frame, written back first if dirty.  A
miss that finds every frame pinned raises before it reads, leaving the pool
unchanged.  With the structures' loaders, which parse a block in one pass
(see :mod:`repro.engine.bptree` and :mod:`repro.engine.heap`), a miss runs
three Python frames: the miss step, :meth:`DiskManager.read
<repro.engine.storage.DiskManager.read>` and the loader.  Every page form
encodes back to the bytes it was read from, so what the pool caches never
changes what it writes.

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
from functools import partial
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


class BufferPool:
    """Fixed-capacity LRU cache of deserialised pages.

    Parameters
    ----------
    disk:
        Backing block device.  Its ``read`` is bound once, here, so a
        wrapper on :meth:`DiskManager.read
        <repro.engine.storage.DiskManager.read>` must be in place before
        the pool is built to see the pool's reads.
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
        #: Block id -> cached page, least recently used first.
        self._frames: OrderedDict[int, PageLike] = OrderedDict()
        #: Resident blocks modified since their last write-back.
        self._dirty: set[int] = set()
        #: Resident block -> pin count, for pinned blocks only.
        self._pins: dict[int, int] = {}
        self._read_block = disk.read

    # ------------------------------------------------------------------
    # page access
    # ------------------------------------------------------------------
    def get(self, block_id: int, loader: Callable[[bytes], PageLike]) -> PageLike:
        """Return the page stored in ``block_id``.

        ``loader`` decodes raw block bytes on a miss.  Every call counts as
        one logical read; only misses touch the disk.
        """
        self.stats.logical_reads += 1
        page = self._frames.get(block_id)
        if page is None:
            return self._miss(loader, block_id)
        self._frames.move_to_end(block_id)
        return page

    def make_reader(
        self, loader: Callable[[bytes], PageLike]
    ) -> Callable[[int], PageLike]:
        """Bind ``loader`` once and return a fast-path page reader.

        Structures that issue many page requests would otherwise pass the
        loader and pay several attribute lookups on *every* :meth:`get`
        call.  The returned callable closes over the pool internals and the
        loader, so a cache hit costs one dict probe and one LRU touch.

        The accounting contract is identical to :meth:`get`: every call is
        one logical read, and a miss is the pool's one miss step.  The
        closure captures the frame table *object* (never rebound --
        :meth:`clear` empties it in place), so readers stay valid across
        cache clears.
        """
        frames = self._frames
        frames_get = frames.get
        move_to_end = frames.move_to_end
        stats = self.stats
        miss = self._miss

        def read(block_id: int) -> PageLike:
            stats.logical_reads += 1
            page = frames_get(block_id)
            if page is None:
                return miss(loader, block_id)
            move_to_end(block_id)
            return page

        return read

    def scan_refs(
        self, loader: Callable[[bytes], PageLike]
    ) -> tuple["OrderedDict[int, PageLike]", IoStats, Callable[[int], PageLike]]:
        """References for loops that inline the cache-hit fast path.

        The innermost loops (B+-tree descents and leaf walks, heap fetches
        by row id) probe the cache once per page; routing every probe
        through a Python callable costs one frame activation per page even
        on a hit.  ``scan_refs`` hands such loops ``(frames, stats, miss)``
        so a hit is pure C-level dict work while the miss stays the pool's
        one miss step.

        Contract for the caller, per probe -- identical accounting to
        :meth:`get`:

        1. ``stats.logical_reads += 1``;
        2. ``page = frames.get(block_id)``; on a hit call
           ``frames.move_to_end(block_id)`` and use ``page``;
        3. on a miss (``None``) call ``miss(block_id)``, which performs the
           physical read, decodes via ``loader`` and admits the page
           (evicting in the same step) and returns it.

        The frame table and stats objects are stable for the pool's
        lifetime (:meth:`clear` empties the table in place).  ``miss`` is
        a :func:`functools.partial`, so it adds no Python frame of its own.
        """
        return self._frames, self.stats, partial(self._miss, loader)

    def put_new(self, block_id: int, page: PageLike) -> None:
        """Register a freshly created page (dirty, not yet on disk)."""
        frames = self._frames
        if block_id in frames:
            raise BufferError_(f"block {block_id} already buffered")
        if len(frames) >= self.capacity:
            self._evict(self._victim())
        frames[block_id] = page
        self._dirty.add(block_id)

    def mark_dirty(self, block_id: int) -> None:
        """Record that the cached page for ``block_id`` was modified."""
        try:
            self._frames.move_to_end(block_id)
        except KeyError:
            raise BufferError_(
                f"mark_dirty on non-resident block {block_id}; pin pages "
                "before mutating them"
            ) from None
        self._dirty.add(block_id)

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------
    def pin(self, block_id: int) -> None:
        """Exempt a resident page from eviction until unpinned."""
        if block_id not in self._frames:
            raise BufferError_(f"pin on non-resident block {block_id}")
        self._pins[block_id] = self._pins.get(block_id, 0) + 1

    def unpin(self, block_id: int) -> None:
        """Release one pin on ``block_id``."""
        if block_id not in self._frames:
            raise BufferError_(f"unpin on non-resident block {block_id}")
        pins = self._pins.get(block_id, 0)
        if pins <= 0:
            raise BufferError_(f"unpin without pin on block {block_id}")
        if pins == 1:
            del self._pins[block_id]
        else:
            self._pins[block_id] = pins - 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drop(self, block_id: int) -> None:
        """Discard a page without write-back (caller is freeing the block)."""
        if block_id not in self._frames:
            return
        if block_id in self._pins:
            raise BufferError_(f"drop of pinned block {block_id}")
        del self._frames[block_id]
        self._dirty.discard(block_id)

    def flush_block(self, block_id: int) -> None:
        """Write one dirty page back to disk, keeping it cached."""
        if block_id in self._dirty:
            self._write_back(block_id)

    def flush_all(self) -> None:
        """Write back every dirty page (e.g. before inspecting the disk),
        least recently used first."""
        dirty = self._dirty
        for block_id in [block_id for block_id in self._frames if block_id in dirty]:
            self._write_back(block_id)

    def clear(self) -> None:
        """Flush everything and empty the cache (cold-cache benchmarking)."""
        self.flush_all()
        if self._pins:
            raise BufferError_(f"clear with pinned block {next(iter(self._pins))}")
        self._frames.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _miss(self, loader: Callable[[bytes], PageLike], block_id: int) -> PageLike:
        """Read, decode and admit ``block_id``, evicting in the same step.

        The physical read comes first, then the victim's write-back, if
        any: the I/O order of admitting and then evicting.  A read or
        decode that raises leaves the pool unchanged, and so does a full
        pool of pinned pages, which raises before the read.
        """
        frames = self._frames
        if len(frames) < self.capacity:
            page = loader(self._read_block(block_id))
        else:
            victim_id = next(iter(frames))
            if victim_id in self._pins or victim_id in self._dirty:
                victim_id = self._victim()
                page = loader(self._read_block(block_id))
                self._evict(victim_id)
            else:
                page = loader(self._read_block(block_id))
                frames.popitem(False)
        frames[block_id] = page
        return page

    def _victim(self) -> int:
        """The least recently used unpinned block; raises when none is."""
        pins = self._pins
        for block_id in self._frames:
            if block_id not in pins:
                return block_id
        raise BufferError_(
            "all buffered pages are pinned; cannot evict "
            f"(capacity={self.capacity})"
        )

    def _evict(self, block_id: int) -> None:
        if block_id in self._dirty:
            self._write_back(block_id)
        del self._frames[block_id]

    def _write_back(self, block_id: int) -> None:
        if self.injector is not None:
            self.injector.on_flush(block_id)
        self.disk.write(block_id, self._frames[block_id].to_bytes())
        self._dirty.discard(block_id)

    @property
    def resident(self) -> int:
        """Number of pages currently cached."""
        return len(self._frames)

    def is_resident(self, block_id: int) -> bool:
        """Whether ``block_id`` is currently cached (test helper)."""
        return block_id in self._frames
