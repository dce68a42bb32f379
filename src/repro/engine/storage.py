"""Simulated disk: fixed-size blocks with physical-I/O accounting.

The paper's experiments run on "an U-SCSI hard drive" with "a block size of
2 KB" (Section 6.1).  :class:`DiskManager` models that device as an in-memory
array of byte blocks.  Every :meth:`DiskManager.read` and
:meth:`DiskManager.write` increments the shared
:class:`~repro.engine.stats.IoStats` counters, which is the substrate-level
definition of a *physical disk block access* used throughout the benchmarks.

Blocks are identified by dense non-negative integers.  Freed blocks are
recycled so that space accounting (:attr:`DiskManager.blocks_in_use`) matches
the O(n/b) space claims of the paper.

Fault injection
---------------
A :class:`~repro.engine.faults.FaultInjector` can be attached to make the
device misbehave deterministically: typed transient or permanent errors on
the Nth read/write, torn writes (only a prefix of the page persists -- the
block is tracked out-of-band and reads back as a
:class:`~repro.engine.errors.TornPageError`, modeling a checksum mismatch),
and :class:`~repro.engine.errors.SimulatedCrash` at any write point.  A
:class:`~repro.engine.retry.RetryPolicy` layered on top retries *transient*
faults only; crashes and permanent faults always propagate.  Both seams are
``None`` by default and add zero work to the fast path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .errors import BlockError, TornPageError
from .stats import IoStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from .faults import FaultInjector
    from .retry import RetryPolicy

#: Default block size, matching the paper's experimental setup (Section 6.1).
DEFAULT_BLOCK_SIZE = 2048


class DiskManager:
    """An in-memory block device with I/O counters.

    Parameters
    ----------
    block_size:
        Size of every block in bytes.  Pages serialised by the engine must
        fit in this size.
    stats:
        Shared counter object; a fresh one is created when omitted.
    injector:
        Optional :class:`~repro.engine.faults.FaultInjector` consulted on
        every physical read and write.
    retry:
        Optional :class:`~repro.engine.retry.RetryPolicy` applied to
        injected *transient* faults.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        stats: Optional[IoStats] = None,
        injector: Optional["FaultInjector"] = None,
        retry: Optional["RetryPolicy"] = None,
    ) -> None:
        if block_size < 64:
            raise BlockError(f"block size {block_size} is too small")
        self.block_size = block_size
        self.stats = stats if stats is not None else IoStats()
        self.injector = injector
        self.retry = retry
        self._blocks: list[Optional[bytes]] = []
        self._free: list[int] = []
        self._free_set: set[int] = set()
        self._torn: set[int] = set()

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Reserve a block and return its id.

        The block's contents are undefined until the first write; reading an
        allocated-but-unwritten block is an error, which catches
        use-before-initialise bugs in the upper layers.
        """
        self.stats.blocks_allocated += 1
        if self._free:
            block_id = self._free.pop()
            self._free_set.discard(block_id)
            self._blocks[block_id] = None
            return block_id
        self._blocks.append(None)
        return len(self._blocks) - 1

    def free(self, block_id: int) -> None:
        """Return a block to the free pool."""
        self._check_id(block_id)
        if block_id in self._free_set:
            raise BlockError(f"double free of block {block_id}")
        self._blocks[block_id] = None
        self._free.append(block_id)
        self._free_set.add(block_id)
        self._torn.discard(block_id)
        self.stats.blocks_allocated -= 1

    # ------------------------------------------------------------------
    # physical I/O
    # ------------------------------------------------------------------
    def read(self, block_id: int) -> bytes:
        """Fetch a block from disk (counted as one physical read)."""
        blocks = self._blocks
        if not 0 <= block_id < len(blocks) or block_id in self._free_set:
            self._check_id(block_id)
        if self.injector is not None:
            self._consult_read(block_id)
        data = blocks[block_id]
        if data is None:
            raise BlockError(f"block {block_id} read before first write")
        self.stats.physical_reads += 1
        if block_id in self._torn:
            raise TornPageError(
                f"block {block_id} fails its checksum: last write was torn"
            )
        return data

    def write(self, block_id: int, data: bytes) -> None:
        """Store a block to disk (counted as one physical write)."""
        self._check_id(block_id)
        if len(data) > self.block_size:
            raise BlockError(
                f"page of {len(data)} bytes exceeds block size {self.block_size}"
            )
        torn = False
        if self.injector is not None:
            torn = self._consult_write(block_id)
        self.stats.physical_writes += 1
        if torn:
            self._blocks[block_id] = bytes(data[: max(1, len(data) // 2)])
            self._torn.add(block_id)
        else:
            self._blocks[block_id] = bytes(data)
            self._torn.discard(block_id)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def blocks_in_use(self) -> int:
        """Number of currently allocated blocks (the paper's space metric)."""
        return len(self._blocks) - len(self._free)

    @property
    def torn_blocks(self) -> frozenset[int]:
        """Blocks whose last write was torn (unreadable until rewritten)."""
        return frozenset(self._torn)

    def _check_id(self, block_id: int) -> None:
        if not 0 <= block_id < len(self._blocks):
            raise BlockError(f"invalid block id {block_id}")
        if block_id in self._free_set:
            raise BlockError(f"access to freed block {block_id}")

    # ------------------------------------------------------------------
    # fault-injection internals
    # ------------------------------------------------------------------
    def _consult_read(self, block_id: int) -> None:
        if self.retry is None:
            self.injector.on_read(block_id)
        else:
            self.retry.call(lambda: self.injector.on_read(block_id))

    def _consult_write(self, block_id: int) -> bool:
        if self.retry is None:
            return self.injector.on_write(block_id)
        return self.retry.call(lambda: self.injector.on_write(block_id))
