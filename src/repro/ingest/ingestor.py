"""Streaming ingest driver: buffered batches, group commit, checkpoints.

:class:`StreamIngestor` sits between an arrival stream (usually a
:class:`~repro.ingest.workload.StreamWorkload`) and any
:class:`~repro.core.access.IntervalStore`.  It owns three policies the
stores themselves deliberately do not:

* **Bounded buffering with backpressure.**  Submitted records collect
  in memory and flush as ONE ``append_batch`` call -- one group commit,
  one WAL force on the engine backends -- when the buffer reaches
  ``flush_records``.  The buffer is *bounded*: a submit that lands on a
  full buffer flushes synchronously before accepting the batch, and the
  stall is counted (``stats.stalls``) so benchmarks can see when the
  producer outran the store.

* **Commit-boundary ordering.**  Clock advances apply before a batch's
  records (now-relative rows start at or before the new clock), and a
  batch with closures flushes the buffer together with them, as one
  ``append_batch(records, closes=...)`` call (a closure may target a
  row that is still sitting in the buffer) -- one insert, at most one
  delete and one metadata record on the disk RI-tree.

* **One commit per submit.**  Everything one ``submit`` writes -- a
  backpressure flush, the clock advance, a flush with the closures --
  runs inside one ``database.atomic()`` batch: one WAL force, and a
  crash leaves the store as some whole submit left it, never part way
  through one.

* **Periodic checkpoints.**  Every ``checkpoint_batches`` flushed
  batches, the owning database's WAL is checkpointed *between* group
  commits -- after the submit's batch closes; inside one,
  :meth:`repro.engine.database.Database.checkpoint` raises -- which
  bounds recovery replay length during an unbounded ingest run.

The driver never reorders records across a flush boundary, so after
any ``flush()`` the store state equals a bulk load of the committed
prefix -- the equivalence the streaming benchmark's parity gate checks
at every checkpoint.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from ..core.access import IntervalRecord, IntervalStore
from .workload import StreamBatch


@dataclass
class IngestStats:
    """Counters the ingest benchmark reports per run."""

    records: int = 0
    batches: int = 0
    flushes: int = 0
    closes: int = 0
    checkpoints: int = 0
    stalls: int = 0
    buffered_peak: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class StreamIngestor:
    """Drive an :class:`IntervalStore` from an append stream.

    Parameters
    ----------
    store:
        Any interval store; backends without a native ``append_batch``
        inherit the insert-loop default, so the driver is
        backend-neutral.
    flush_records:
        Group-commit granularity: the buffer flushes once it holds at
        least this many records.
    buffer_records:
        Hard buffer bound (backpressure threshold); defaults to
        ``4 * flush_records``.
    checkpoint_batches:
        Checkpoint the WAL after every N flushed batches (0 disables).
    database:
        The engine database owning the store's WAL; defaults to
        ``store.db`` when present.  Consulted for the per-submit atomic
        batch and for checkpoints.
    """

    store: IntervalStore
    flush_records: int = 1024
    buffer_records: Optional[int] = None
    checkpoint_batches: int = 0
    database: Optional[object] = None
    stats: IngestStats = field(default_factory=IngestStats)

    def __post_init__(self) -> None:
        if self.flush_records < 1:
            raise ValueError("flush_records must be >= 1")
        if self.buffer_records is None:
            self.buffer_records = 4 * self.flush_records
        if self.buffer_records < self.flush_records:
            raise ValueError(
                f"buffer_records {self.buffer_records} below flush_records "
                f"{self.flush_records}")
        if self.database is None:
            self.database = getattr(self.store, "db", None)
        self._buffer: list[IntervalRecord] = []
        self._since_checkpoint = 0
        self._in_submit = False

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    @property
    def buffered(self) -> int:
        """Records currently waiting in the buffer."""
        return len(self._buffer)

    def submit(self, batch: StreamBatch) -> None:
        """Accept one arrival batch, flushing as policy dictates.

        Everything the submit writes commits as one atomic batch of the
        owning database; a checkpoint its flushes made due runs after
        that batch closes.
        """
        flushes = self.stats.flushes
        atomic = getattr(self.database, "atomic", None)
        self._in_submit = True
        try:
            with atomic() if atomic is not None else nullcontext():
                self._submit(batch)
        finally:
            self._in_submit = False
        for _ in range(self.stats.flushes - flushes):
            self._maybe_checkpoint()

    def _submit(self, batch: StreamBatch) -> None:
        if len(self._buffer) + batch.record_count > self.buffer_records:
            # Backpressure: the producer blocks on a synchronous flush
            # before the batch is accepted.
            self.stats.stalls += 1
            self.flush()
        if batch.timestamp > getattr(self.store, "now", batch.timestamp):
            self.store.advance_to(batch.timestamp)
        self._buffer.extend(batch.records)
        self.stats.records += batch.record_count
        self.stats.batches += 1
        if len(self._buffer) > self.stats.buffered_peak:
            self.stats.buffered_peak = len(self._buffer)
        if batch.closes:
            # Closures may target still-buffered rows: they commit with them.
            self.flush(batch.closes)
            self.stats.closes += len(batch.closes)
        elif len(self._buffer) >= self.flush_records:
            self.flush()

    def flush(self, closes=()) -> None:
        """Group-commit the buffer and ``closes``: one ``append_batch``
        call, counted as a flush when the buffer held records."""
        if not self._buffer and not closes:
            return
        records, self._buffer = self._buffer, []
        self.store.append_batch(records, closes=closes)
        if not records:
            return
        self.stats.flushes += 1
        if not self._in_submit:  # submit checkpoints after its batch
            self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        if not self.checkpoint_batches or self.database is None:
            return
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_batches:
            checkpoint = getattr(self.database, "checkpoint", None)
            if checkpoint is not None:
                checkpoint()
                self.stats.checkpoints += 1
            self._since_checkpoint = 0

    def drain(self) -> IngestStats:
        """Flush whatever remains and return the run's counters."""
        self.flush()
        return self.stats
