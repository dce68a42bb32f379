"""The database facade: catalog, buffer cache, WAL and I/O accounting.

One :class:`Database` owns a simulated disk, a buffer pool sized like the
paper's experimental setup (200 blocks of 2 KB, Section 6.1) and a catalog of
tables.  Every structure created through it shares the same I/O counters, so
``db.measure()`` observes exactly the physical block traffic a query causes
-- the metric reported in the paper's Figures 13 and 14.

Durability is opt-in: constructed with ``wal=True`` the database logs every
DDL/DML statement and store-metadata update to a
:class:`~repro.engine.wal.WriteAheadLog`.  Mutations grouped under
:meth:`Database.atomic` commit as one batch (one WAL force); a
:class:`~repro.engine.errors.SimulatedCrash` at *any* point leaves a durable
log whose committed prefix :meth:`Database.recover` replays into a fresh,
consistent database -- uncommitted batches are rolled back by never being
replayed.  :meth:`Database.checkpoint` bounds replay work by replacing the
log with a snapshot: one block-image line per heap page and a small
manifest.  The page lines are cached, so a checkpoint frames only the
pages changed since the previous one.
"""

from __future__ import annotations

import base64
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Union

from .buffer import DEFAULT_CACHE_BLOCKS, BufferPool
from .errors import RecoveryError, SchemaError, WalError
from .faults import FaultInjector
from .heap import load_page
from .retry import RetryPolicy
from .stats import IoSnapshot, IoStats
from .stats import measure as _measure
from .storage import DEFAULT_BLOCK_SIZE, DiskManager
from .table import Table
from .wal import WriteAheadLog, encode_page, encode_record


class Database:
    """An in-process relational storage engine instance.

    Parameters
    ----------
    block_size:
        Disk block size in bytes (paper default: 2048).
    cache_blocks:
        Buffer cache capacity in blocks (paper default: 200).
    wal:
        ``True`` to create a fresh write-ahead log, an existing
        :class:`WriteAheadLog` to adopt one, ``False``/``None`` (default)
        for the paper's original non-durable engine.
    injector:
        Optional :class:`~repro.engine.faults.FaultInjector` observing
        every physical read/write, flush and WAL force.
    retry:
        Optional :class:`~repro.engine.retry.RetryPolicy` retrying
        injected transient faults at the disk interface.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        wal: Union[bool, WriteAheadLog, None] = None,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.stats = IoStats()
        self.injector = injector
        self.retry = retry
        self.disk = DiskManager(
            block_size=block_size,
            stats=self.stats,
            injector=injector,
            retry=retry,
        )
        self.pool = BufferPool(
            self.disk,
            capacity=cache_blocks,
            stats=self.stats,
            injector=injector,
        )
        if wal is True:
            self.wal: Optional[WriteAheadLog] = WriteAheadLog(
                block_size=block_size, stats=self.stats, injector=injector
            )
        elif isinstance(wal, WriteAheadLog):
            self.wal = wal
            wal.rebind(self.stats, injector)
        else:
            self.wal = None
        self._tables: dict[str, Table] = {}
        self._wal_meta: dict[str, dict] = {}
        #: Per table, the :func:`~repro.engine.wal.encode_page` line of
        #: each heap page as of the last checkpoint.
        self._page_lines: dict[str, list[str]] = {}
        self._batch_depth = 0
        self._batch_seq = 0
        self._suppress_wal = False
        #: Set when an atomic batch failed mid-flight: the in-memory state
        #: may have applied part of the batch the WAL rolled back, so the
        #: only trustworthy continuation is :meth:`recover`.
        self.wal_desynced = False
        #: Number of logical records replayed if this instance was built
        #: by :meth:`recover` (0 otherwise).
        self.replayed_ops = 0

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: Sequence[str]) -> Table:
        """Create a table of 64-bit integer columns."""
        if name in self._tables:
            raise SchemaError(f"table {name} already exists")
        self._log({"t": "create_table", "name": name, "columns": list(columns)})
        table = Table(self.pool, name, columns, log=self._log)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no such table: {name}") from None

    def has_table(self, name: str) -> bool:
        """Whether a table named ``name`` exists."""
        return name in self._tables

    def tables(self) -> Iterator[Table]:
        """Iterate over all tables."""
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    @contextmanager
    def measure(self) -> Iterator[IoSnapshot]:
        """Context manager yielding the I/O delta of the ``with`` body."""
        with _measure(self.stats) as delta:
            yield delta

    def clear_cache(self) -> None:
        """Flush and empty the buffer cache (for cold-cache measurements)."""
        self.pool.clear()

    def flush(self) -> None:
        """Write back all dirty pages."""
        self.pool.flush_all()

    @property
    def blocks_in_use(self) -> int:
        """Allocated disk blocks -- the paper's storage metric."""
        return self.disk.blocks_in_use

    # ------------------------------------------------------------------
    # write-ahead logging
    # ------------------------------------------------------------------
    @contextmanager
    def atomic(self) -> Iterator[None]:
        """Group the body's mutations into one atomic WAL batch.

        One ``begin`` record, the body's logical records, one ``commit``
        record, one force (group commit).  Nested uses flatten into the
        outermost batch.  A batch whose body logged nothing writes and
        forces nothing.  On *any* exception the un-forced tail is
        discarded -- the batch never happened as far as recovery is
        concerned -- and, if the batch had already logged mutations,
        :attr:`wal_desynced` is set because the in-memory state may hold
        part of the rolled-back batch (a batch that failed before its
        first record, e.g. a key lookup miss, mutated nothing and leaves
        the store usable).  Without a WAL this is a no-op wrapper.
        """
        if self.wal is None:
            yield
            return
        if self._batch_depth:
            self._batch_depth += 1
            try:
                yield
            finally:
                self._batch_depth -= 1
            return
        self._batch_seq += 1
        batch_id = self._batch_seq
        self._batch_depth = 1
        self.wal.append({"t": "begin", "b": batch_id})
        try:
            yield
        except BaseException:
            if self.wal.drop_tail() > 1:  # more than the bare begin record
                self.wal_desynced = True
            raise
        else:
            if self.wal.tail_records > 1:
                self.wal.append({"t": "commit", "b": batch_id})
                self.wal.force()
            else:  # only the begin record: the batch never happened
                self.wal.drop_tail()
                self._batch_seq -= 1
        finally:
            self._batch_depth = 0

    def log_meta(self, store: str, data: dict) -> None:
        """Record a store's metadata (backbone parameters, clock, bounds).

        The metadata rides in the WAL with the batch that produced it and
        is available again after recovery via :meth:`store_meta`.
        """
        self._wal_meta[store] = data
        self._log({"t": "meta", "store": store, "data": data})

    def store_meta(self, store: str) -> Optional[dict]:
        """The most recent metadata logged for ``store`` (or ``None``)."""
        return self._wal_meta.get(store)

    def checkpoint(self) -> None:
        """Replace the WAL with a snapshot of the current state.

        Flushes dirty pages first (so the simulated disk matches too),
        then atomically replaces the log contents with one ``page`` line
        per heap page and one ``ckpt`` manifest line (one
        :meth:`WriteAheadLog.checkpoint` call).  Bounds recovery replay
        to the work since the last checkpoint.

        The page lines are cached: only the pages the heap reports
        changed since the previous checkpoint (every page, on a table's
        first one) are read and framed, and only those lines and the
        manifest are written, so the page reads and the log bytes scale
        with the change, not the table.
        """
        if self.wal is None:
            raise WalError("checkpoint requires a write-ahead log")
        if self._batch_depth:
            raise WalError("checkpoint inside an atomic batch")
        self.pool.flush_all()
        lines: list[str] = []
        fresh: list[str] = []
        specs = []
        for table in self._tables.values():
            name, heap = table.name, table.heap
            cached = self._page_lines.setdefault(name, [])
            cached.extend([""] * (heap.page_count - len(cached)))
            for page_index in heap.changed_pages():
                line = encode_page(name, page_index, heap.page(page_index).to_bytes())
                cached[page_index] = line
                fresh.append(line)
            lines += cached
            indexes = [
                {"name": index.name, "key": list(index.columns)}
                for index in table.indexes.values()
            ]
            specs.append(
                {
                    "name": name,
                    "columns": list(table.columns),
                    "indexes": indexes,
                    "pages": heap.page_count,
                }
            )
        manifest = encode_record({"t": "ckpt", "tables": specs, "meta": self._wal_meta})
        lines.append(manifest)
        fresh.append(manifest)
        self.wal.checkpoint(lines, fresh)
        for table in self._tables.values():
            table.heap.mark_clean()

    def recover(self) -> "Database":
        """Rebuild a consistent database from the durable WAL prefix.

        Models process death and restart: the un-forced tail is lost, a
        fresh :class:`Database` is built by applying the last checkpoint
        snapshot and replaying every committed batch in log order, and
        the survivor log (compacted to a new checkpoint) moves over to
        the new instance.  The crashed instance must not be used again.
        """
        if self.wal is None:
            raise WalError("recover requires a write-ahead log")
        wal = self.wal
        wal.drop_tail()
        recovered = Database(
            block_size=self.disk.block_size, cache_blocks=self.pool.capacity
        )
        wal.rebind(recovered.stats, injector=None)
        committed = _committed_records(wal.records())
        recovered._replay(committed)
        recovered.replayed_ops = len(committed)
        recovered.wal = wal
        recovered.checkpoint()
        return recovered

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _log(self, record: dict) -> None:
        wal = self.wal
        if wal is None or self._suppress_wal:
            return
        if self._batch_depth:
            wal.append(record)
            return
        self._batch_seq += 1
        batch_id = self._batch_seq
        wal.append({"t": "begin", "b": batch_id})
        wal.append(record)
        wal.append({"t": "commit", "b": batch_id})
        wal.force()

    def _replay(self, records: list[dict]) -> None:
        """Apply committed logical records to this (fresh) database."""
        # Deletes are logged by row *content*; track content -> rowids as
        # inserts replay so each delete resolves to one concrete row.
        content: dict[tuple[str, tuple], list[int]] = {}
        self._suppress_wal = True
        try:
            for record in records:
                kind = record["t"]
                if kind == "ckpt":
                    self._replay_checkpoint(record, content)
                elif kind == "create_table":
                    self.create_table(record["name"], record["columns"])
                elif kind == "create_index":
                    self.table(record["table"]).create_index(
                        record["index"], record["key"]
                    )
                elif kind == "insert":
                    rows = [tuple(row) for row in record["rows"]]
                    rowids = self.table(record["table"]).insert_many(rows)
                    _note_rows(content, record["table"], rows, rowids)
                elif kind == "bulk":
                    self._replay_bulk(record, content)
                elif kind == "delete":
                    self._replay_delete(record, content)
                elif kind == "meta":
                    self._wal_meta[record["store"]] = record["data"]
                else:  # pragma: no cover - _committed_records filters these
                    raise RecoveryError(f"unexpected record kind {kind!r}")
        finally:
            self._suppress_wal = False

    def _replay_checkpoint(
        self, record: dict, content: dict[tuple[str, tuple], list[int]]
    ) -> None:
        """Bulk-load each table with the live rows of the page images the
        manifest lists, in (page, slot) order."""
        if self._tables:
            raise RecoveryError("checkpoint record after table records")
        images = record["images"]
        for spec in record["tables"]:
            name = spec["name"]
            table = self.create_table(name, spec["columns"])
            for index in spec["indexes"]:
                table.create_index(index["name"], index["key"])
            rows = []
            for page_index in range(spec["pages"]):
                image = images.get((name, page_index))
                if image is None:
                    raise RecoveryError(f"no image of page {page_index} of {name}")
                page = load_page(table.heap.codec, base64.b64decode(image))
                rows += [row for _slot, row in page.live_slots()]
            if rows:
                _note_rows(content, name, rows, table.bulk_load(rows))
        self._wal_meta.update(record.get("meta", {}))

    def _replay_delete(
        self, record: dict, content: dict[tuple[str, tuple], list[int]]
    ) -> None:
        name = record["table"]
        rowids = []
        for row in map(tuple, record["rows"]):
            stored = content.get((name, row))
            if not stored:
                raise RecoveryError(
                    f"replay deletes missing row {row} from table {name}"
                )
            rowids.append(stored.pop())
        self.table(name).delete_many(rowids)

    def _replay_bulk(
        self, record: dict, content: dict[tuple[str, tuple], list[int]]
    ) -> None:
        table = self.table(record["table"])
        rows = [tuple(row) for row in record["rows"]]
        if table.row_count == 0:
            rowids = table.bulk_load(rows, fill=record.get("fill", 0.9))
        else:  # pragma: no cover - bulk is only logged on empty tables
            rowids = table.insert_many(rows)
        _note_rows(content, record["table"], rows, rowids)


def _note_rows(
    content: dict[tuple[str, tuple], list[int]],
    table: str,
    rows: list[tuple],
    rowids: list[int],
) -> None:
    """Remember where replay stored each row, for later deletes."""
    for row, rowid in zip(rows, rowids):
        content.setdefault((table, row), []).append(rowid)


def _committed_records(records: list[dict]) -> list[dict]:
    """Filter a raw record stream down to the committed, applicable ops.

    The last ``ckpt`` record resets the stream (everything before it is
    already folded into the snapshot) and takes the ``page`` images
    before it as its ``images``, keyed by ``(table, page)``.  A
    ``begin`` opens a pending batch; its records apply only when the
    matching ``commit`` arrives.  A trailing batch with no commit -- the
    crash case -- is rolled back by omission.
    """
    applied: list[dict] = []
    images: dict[tuple[str, int], str] = {}
    pending: Optional[list[dict]] = None
    pending_id: Optional[int] = None
    for record in records:
        kind = record["t"]
        if kind in ("page", "ckpt") and pending is not None:
            raise RecoveryError(f"{kind} record inside an open batch")
        if kind == "page":
            images[record["table"], record["page"]] = record["image"]
        elif kind == "ckpt":
            applied = [{**record, "images": images}]
            images = {}
        elif kind == "begin":
            if pending is not None:
                raise RecoveryError("nested begin records in the WAL")
            pending = []
            pending_id = record["b"]
        elif kind == "commit":
            if pending is None or record["b"] != pending_id:
                raise RecoveryError("commit without a matching begin")
            applied.extend(pending)
            pending = None
            pending_id = None
        elif pending is not None:
            pending.append(record)
        else:
            raise RecoveryError(f"record kind {kind!r} outside any batch")
    return applied
