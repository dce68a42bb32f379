"""Write-ahead log with group commit, checkpointing and crash semantics.

The simulated engine keeps its catalog and page directories in memory, so a
:class:`~repro.engine.errors.SimulatedCrash` abandons *all* volatile state.
Durability therefore follows the classic logical-redo recipe:

* every mutation appends a **logical record** (insert / delete / bulk /
  DDL / store metadata) to the log tail.  An insert or delete statement
  is one record however many rows it carries:
  ``{"t": "insert", "table": name, "rows": [[col, ...], ...]}``, and
  likewise ``"t": "delete"`` (replay finds each deleted row by content);
* a batch commits by appending a ``commit`` record and **forcing** the
  tail (group commit -- one force per batch, accounted in whole blocks as
  ``wal_writes``);
* a **checkpoint** atomically replaces the whole log with a snapshot,
  bounding replay work: one ``page`` line per heap page holding its
  block image (:func:`encode_page`), then one small ``ckpt`` manifest
  line (each table's schema and page count, and the store metadata).
  A page line is written once and referenced by every later snapshot
  until its page changes, so a checkpoint writes the lines of the pages
  changed since the previous one plus the manifest, not the table
  (:meth:`WriteAheadLog.checkpoint`);
* **recovery** scans the durable prefix (accounted as ``wal_reads``),
  loads the rows of the page images the last manifest lists and replays
  every *committed* batch in order; a batch whose ``commit`` never
  became durable is rolled back by simply not replaying it.

Records are JSON lines protected by a CRC-32 prefix.  The "disk" behind
the log is modeled the same way as the data disk: whatever was forced
survives a crash, the un-forced tail is lost
(:meth:`WriteAheadLog.drop_tail`), and the force itself is a write point
of the :class:`~repro.engine.faults.FaultInjector` -- a crash injected at
that point loses the batch, exactly like a power cut between ``write()``
and ``fsync()``.
"""

from __future__ import annotations

import base64
import json
import zlib
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import WalError
from .stats import IoStats
from .storage import DEFAULT_BLOCK_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from .faults import FaultInjector

#: Record kinds understood by replay.
RECORD_KINDS = (
    "begin",
    "commit",
    "create_table",
    "create_index",
    "insert",
    "delete",
    "bulk",
    "meta",
    "page",
    "ckpt",
)


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def _frame(payload: str) -> str:
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}"


def encode_record(record: dict) -> str:
    """Serialise one record as a CRC-protected JSON line."""
    if record.get("t") not in RECORD_KINDS:
        raise WalError(f"unknown WAL record kind: {record.get('t')!r}")
    return _frame(_dumps(record))


def encode_page(table: str, page: int, image: bytes) -> str:
    """The ``page`` line of one heap page's block image (base64).

    Byte for byte ``encode_record({"t": "page", "table": table, "page":
    page, "image": base64})``, written without the JSON encoder: a
    base64 text needs no escaping, and the encoder's scan of it was most
    of a checkpoint's framing work.
    """
    text = base64.b64encode(image).decode("ascii")
    name = _dumps(table)
    return _frame(f'{{"image":"{text}","page":{page:d},"t":"page","table":{name}}}')


def decode_record(line: str) -> dict:
    """Parse and CRC-check one log line."""
    if len(line) < 10 or line[8] != " ":
        raise WalError(f"malformed WAL line: {line[:40]!r}")
    payload = line[9:]
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    if f"{crc:08x}" != line[:8]:
        raise WalError(f"WAL record fails its CRC: {line[:40]!r}")
    record = json.loads(payload)
    if record.get("t") not in RECORD_KINDS:
        raise WalError(f"unknown WAL record kind: {record.get('t')!r}")
    return record


class WriteAheadLog:
    """An in-memory WAL with an explicit durable / volatile boundary.

    Parameters
    ----------
    block_size:
        Log block size used for I/O accounting (defaults to the paper's
        2 KB data block).
    stats:
        Counter object receiving ``wal_reads`` / ``wal_writes``.
    injector:
        Optional fault injector; every force is one of its write points.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        stats: Optional[IoStats] = None,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.block_size = block_size
        self.stats = stats if stats is not None else IoStats()
        self.injector = injector
        self._durable: list[str] = []
        self._tail: list[str] = []
        self.forces = 0
        self.checkpoints = 0

    def rebind(self, stats: IoStats, injector: Optional["FaultInjector"]) -> None:
        """Attach the log to a (new) database's counters and injector.

        Called when a recovered :class:`~repro.engine.database.Database`
        adopts the survivor log.
        """
        self.stats = stats
        self.injector = injector

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Buffer one record in the volatile tail (no I/O yet)."""
        self._tail.append(encode_record(record))

    def force(self) -> None:
        """Make the buffered tail durable (the group-commit fsync).

        Accounted as ``wal_writes`` in whole blocks of appended bytes.
        The injector's write point fires *before* durability: a crash
        injected here loses the tail, like a power cut before fsync.
        """
        if not self._tail:
            return
        if self.injector is not None:
            self.injector.on_wal_force()
        appended = sum(len(line) + 1 for line in self._tail)
        self.stats.wal_writes += -(-appended // self.block_size)
        self._durable.extend(self._tail)
        self._tail.clear()
        self.forces += 1

    def checkpoint(self, lines: list[str], fresh: Sequence[str]) -> None:
        """Atomically replace the log contents with a snapshot.

        ``lines`` is the whole snapshot: the ``page`` lines
        (:func:`encode_page`) then the ``ckpt`` manifest; the log takes
        the list over.  ``fresh`` are the lines of ``lines`` written by
        this checkpoint; the others are already on the log disk from an
        earlier one, and the new log anchor references them in place.
        Models writing the fresh lines to a side file and atomically
        switching the anchor: the injector's write point fires before
        the switch, so a crash injected here leaves the *old* log intact
        and recovery simply replays more.  Accounted as one force and
        ``wal_writes`` in whole blocks of the fresh lines.
        """
        if self.injector is not None:
            self.injector.on_wal_force()
        written = sum(len(line) + 1 for line in fresh)
        self.stats.wal_writes += -(-written // self.block_size)
        self._durable = lines
        self._tail.clear()
        self.forces += 1
        self.checkpoints += 1

    def drop_tail(self) -> int:
        """Discard the un-forced tail (what a crash destroys); return count."""
        lost = len(self._tail)
        self._tail.clear()
        return lost

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """Decode the durable prefix (accounted as ``wal_reads`` blocks)."""
        nbytes = sum(len(line) + 1 for line in self._durable)
        if nbytes:
            self.stats.wal_reads += -(-nbytes // self.block_size)
        return [decode_record(line) for line in self._durable]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def durable_records(self) -> int:
        """Number of records in the durable prefix."""
        return len(self._durable)

    @property
    def tail_records(self) -> int:
        """Number of buffered (volatile) records."""
        return len(self._tail)

    @property
    def durable_bytes(self) -> int:
        """Size of the durable prefix in bytes."""
        return sum(len(line) + 1 for line in self._durable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog(durable={len(self._durable)}, "
            f"tail={len(self._tail)}, forces={self.forces}, "
            f"checkpoints={self.checkpoints})"
        )
