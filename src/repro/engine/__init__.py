"""Block-level relational storage substrate.

This package simulates the parts of an Oracle8i-class RDBMS that the paper's
experiments depend on: a block device with physical-I/O accounting, an LRU
buffer cache, composite-key B+-tree indexes and heap tables.  The storage
engine section of docs/architecture.md lists what it simulates and counts.

Typical use::

    from repro.engine import Database

    db = Database(block_size=2048, cache_blocks=200)
    t = db.create_table("Intervals", ["node", "lower", "upper", "id"])
    t.create_index("lowerIndex", ["node", "lower"])
    t.create_index("upperIndex", ["node", "upper"])

For durability experiments, attach a write-ahead log and a fault injector::

    from repro.engine import Database, FaultInjector

    injector = FaultInjector(seed=7).crash_at_write_point(3)
    db = Database(wal=True, injector=injector)
"""

from .bptree import BPlusTree, DuplicateEntryError
from .buffer import DEFAULT_CACHE_BLOCKS, BufferPool
from .database import Database
from .errors import (
    BlockError,
    BufferError_,
    EngineError,
    KeyNotFoundError,
    PermanentIOError,
    RecoveryError,
    RetryExhaustedError,
    SchemaError,
    SerializationError,
    SimulatedCrash,
    TornPageError,
    TransientError,
    TransientIOError,
    WalError,
)
from .faults import FaultInjector
from .heap import HeapFile
from .retry import RetryPolicy, default_classify
from .serial import INT_MAX, INT_MIN, IntTupleCodec
from .stats import IoSnapshot, IoStats, measure
from .storage import DEFAULT_BLOCK_SIZE, DiskManager
from .table import IndexDef, Table
from .wal import WriteAheadLog

__all__ = [
    "BPlusTree",
    "BufferPool",
    "BlockError",
    "BufferError_",
    "Database",
    "DiskManager",
    "DuplicateEntryError",
    "EngineError",
    "FaultInjector",
    "HeapFile",
    "IndexDef",
    "IntTupleCodec",
    "IoSnapshot",
    "IoStats",
    "KeyNotFoundError",
    "PermanentIOError",
    "RecoveryError",
    "RetryExhaustedError",
    "RetryPolicy",
    "SchemaError",
    "SerializationError",
    "SimulatedCrash",
    "Table",
    "TornPageError",
    "TransientError",
    "TransientIOError",
    "WalError",
    "WriteAheadLog",
    "default_classify",
    "measure",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CACHE_BLOCKS",
    "INT_MAX",
    "INT_MIN",
]
