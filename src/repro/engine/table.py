"""Tables: schemas, heap storage and secondary B+-tree indexes.

A :class:`Table` is the engine's equivalent of the paper's

.. code-block:: sql

    CREATE TABLE Intervals (node int, lower int, upper int, id int);
    CREATE INDEX lowerIndex ON Intervals (node, lower);
    CREATE INDEX upperIndex ON Intervals (node, upper);

(Figure 2).  Index entries consist of the index's key columns followed by the
row id, so entries are always unique and an index range scan can answer a
query without touching the heap -- the *index-organised* behaviour the paper
relies on ("the attribute id was included in the indexes", Section 4.3).

When the owning :class:`~repro.engine.database.Database` runs with a
write-ahead log, every DML and DDL statement is announced through the
``log`` callback *before* it is applied, which is all the recovery path
needs: replaying the logical records rebuilds heap and indexes.
"""

from __future__ import annotations

import struct
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .bptree import BPlusTree
from .buffer import BufferPool
from .errors import SchemaError
from .heap import HeapFile
from .serial import INT_MAX, INT_MIN


def _key_getter(column_indexes: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """A function from a row to the tuple of its ``column_indexes`` values."""
    if len(column_indexes) == 1:
        # itemgetter of one column returns the bare value, not a tuple.
        (column,) = column_indexes
        return lambda row: (row[column],)
    if column_indexes:
        return itemgetter(*column_indexes)
    return lambda row: ()


class IndexDef:
    """A named index over a subset of a table's columns."""

    __slots__ = ("name", "columns", "column_indexes", "tree", "_key_of")

    def __init__(
        self,
        name: str,
        columns: tuple[str, ...],
        column_indexes: tuple[int, ...],
        tree: BPlusTree,
    ) -> None:
        self.name = name
        self.columns = columns
        self.column_indexes = column_indexes
        self.tree = tree
        self._key_of = _key_getter(column_indexes)

    def entry_for(self, row: tuple[int, ...], rowid: int) -> tuple[int, ...]:
        """Build the index entry (key columns + rowid) for a row."""
        return self._key_of(row) + (rowid,)

    def sorted_entries(
        self, rows: Sequence[tuple[int, ...]], rowids: Sequence[int]
    ) -> list[tuple[int, ...]]:
        """The entries of ``rows`` stored under ``rowids``, in index order."""
        key_of = self._key_of
        return sorted([key_of(row) + (rowid,) for row, rowid in zip(rows, rowids)])


class Table:
    """A relational table of 64-bit integer columns.

    Rows go in through :meth:`insert_many` -- one logged statement, one
    heap pass, one sorted batch per index -- of which :meth:`insert` is
    the one-row case, or through :meth:`bulk_load` into an empty table;
    they leave through :meth:`delete_many`, of which :meth:`delete` is
    the one-row case.
    Create through :meth:`repro.engine.database.Database.create_table`.
    """

    def __init__(
        self,
        pool: BufferPool,
        name: str,
        columns: Sequence[str],
        log: Optional[Callable[[dict], None]] = None,
    ) -> None:
        if not columns:
            raise SchemaError(f"table {name} needs at least one column")
        if len(set(columns)) != len(columns):
            raise SchemaError(f"table {name} has duplicate column names")
        self.pool = pool
        self.name = name
        self.columns = tuple(columns)
        self._column_pos = {column: i for i, column in enumerate(columns)}
        self.heap = HeapFile(pool, len(columns), name=f"{name}.heap")
        self.indexes: dict[str, IndexDef] = {}
        self._log = log

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_index(self, index_name: str, key_columns: Sequence[str]) -> IndexDef:
        """Add a composite index on ``key_columns`` (plus implicit rowid)."""
        if index_name in self.indexes:
            raise SchemaError(f"index {index_name} already exists")
        missing = [c for c in key_columns if c not in self._column_pos]
        if missing:
            raise SchemaError(f"table {self.name} has no column(s) {missing}")
        if self._log is not None:
            self._log(
                {
                    "t": "create_index",
                    "table": self.name,
                    "index": index_name,
                    "key": list(key_columns),
                }
            )
        column_indexes = tuple(self._column_pos[c] for c in key_columns)
        tree = BPlusTree(
            self.pool,
            arity=len(key_columns) + 1,
            name=f"{self.name}.{index_name}",
        )
        index = IndexDef(index_name, tuple(key_columns), column_indexes, tree)
        self.indexes[index_name] = index
        if self.heap.row_count:
            for rowid, row in self.heap.scan():
                tree.insert(index.entry_for(row, rowid))
        return index

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[int]) -> int:
        """Insert a row, maintaining all indexes; return the row id."""
        return self.insert_many([row])[0]

    def insert_many(self, rows: Sequence[Sequence[int]]) -> list[int]:
        """Insert rows as one statement; return their row ids.

        The table's only insert path.  Every row is checked against the
        schema (:meth:`_checked_rows`) before anything is logged, so a
        rejected statement leaves neither a WAL record nor a row behind.
        Then one ``insert`` record carries all rows, the heap stores them
        in one pass (:meth:`HeapFile.insert_many`, the row ids of a
        per-row loop), and each index takes its entries in one sorted
        :meth:`BPlusTree.insert_many` -- one descent per leaf run instead
        of one per row.
        """
        row_tuples = self._checked_rows(rows)
        if not row_tuples:
            return []
        if self._log is not None:
            self._log(
                {
                    "t": "insert",
                    "table": self.name,
                    "rows": [list(row) for row in row_tuples],
                }
            )
        rowids = self.heap.insert_many(row_tuples)
        for index in self.indexes.values():
            index.tree.insert_many(index.sorted_entries(row_tuples, rowids))
        return rowids

    def delete(self, rowid: int) -> tuple[int, ...]:
        """Delete a row by id, maintaining all indexes; return the old row."""
        return self.delete_many([rowid])[0]

    def delete_many(self, rowids: Sequence[int]) -> list[tuple[int, ...]]:
        """Delete rows by id as one statement; return the old rows.

        The table's only delete path, the mirror of :meth:`insert_many`.
        Every row id must name a distinct live row: the rows are fetched
        (:meth:`HeapFile.fetch_many`) before anything is logged, so a
        rejected statement leaves neither a WAL record nor a change
        behind.  Then one ``delete`` record carries all rows -- replay
        resolves each by content -- the heap kills their slots
        (:meth:`HeapFile.delete_many`, one page request per same-page
        run, as in the fetch) and each index drops their entries.
        """
        rowids = list(rowids)
        if len(set(rowids)) != len(rowids):
            raise SchemaError(f"table {self.name}: a row id repeats in one delete")
        rows = self.heap.fetch_many(rowids)
        if not rows:
            return rows
        if self._log is not None:
            self._log(
                {
                    "t": "delete",
                    "table": self.name,
                    "rows": [list(row) for row in rows],
                }
            )
        self.heap.delete_many(rowids)
        for index in self.indexes.values():
            for entry in index.sorted_entries(rows, rowids):
                index.tree.delete(entry)
        return rows

    def bulk_load(self, rows: Sequence[Sequence[int]], fill: float = 0.9) -> list[int]:
        """Load many rows at once; indexes are built bottom-up.

        Only valid while the table is empty, mirroring index rebuilds /
        initial bulk loads in the paper's experiments.  Rows are checked
        as in :meth:`insert_many`, before anything is logged.
        """
        if self.heap.row_count:
            raise SchemaError(f"bulk_load on non-empty table {self.name}")
        row_tuples = self._checked_rows(rows)
        if self._log is not None:
            self._log(
                {
                    "t": "bulk",
                    "table": self.name,
                    "rows": [list(row) for row in row_tuples],
                    "fill": fill,
                }
            )
        rowids = self.heap.bulk_append(row_tuples)
        for index in self.indexes.values():
            index.tree.bulk_load(index.sorted_entries(row_tuples, rowids), fill=fill)
        return rowids

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Full table scan: yield ``(rowid, row)``."""
        return self.heap.scan()

    def scan_batches(self) -> Iterator[list[tuple[int, tuple[int, ...]]]]:
        """Batched full table scan: one ``[(rowid, row), ...]`` per page.

        The heap analogue of :meth:`index_scan_batches` -- identical
        rows and page requests to :meth:`scan`, delivered as whole page
        slices so bulk consumers (the sweep join's input scan) avoid the
        per-row generator hop.
        """
        return self.heap.scan_batches()

    def fetch(self, rowid: int) -> tuple[int, ...]:
        """Fetch one row by id."""
        return self.heap.fetch(rowid)

    def fetch_many(
        self, rowids: Sequence[int], layout: Optional[struct.Struct] = None
    ) -> list[tuple[int, ...]]:
        """Fetch rows by id, sharing one page access per same-page run.

        The batched "table access by index rowid" step: row ids taken from
        an index scan arrive clustered by heap page, so grouping them cuts
        the Python-level overhead per row without changing which pages are
        requested or in which order.  ``rowids`` may be any sequence of
        ints, such as the row-id column of an index scan
        (``scan_batches_padded(..., column=...)``).  ``layout`` is a struct
        the caller picks to unpack only some columns of each row (see
        :meth:`HeapFile.fetch_many <repro.engine.heap.HeapFile.fetch_many>`).
        """
        return self.heap.fetch_many(rowids, layout)

    def index_scan(
        self,
        index_name: str,
        lo_prefix: Sequence[int] = (),
        hi_prefix: Sequence[int] = (),
    ) -> Iterator[tuple[int, ...]]:
        """Inclusive index range scan; yields (key columns..., rowid) entries.

        This is the engine's ``INDEX RANGE SCAN`` operator (paper Figure 10):
        results come straight from the index leaves with no heap access.
        """
        index = self._index(index_name)
        return index.tree.scan_range(lo_prefix, hi_prefix)

    def index_scan_batches(
        self,
        index_name: str,
        lo_prefix: Sequence[int] = (),
        hi_prefix: Sequence[int] = (),
    ) -> Iterator[list[tuple[int, ...]]]:
        """Batched index range scan: yields whole leaf slices.

        Same results and same I/O trace as :meth:`index_scan`, but entries
        arrive as one list per visited leaf, so consumers avoid the
        per-entry generator hop -- the engine-side half of the batched
        scan pipeline.
        """
        index = self._index(index_name)
        return index.tree.scan_batches(lo_prefix, hi_prefix)

    def index_scan_unbatched(
        self,
        index_name: str,
        lo_prefix: Sequence[int] = (),
        hi_prefix: Sequence[int] = (),
    ) -> Iterator[tuple[int, ...]]:
        """The pre-batching scan operator, kept as a parity reference.

        See :meth:`~repro.engine.bptree.BPlusTree.scan_range_unbatched`;
        exercised only by parity tests and the scan-throughput benchmark.
        """
        index = self._index(index_name)
        return index.tree.scan_range_unbatched(lo_prefix, hi_prefix)

    def index_last_le(
        self, index_name: str, prefix: Sequence[int]
    ) -> Optional[tuple[int, ...]]:
        """Greatest index entry ``<=`` the (high-padded) prefix, or ``None``."""
        return self._index(index_name).tree.last_le(prefix)

    def index(self, index_name: str) -> IndexDef:
        """Look up an index definition (public accessor)."""
        return self._index(index_name)

    @property
    def row_count(self) -> int:
        """Number of live rows."""
        return self.heap.row_count

    def __len__(self) -> int:
        return self.heap.row_count

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _checked_rows(self, rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        """``rows`` as tuples, each of the table's arity and every value a
        signed 64-bit integer (what a page, and so recovery, can store)."""
        row_tuples = [tuple(row) for row in rows]
        arity = len(self.columns)
        for row in row_tuples:
            if len(row) != arity:
                raise SchemaError(
                    f"table {self.name}: row arity {len(row)} != {arity}"
                )
        if row_tuples:
            low = min(chain.from_iterable(row_tuples))
            high = max(chain.from_iterable(row_tuples))
            if low < INT_MIN or high > INT_MAX:
                value = low if low < INT_MIN else high
                raise SchemaError(
                    f"table {self.name}: value {value} is outside the "
                    f"signed 64-bit column range"
                )
        return row_tuples

    def _index(self, index_name: str) -> IndexDef:
        try:
            return self.indexes[index_name]
        except KeyError:
            raise SchemaError(f"table {self.name} has no index {index_name}") from None

    def column_position(self, column: str) -> int:
        """Position of ``column`` in the row tuple."""
        try:
            return self._column_pos[column]
        except KeyError:
            raise SchemaError(f"table {self.name} has no column {column}") from None
