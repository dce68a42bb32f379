"""Static Window-List after Ramaswamy [Ram 97].

Paper Sections 2.3 and 6.1: "The Window-List technique ... is a static
solution for the interval management problem and employs built-in B+-trees.
The optimal complexity of O(n/b) space and O(log_b n + r/b) I/Os for
stabbing queries is achieved.  Unfortunately, updates do not seem to have
non-trivial upper bounds ..."; experimentally, "queries on Window-Lists
produced twice as many I/O operations than on the dynamic RI-tree".

Reconstruction (a substitution for Ramaswamy's original)
--------------------------------------------------------
The original windowing scheme's details are not reproducible from the
paper; this implementation keeps the three properties the comparison rests
on:

* **bulk-built and static** -- :meth:`bulk_load` sweeps the intervals once;
  subsequent :meth:`insert`/:meth:`delete` calls fall into an unindexed
  overflow relation that every query must scan, reproducing the advertised
  O(n/b) degradation under updates;
* **linear space on plain B+-trees** -- the sweep opens a new window
  whenever the number of interval starts since the previous boundary
  reaches the size of that boundary's snapshot (so total snapshot copies
  are bounded by total starts: O(n) entries overall);
* **logarithmic stabbing queries with a copy overhead** -- a stab locates
  its window in a directory B+-tree, reads the window's snapshot (intervals
  alive at the boundary) and scans the starts inside the window; the
  snapshot copies are the structural reason its I/O sits above the
  RI-tree's.

An intersection query ``[l, u]`` is the classical reduction
``stab(l) + every interval starting in (l, u]``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.access import AccessMethod, IntervalRecord
from ..core.interval import validate_interval
from ..engine.database import Database

#: A window never closes before this many starts, whatever its snapshot size.
MIN_WINDOW_STARTS = 16


class WindowList(AccessMethod):
    """Bulk-built window list over the storage engine.

    Relations:

    * ``windir(start, window_no)`` -- window directory, one row per window;
    * ``snapshots(window_no, upper, lower, id)`` -- intervals alive at each
      window boundary (the redundant copies);
    * ``starts(lower, upper, id)`` -- every interval, keyed by lower bound;
    * ``overflow(lower, upper, id)`` -- post-build updates, unindexed.
    """

    method_name = "Window-List"

    def __init__(self, db: Optional[Database] = None, name: str = "WindowList") -> None:
        super().__init__(db)
        self.windir = self.db.create_table(f"{name}_dir", ["start", "window_no"])
        self.windir.create_index("dirIndex", ["start", "window_no"])
        self.snapshots = self.db.create_table(
            f"{name}_snap", ["window_no", "upper", "lower", "id"]
        )
        self.snapshots.create_index("snapIndex", ["window_no", "upper", "lower", "id"])
        self.starts = self.db.create_table(f"{name}_starts", ["lower", "upper", "id"])
        self.starts.create_index("startIndex", ["lower", "upper", "id"])
        self.overflow = self.db.create_table(
            f"{name}_overflow", ["lower", "upper", "id"]
        )
        self._built = False
        self._window_starts: list[int] = []
        self._overflow_deletes: set[tuple[int, int, int]] = set()
        self._base_count = 0
        self._overflow_count = 0

    # ------------------------------------------------------------------
    # static build
    # ------------------------------------------------------------------
    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        """One sweep over the intervals, sorted by lower bound."""
        if self._built or self._base_count or self._overflow_count:
            raise ValueError(
                "the Window-List is static: bulk_load once, before any update"
            )
        records = sorted(intervals)
        start_rows: list[tuple[int, int, int]] = []
        snapshot_rows: list[tuple[int, int, int, int]] = []
        dir_rows: list[tuple[int, int]] = []

        # Active set: intervals whose window has opened and not yet closed,
        # as (upper, lower, id) -- pruned lazily at each boundary.
        active: list[tuple[int, int, int]] = []
        window_no = -1
        starts_in_window = 0
        snapshot_size = 0
        for lower, upper, interval_id in records:
            validate_interval(lower, upper)
            open_new = window_no < 0 or starts_in_window >= max(
                MIN_WINDOW_STARTS, snapshot_size
            )
            if open_new:
                window_no += 1
                # Prune dead intervals; snapshot the survivors at `lower`.
                # Intervals that *start exactly at* the boundary stay out of
                # the snapshot -- the starts scan covers them -- so the two
                # query branches stay disjoint (no duplicates).
                active = [(e, s, i) for (e, s, i) in active if e >= lower]
                snapshot = [(e, s, i) for (e, s, i) in active if s < lower]
                for e, s, i in snapshot:
                    snapshot_rows.append((window_no, e, s, i))
                snapshot_size = len(snapshot)
                dir_rows.append((lower, window_no))
                self._window_starts.append(lower)
                starts_in_window = 0
            start_rows.append((lower, upper, interval_id))
            active.append((upper, lower, interval_id))
            starts_in_window += 1

        self.starts.bulk_load(start_rows)
        self.snapshots.bulk_load(snapshot_rows)
        self.windir.bulk_load(dir_rows)
        self._base_count = len(records)
        self._built = True

    # ------------------------------------------------------------------
    # updates (the structure's weak point, kept deliberately weak)
    # ------------------------------------------------------------------
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Post-build inserts land in the overflow relation (full-scanned)."""
        validate_interval(lower, upper)
        self.overflow.insert((lower, upper, interval_id))
        self._overflow_count += 1

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Deletions are logical: a tombstone filtered at query time."""
        validate_interval(lower, upper)
        record = (lower, upper, interval_id)
        for rowid, row in self.overflow.scan():
            if row == record:
                self.overflow.delete(rowid)
                self._overflow_count -= 1
                return
        if record in self._overflow_deletes:
            raise KeyError(record)
        # Verify presence in the static part via the starts index.
        key = record
        for _entry in self.starts.index_scan("startIndex", key, key):
            self._overflow_deletes.add(record)
            self._base_count -= 1
            return
        raise KeyError(record)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def stab(self, point: int) -> list[int]:
        """Stabbing query: snapshot of the point's window + starts within."""
        return self.intersection(point, point)

    def intersection(self, lower: int, upper: int) -> list[int]:
        """``stab(lower)`` plus all intervals starting in ``(lower, upper]``."""
        validate_interval(lower, upper)
        results: list[int] = []
        tombstones = self._overflow_deletes
        if self._built and self._window_starts:
            window_no, window_start = self._locate_window(lower)
            if window_no is not None:
                # Alive-at-boundary copies still alive at `lower`; the
                # snapshot scan is pure, so tombstone-free leaf slices are
                # consumed without per-entry tests.
                for batch in self.snapshots.index_scan_batches(
                    "snapIndex", (window_no, lower), (window_no,)
                ):
                    if tombstones:
                        results.extend(
                            interval_id
                            for _w, e, s, interval_id, _rowid in batch
                            if (s, e, interval_id) not in tombstones
                        )
                    else:
                        results.extend(entry[3] for entry in batch)
                scan_from = window_start
            else:
                scan_from = self._window_starts[0]
            # Starts between the boundary and the query's upper bound.
            for batch in self.starts.index_scan_batches(
                "startIndex", (scan_from,), (upper,)
            ):
                if tombstones:
                    results.extend(
                        interval_id
                        for s, e, interval_id, _rowid in batch
                        if e >= lower and (s, e, interval_id) not in tombstones
                    )
                else:
                    results.extend(entry[2] for entry in batch if entry[1] >= lower)
        # Overflow: full scan, the price of updating a static structure.
        for _rowid, (s, e, interval_id) in self.overflow.scan():
            if s <= upper and e >= lower:
                results.append(interval_id)
        return results

    def intersection_count(self, lower: int, upper: int) -> int:
        """Result count of :meth:`intersection` without building id lists.

        Identical scans and therefore identical I/O: tombstone-free
        snapshot slices contribute whole leaf-slice lengths, the starts
        branch keeps its per-entry ``upper >= lower`` residual test.  This
        is the Window-List's cheap join adapter -- the base
        :meth:`~repro.core.access.AccessMethod.join_count` dispatches here
        per probe.
        """
        validate_interval(lower, upper)
        total = 0
        tombstones = self._overflow_deletes
        if self._built and self._window_starts:
            window_no, window_start = self._locate_window(lower)
            if window_no is not None:
                for batch in self.snapshots.index_scan_batches(
                    "snapIndex", (window_no, lower), (window_no,)
                ):
                    if tombstones:
                        total += sum(
                            1
                            for _w, e, s, interval_id, _rowid in batch
                            if (s, e, interval_id) not in tombstones
                        )
                    else:
                        total += len(batch)
                scan_from = window_start
            else:
                scan_from = self._window_starts[0]
            for batch in self.starts.index_scan_batches(
                "startIndex", (scan_from,), (upper,)
            ):
                if tombstones:
                    total += sum(
                        1
                        for s, e, interval_id, _rowid in batch
                        if e >= lower and (s, e, interval_id) not in tombstones
                    )
                else:
                    total += sum(1 for entry in batch if entry[1] >= lower)
        for _rowid, (s, e, _interval_id) in self.overflow.scan():
            if s <= upper and e >= lower:
                total += 1
        return total

    def _locate_window(self, point: int) -> tuple[Optional[int], int]:
        """Directory lookup: the window whose start precedes ``point``.

        A single descending B+-tree probe (O(log_b n)), matching the
        directory search of the original structure.
        """
        entry = self.windir.index_last_le("dirIndex", (point,))
        if entry is None:
            return None, 0
        return entry[1], entry[0]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def interval_count(self) -> int:
        """Live intervals (static part minus tombstones, plus overflow)."""
        return self._base_count + self._overflow_count

    @property
    def index_entry_count(self) -> int:
        """Starts + snapshot copies + directory entries."""
        return (
            len(self.starts.index("startIndex").tree)
            + len(self.snapshots.index("snapIndex").tree)
            + len(self.windir.index("dirIndex").tree)
        )

    @property
    def window_count(self) -> int:
        """Number of windows created by the sweep."""
        return len(self._window_starts)
