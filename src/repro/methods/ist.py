"""Interval-Spatial Transformation (IST) of Goh et al. [GLOT 96].

Paper Section 2.3: the IST encodes intervals by space-filling orderings of
their boundary points.  "Aside from quantization aspects, the D-ordering is
equivalent to a composite index on the interval bounds (upper, lower), and
the V-ordering corresponds to an index on (lower, upper). ... The H-ordering
simulates an index on (upper - lower, lower)."

The experimental comparison (Section 6.1) uses the D-order: "For integer
interval bounds, the D-order index is equivalent to a composite index on the
attributes (upper, lower) and therefore has identical performance
characteristics", with the Figure 11 single-statement range query.  Only
the D-order is built here: it is the one ordering Section 6 measures.

The decisive weakness the paper demonstrates (Figure 17): an intersection
query must scan the full index tail on the *primary* attribute -- for the
D-order, every entry with ``upper >= lower_q`` -- so I/O degenerates to
O(n/b) when the query sits far from the favourable end of the data space.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..core.access import AccessMethod, IntervalRecord
from ..core.interval import validate_interval
from ..engine.database import Database


class ISTree(AccessMethod):
    """IST in the D-order: one composite B+-tree index on (upper, lower)."""

    method_name = "IST(D-order)"

    def __init__(
        self, db: Optional[Database] = None, name: str = "ISTIntervals"
    ) -> None:
        super().__init__(db)
        self.table = self.db.create_table(name, ["lower", "upper", "id"])
        self.table.create_index("istIndex", ["upper", "lower", "id"])

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """One index entry per interval -- the IST produces no redundancy."""
        validate_interval(lower, upper)
        self.table.insert((lower, upper, interval_id))

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Locate the entry through the composite index and remove the row."""
        validate_interval(lower, upper)
        key = (upper, lower, interval_id)
        for entry in self.table.index_scan("istIndex", key, key):
            self.table.delete(entry[3])
            return
        raise KeyError((lower, upper, interval_id))

    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        """Bulk load in ordering-clustered sequence (as in the paper)."""
        self.table.bulk_load(intervals)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def intersection(self, lower: int, upper: int) -> list[int]:
        """The Figure 11 query: ``upper >= :lower AND lower <= :upper``.

        An index range scan on ``upper >= :lower``; the residual
        ``lower <= :upper`` filters inside the scan.  Cost grows with the
        number of intervals ending at or after the query -- the
        degeneration of Figure 17.
        """
        validate_interval(lower, upper)
        results: list[int] = []
        for batch in self._intersection_batches(lower, upper):
            results.extend(self._refine(batch, upper))
        return results

    def intersection_count(self, lower: int, upper: int) -> int:
        """Count via the same scan; only the residual filter is per-entry."""
        validate_interval(lower, upper)
        return sum(
            len(self._refine(batch, upper))
            for batch in self._intersection_batches(lower, upper)
        )

    def _intersection_batches(
        self, lower: int, upper: int
    ) -> Iterator[list[tuple[int, ...]]]:
        """The single index range scan of Figure 11, as leaf slices."""
        return self.table.index_scan_batches("istIndex", (lower,), ())

    @staticmethod
    def _refine(batch: list[tuple[int, ...]], upper: int) -> list[int]:
        """Apply the residual ``lower <= :upper`` to one leaf slice of
        ``(upper, lower, id, rowid)`` entries."""
        return [entry[2] for entry in batch if entry[1] <= upper]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def interval_count(self) -> int:
        """Number of stored intervals."""
        return self.table.row_count

    @property
    def index_entry_count(self) -> int:
        """Exactly ``n`` -- "the IST technique produces no redundancy"."""
        return len(self.table.index("istIndex").tree)
