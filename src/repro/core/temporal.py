"""Temporal extension: the special values ``now`` and ``infinity``.

Paper Section 4.6: valid-time intervals may end at *infinity* (open-ended)
or at *now* (growing with the clock).  Managing them in separate structures
would cost extra (sub)queries per search; the RI-tree instead reserves two
artificial fork-node values:

* ``FORK_INF`` for intervals ending at infinity.  It is always injected
  into the transient ``rightNodes`` list, so the lower bounds of infinite
  intervals are tested against the query's upper bound -- exactly the
  intersection condition for ``[s, oo)``.
* ``FORK_NOW`` for now-relative intervals.  It is injected exactly when the
  query begins in the past (``lower <= now``), because ``[s, now]``
  intersects ``[l, u]`` iff ``s <= u`` (checked by the scan) and ``l <= now``
  (checked by the injection condition).

The paper chooses ``MAXINT`` / ``MAXINT - 1``; this implementation reserves
two values far above any reachable backbone node (bounds are capped at
±2^48, so shifted nodes stay below 2^49 < ``FORK_NOW``).  Crucially, *no
modification of the query statement is needed* -- the reserved nodes ride
along the ordinary rightNodes scan, which is the point of Section 4.6.
The Allen relations that pin one bound (Section 4.5) reach the reserved
rows through the same hooks: the injected nodes join their exact
backbone-path scans.
"""

from __future__ import annotations

from typing import Optional

from ..engine.database import Database
from .interval import validate_interval
from .ritree import RITree
from .verify import VerificationReport

#: Reserved fork node for intervals ending at infinity ("MAXINT").
FORK_INF = 2**50
#: Reserved fork node for now-relative intervals ("MAXINT - 1").
FORK_NOW = 2**50 - 1
#: Raw ``upper`` column value stored for infinite intervals.
UPPER_INF = 2**60
#: Raw ``upper`` column value stored for now-relative intervals.  The true
#: upper bound is the query-time clock; this sentinel never participates in
#: comparisons because the reserved-node scans only constrain ``lower``.
UPPER_NOW = 2**60 - 1


class TemporalRITree(RITree):
    """RI-tree managing finite, infinite and now-relative intervals.

    Parameters
    ----------
    db, name:
        As for :class:`~repro.core.ritree.RITree`.
    now:
        Initial clock value.  The clock only moves forward
        (:meth:`advance_to`), matching transaction/valid-time semantics.

    Example
    -------
    >>> tree = TemporalRITree(now=100)
    >>> tree.insert(10, 20, interval_id=1)        # closed history record
    >>> tree.insert_until_now(50, interval_id=2)  # [50, now]
    >>> tree.insert_infinite(80, interval_id=3)   # [80, oo)
    >>> sorted(tree.intersection(90, 95))
    [2, 3]
    >>> tree.advance_to(200)
    >>> sorted(tree.intersection(150, 160))
    [2, 3]
    """

    method_name = "RI-tree(temporal)"

    def __init__(
        self, db: Optional[Database] = None, name: str = "Intervals", now: int = 0
    ) -> None:
        super().__init__(db, name)
        self._now = now
        self._infinite_count = 0
        self._now_count = 0
        self.add_right_node_hook(self._infinity_node)
        self.add_right_node_hook(self._now_node)

    # ------------------------------------------------------------------
    # durability (attach after recovery, metadata logging)
    # ------------------------------------------------------------------
    def _init_attached(self, db, name, meta):
        self._now = 0
        self._infinite_count = 0
        self._now_count = 0
        super()._init_attached(db, name, meta)
        self.add_right_node_hook(self._infinity_node)
        self.add_right_node_hook(self._now_node)

    def _restore_meta(self, meta: dict) -> None:
        super()._restore_meta(meta)
        self._now = meta.get("now", 0)
        self._infinite_count = meta.get("infinite_count", 0)
        self._now_count = meta.get("now_count", 0)

    def _durable_meta(self) -> dict:
        meta = super()._durable_meta()
        meta.update(
            kind="temporal",
            now=self._now,
            infinite_count=self._infinite_count,
            now_count=self._now_count,
        )
        return meta

    # ------------------------------------------------------------------
    # the clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current clock value used for now-relative semantics."""
        return self._now

    def advance_to(self, now: int) -> None:
        """Move the clock forward; time never runs backwards.

        The tick mutates no relation, but it *is* durable state: the
        effective upper bound of every now-relative interval depends on
        it, so the new clock is logged as a store-metadata record.
        """
        if now < self._now:
            raise ValueError(f"clock moves forward only: {now} < now={self._now}")
        with self.db.atomic():
            self._now = now
            self._log_meta()

    # ------------------------------------------------------------------
    # updates for special intervals
    # ------------------------------------------------------------------
    def insert_infinite(self, lower: int, interval_id: int) -> None:
        """Insert the open-ended interval ``[lower, infinity)``."""
        self._ensure_offset(lower)
        with self.db.atomic():
            self._store_at_node(FORK_INF, lower, UPPER_INF, interval_id)
            self._note_bounds(lower, UPPER_INF)
            self._infinite_count += 1
            self._log_meta()

    def insert_until_now(self, lower: int, interval_id: int) -> None:
        """Insert the now-relative interval ``[lower, now]``.

        The interval's position in the tree never needs maintenance as the
        clock ticks -- that is the point of the reserved fork node.
        """
        if lower > self._now:
            raise ValueError(
                f"now-relative interval starts at {lower}, after now={self._now}"
            )
        self._ensure_offset(lower)
        with self.db.atomic():
            self._store_at_node(FORK_NOW, lower, UPPER_NOW, interval_id)
            self._note_bounds(lower, lower)
            self._now_count += 1
            self._log_meta()

    def delete_infinite(self, lower: int, interval_id: int) -> None:
        """Delete an infinite interval by its lower bound and id."""
        with self.db.atomic():
            self._delete_at_node(FORK_INF, lower, interval_id)
            self._infinite_count -= 1
            self._log_meta()

    def delete_until_now(self, lower: int, interval_id: int) -> None:
        """Delete a now-relative interval by its lower bound and id."""
        with self.db.atomic():
            self._delete_at_node(FORK_NOW, lower, interval_id)
            self._now_count -= 1
            self._log_meta()

    def close_now_interval(self, lower: int, interval_id: int, upper: int) -> None:
        """Terminate ``[lower, now]`` at a fixed ``upper`` (e.g. logical
        deletion in a valid-time table): the record is re-registered as an
        ordinary finite interval.  Delete and re-insert commit as one
        atomic batch -- a crash in between cannot lose the record."""
        validate_interval(lower, upper)
        with self.db.atomic():
            self.delete_until_now(lower, interval_id)
            self.insert(lower, upper, interval_id)

    def append_batch(self, intervals) -> None:
        """Streaming append with sentinel rows folded into the batch.

        As :meth:`RITree.append_batch` -- one ``db.atomic()`` group
        commit, one ``_log_meta()`` per batch -- with the sentinel
        uppers :data:`UPPER_INF` / :data:`UPPER_NOW` stored as reserved
        fork-node rows instead of going through the per-row temporal
        entry points (which would each log their own meta record).
        Validation runs before any row is staged, so a rejected record
        leaves the store untouched.
        """
        rows = []
        inf_delta = now_delta = 0
        for lower, upper, interval_id in intervals:
            if upper == UPPER_INF:
                self._ensure_offset(lower)
                rows.append((FORK_INF, lower, UPPER_INF, interval_id))
                inf_delta += 1
            elif upper == UPPER_NOW:
                if lower > self._now:
                    raise ValueError(
                        f"now-relative interval starts at {lower}, after "
                        f"now={self._now}"
                    )
                self._ensure_offset(lower)
                rows.append((FORK_NOW, lower, UPPER_NOW, interval_id))
                now_delta += 1
            else:
                node = self.backbone.register(lower, upper)
                rows.append((node, lower, upper, interval_id))
        if not rows:
            return
        with self.db.atomic():
            self.table.insert_many(rows)
            for node, lower, upper, _interval_id in rows:
                if node == FORK_INF:
                    self._note_bounds(lower, UPPER_INF)
                elif node == FORK_NOW:
                    self._note_bounds(lower, lower)
                else:
                    self._note_bounds(lower, upper)
            self._infinite_count += inf_delta
            self._now_count += now_delta
            self._log_meta()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def infinite_count(self) -> int:
        """Number of stored ``[s, oo)`` intervals."""
        return self._infinite_count

    @property
    def now_relative_count(self) -> int:
        """Number of stored ``[s, now]`` intervals."""
        return self._now_count

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _verify_into(self, report: VerificationReport) -> None:
        """As in :class:`RITree`, plus the Section 4.6 reserved rows."""
        super()._verify_into(report)
        report.add_check("reserved-rows")
        stored_inf = stored_now = 0
        for _rowid, (node, _lower, _upper, _iid) in self.table.scan():
            if node == FORK_INF:
                stored_inf += 1
            elif node == FORK_NOW:
                stored_now += 1
        if stored_inf != self._infinite_count:
            report.add_issue(
                "reserved-count-mismatch",
                f"{stored_inf} rows at FORK_INF but infinite_count is "
                f"{self._infinite_count}",
            )
        if stored_now != self._now_count:
            report.add_issue(
                "reserved-count-mismatch",
                f"{stored_now} rows at FORK_NOW but now_relative_count is "
                f"{self._now_count}",
            )

    def _verify_row(self, report, rowid, node, lower, upper, interval_id):
        if node == FORK_INF:
            if upper != UPPER_INF:
                report.add_issue(
                    "reserved-row-upper",
                    f"row {rowid} at FORK_INF stores upper {upper}, "
                    f"expected the UPPER_INF sentinel",
                    {"rowid": rowid},
                )
            return
        if node == FORK_NOW:
            if upper != UPPER_NOW:
                report.add_issue(
                    "reserved-row-upper",
                    f"row {rowid} at FORK_NOW stores upper {upper}, "
                    f"expected the UPPER_NOW sentinel",
                    {"rowid": rowid},
                )
            if lower > self._now:
                report.add_issue(
                    "now-row-after-clock",
                    f"now-relative row {rowid} starts at {lower}, after "
                    f"now={self._now}",
                    {"rowid": rowid},
                )
            return
        if upper in (UPPER_INF, UPPER_NOW):
            report.add_issue(
                "sentinel-on-regular-node",
                f"row {rowid} at ordinary node {node} stores a reserved "
                f"sentinel upper bound",
                {"rowid": rowid},
            )
            return
        super()._verify_row(report, rowid, node, lower, upper, interval_id)

    # ------------------------------------------------------------------
    # record materialisation
    # ------------------------------------------------------------------
    def _record_batches(self, plan):
        """As in :class:`RITree`, with sentinel uppers materialised.

        Now-relative records report their *effective* upper bound (the
        current clock); infinite records keep the ``UPPER_INF`` sentinel,
        which behaves as +infinity under every interval predicate.
        Covers every record-batch consumer at once: predicate and family
        queries (``query(..., predicate=...)``) and the leaf-slice
        refinement of predicate joins (``join_pairs(..., predicate=...)``).
        """
        now = self._now
        for batch in super()._record_batches(plan):
            yield [
                (s, now if e == UPPER_NOW else e, interval_id)
                for s, e, interval_id in batch
            ]

    def stored_records(self):
        """As in :class:`RITree`, with sentinel uppers materialised.

        Same convention as :meth:`_record_batches`, so index-free
        consumers of the enumerated relation (the planner's sweep
        dispatch) see the effective bounds the reserved-node scans
        enforce.
        """
        return [
            (s, self._now if e == UPPER_NOW else e, interval_id)
            for s, e, interval_id in super().stored_records()
        ]

    # ------------------------------------------------------------------
    # query-time hooks (Section 4.6)
    # ------------------------------------------------------------------
    def _infinity_node(self, lower: int, upper: int) -> Optional[int]:
        if self._infinite_count == 0:
            return None
        return FORK_INF

    def _now_node(self, lower: int, upper: int) -> Optional[int]:
        if self._now_count == 0 or lower > self._now:
            return None
        return FORK_NOW

    def _ensure_offset(self, lower: int) -> None:
        # Special intervals bypass Figure 6's registration, but queries
        # still need the offset fixed; anchor it like a first insertion.
        if self.backbone.offset is None:
            self.backbone.offset = lower
