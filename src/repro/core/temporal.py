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
rows the same way: :meth:`TemporalRITree._reserved_nodes` names the
reserved nodes to every plan :meth:`~repro.core.ritree.RITree.plan`
compiles, and they join the exact backbone-path scans.
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


def sentinel_node(lower: int, upper: int, now: int) -> Optional[int]:
    """Classify one written row: its reserved fork node, or ``None``.

    ``None`` means a finite row, which the store validates on its own
    path; an :data:`UPPER_INF` row returns :data:`FORK_INF` and an
    :data:`UPPER_NOW` row :data:`FORK_NOW`.  A sentinel row is refused
    -- before any structure changes -- when its lower bound is not an
    integer (:class:`TypeError`), reaches the sentinels (``lower >=
    UPPER_NOW``, which would store an inverted interval) or, for a
    now-relative row, starts after the clock ``now``
    (:class:`ValueError`).  Every temporal store calls this from
    ``insert``, ``delete`` and ``append_batch``.

    >>> sentinel_node(5, 9, now=0) is None
    True
    >>> sentinel_node(5, UPPER_INF, now=0) == FORK_INF
    True
    >>> sentinel_node(5, UPPER_NOW, now=0)
    Traceback (most recent call last):
    ...
    ValueError: now-relative interval starts at 5, after now=0
    """
    if upper == UPPER_INF:
        node = FORK_INF
    elif upper == UPPER_NOW:
        node = FORK_NOW
    else:
        return None
    if not isinstance(lower, int) or not isinstance(upper, int):
        raise TypeError(
            f"interval bounds must be integers, got ({lower!r}, {upper!r})")
    if lower >= UPPER_NOW:
        raise ValueError(
            f"lower bound {lower} reaches the reserved sentinel uppers")
    if node == FORK_NOW and lower > now:
        raise ValueError(
            f"now-relative interval starts at {lower}, after now={now}")
    return node


def check_closures(closes, now: int) -> list[tuple[int, int, int]]:
    """The ``(lower, interval_id, upper)`` closures of one batch, checked.

    Each closure terminates the open row ``[lower, now]`` at the finite
    ``upper``.  Refused before any store changes: a bad finite upper
    (not an integer, below ``lower`` or a sentinel), a ``lower`` that
    :func:`sentinel_node` refuses for a now-relative row (after the
    clock ``now``, among others) and the same open row closed twice in
    the batch.  Whether each open row exists is the store's to check.

    >>> check_closures([(5, 1, 9)], now=10)
    [(5, 1, 9)]
    >>> check_closures([(5, 1, 9), (5, 1, 12)], now=10)
    Traceback (most recent call last):
    ...
    ValueError: open row (5, 1) is closed twice in one batch
    """
    checked = [(lower, interval_id, upper)
               for lower, interval_id, upper in closes]
    seen = set()
    for lower, interval_id, upper in checked:
        validate_interval(lower, upper)
        if upper in (UPPER_INF, UPPER_NOW):
            raise ValueError(
                f"closure upper must be finite, got the sentinel {upper}")
        sentinel_node(lower, UPPER_NOW, now)
        key = (lower, interval_id)
        if key in seen:
            raise ValueError(f"open row {key} is closed twice in one batch")
        seen.add(key)
    return checked


class TemporalRITree(RITree):
    """RI-tree managing finite, infinite and now-relative intervals.

    The special rows share the one write path of every record:
    :meth:`insert`, :meth:`delete` and :meth:`append_batch` take the
    sentinel uppers :data:`UPPER_INF` and :data:`UPPER_NOW` directly and
    store such a row at its reserved fork node, as Section 4.6's single
    ``Intervals`` relation does.

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
    >>> tree.insert(10, 20, interval_id=1)         # closed history record
    >>> tree.insert(50, UPPER_NOW, interval_id=2)  # [50, now]
    >>> tree.insert(80, UPPER_INF, interval_id=3)  # [80, oo)
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

    # ------------------------------------------------------------------
    # durability (attach after recovery, metadata logging)
    # ------------------------------------------------------------------
    def _init_attached(self, db, name, meta):
        self._now = 0
        self._infinite_count = 0
        self._now_count = 0
        super()._init_attached(db, name, meta)

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
    # updates: finite and sentinel rows share one write path
    # ------------------------------------------------------------------
    def _row(self, lower: int, upper: int, interval_id: int) -> tuple:
        """The heap row of one record, validated before any change.

        A sentinel upper selects its reserved fork node; every other
        record registers on the backbone as in Figure 6.
        """
        node = sentinel_node(lower, upper, self._now)
        if node is None:
            node = self.backbone.register(lower, upper)
        else:
            self._ensure_offset(lower)
        return (node, lower, upper, interval_id)

    def _note_row(self, node: int, lower: int, upper: int) -> None:
        """Account one stored row: reserved-row counts and the envelope."""
        if node == FORK_INF:
            self._infinite_count += 1
        elif node == FORK_NOW:
            self._now_count += 1
            upper = lower
        self._note_bounds(lower, upper)

    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Insert ``[lower, upper]``; the sentinel uppers
        :data:`UPPER_INF` / :data:`UPPER_NOW` store ``[lower, oo)`` /
        ``[lower, now]`` at their reserved fork nodes.

        The position of a now-relative row never needs maintenance as
        the clock ticks -- that is the point of the reserved fork node.
        """
        row = self._row(lower, upper, interval_id)
        with self.db.atomic():
            self.table.insert(row)
            self._note_row(*row[:3])
            self._log_meta()

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Delete one copy of the exact record; a sentinel upper finds
        the row at its reserved fork node by lower bound and id."""
        node = sentinel_node(lower, upper, self._now)
        if node is None:
            super().delete(lower, upper, interval_id)
            return
        with self.db.atomic():
            self._delete_at_node(node, lower, interval_id)
            if node == FORK_INF:
                self._infinite_count -= 1
            else:
                self._now_count -= 1
            self._log_meta()

    def append_batch(self, records, closes=()) -> None:
        """Append ``records`` and apply ``closes`` set at a time: one
        ``db.atomic()`` group commit with one ``insert`` record, at most
        one ``delete`` record and one ``meta`` record.

        Rows are built as in :meth:`insert`, so sentinel uppers land on
        their reserved fork nodes.  Every closure is checked
        (:func:`check_closures`) and its open row found before anything
        changes: a row the batch itself opens is closed in place (it is
        never written open); any other is found by one range scan of the
        ``FORK_NOW`` slice of the lowerIndex, and a missing one raises
        :class:`KeyError`.  Then one atomic batch deletes the open rows
        (:meth:`~repro.engine.table.Table.delete_many`), inserts the
        appended and the closed rows (one
        :meth:`~repro.engine.table.Table.insert_many`) and logs one
        ``meta`` record: a crash in between cannot lose a record.
        """
        row = self._row
        rows = [row(lower, upper, interval_id)
                for lower, upper, interval_id in records]
        uppers = {(lower, interval_id): upper for lower, interval_id, upper
                  in check_closures(closes, self._now)}
        rowids: list[int] = []
        if uppers:
            for position, (node, lower, _upper, interval_id) in enumerate(rows):
                if node == FORK_NOW and (lower, interval_id) in uppers:
                    rows[position] = row(
                        lower, uppers.pop((lower, interval_id)), interval_id)
        if uppers:
            found = self._open_rowids(uppers)
            rowids = list(found.values())
            rows += [row(lower, uppers[lower, interval_id], interval_id)
                     for lower, interval_id in found]
        if not rows:
            return
        with self.db.atomic():
            if rowids:
                self.table.delete_many(rowids)
                self._now_count -= len(rowids)
            self.table.insert_many(rows)
            note = self._note_row
            for node, lower, upper, _interval_id in rows:
                note(node, lower, upper)
            self._log_meta()

    def _open_rowids(self, keys) -> dict[tuple[int, int], int]:
        """Row id of one open row per ``(lower, interval_id)`` key.

        One sorted pass over the ``FORK_NOW`` slice of the lowerIndex
        between the smallest and the largest lower bound; the keys come
        back in index order.  Raises :class:`KeyError` for the first
        key with no open row.
        """
        lowers = [lower for lower, _interval_id in keys]
        found: dict[tuple[int, int], int] = {}
        for batch in self.table.index_scan_batches(
                "lowerIndex", (FORK_NOW, min(lowers)), (FORK_NOW, max(lowers))):
            for _node, lower, interval_id, rowid in batch:
                key = (lower, interval_id)
                if key in keys and key not in found:
                    found[key] = rowid
        if len(found) < len(keys):
            lower, interval_id = min(set(keys) - set(found))
            raise KeyError((lower, UPPER_NOW, interval_id))
        return found

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
    # reserved fork nodes at query time (Section 4.6)
    # ------------------------------------------------------------------
    def _reserved_nodes(self, lower: int, upper: int) -> tuple[int, ...]:
        """``FORK_INF`` while infinite rows exist, and ``FORK_NOW`` while
        now-relative rows exist and the query begins no later than the
        clock."""
        nodes = (FORK_INF,) if self._infinite_count else ()
        if self._now_count and lower <= self._now:
            nodes += (FORK_NOW,)
        return nodes

    def _ensure_offset(self, lower: int) -> None:
        # Special intervals bypass Figure 6's registration, but queries
        # still need the offset fixed; anchor it like a first insertion.
        if self.backbone.offset is None:
            self.backbone.offset = lower
