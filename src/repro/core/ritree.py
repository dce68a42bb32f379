"""The Relational Interval Tree over the storage engine.

This is the paper's primary contribution assembled from its parts: the
relational schema of Figure 2, the insertion procedure of Figure 6, and the
two-branch intersection query of Figure 9 executed with the access plan of
Figure 10 (nested loop over the transient node collections, one index range
scan per node entry, no duplicate elimination).

Storage layout (Figure 2, with ``id`` included in the indexes as in
Section 4.3's execution plan)::

    CREATE TABLE Intervals (node int, lower int, upper int, id int);
    CREATE INDEX lowerIndex ON Intervals (node, lower, id);
    CREATE INDEX upperIndex ON Intervals (node, upper, id);

Complexities (Sections 3.3 and 4.4): O(n/b) space, O(log_b n) insert and
delete, O(h * log_b n + r/b) intersection query where ``h`` is the virtual
backbone height -- independent of ``n``.

Every query compiles in one place, :meth:`RITree.plan`, to one scan plan
that the same batched executor runs.  An intersection, and every
predicate or query family of Section 4.5 (:mod:`repro.core.predicates`)
that pins no bound, scans the Figure 10 plan of its candidate range; a
relation that pins one bound scans that bound's index exactly along
the backbone path toward it (O(h) exact scans).  Fetched records are
refined with the predicate's formula.

Section 4.6's infinite and now-relative intervals live in the same
relation, at the two reserved fork nodes of :mod:`repro.core.temporal`:
:meth:`RITree._reserved_nodes` adds them to every plan while such rows
exist, so no query statement changes.
"""

from __future__ import annotations

import math
import struct
from itertools import repeat
from typing import Iterator, Optional, Sequence

from ..engine.database import Database
from ..engine.errors import SchemaError
from ..engine.serial import INT_MAX, INT_MIN
from .access import AccessMethod, IntervalRecord
from .backbone import MAX_ABS_BOUND, VirtualBackbone
from .costmodel import (
    DEFAULT_BUCKETS,
    BoundSummary,
    RITreeCostModel,
    StoreGeometry,
    StoreStatistics,
    index_internal_blocks,
)
from .interval import validate_interval
from .predicates import compile_query, resolve_join_predicate
from .temporal import (
    FORK_INF,
    FORK_NOW,
    UPPER_INF,
    UPPER_NOW,
    check_closures,
    sentinel_node,
)
from .transient import QueryNodes, collect_query_nodes
from .verify import VerificationReport, verify_engine_tree, verify_row

#: A compiled scan range: (lo, hi) bounds padded to full index arity.
ScanRange = tuple[tuple[int, ...], tuple[int, ...]]
#: A compiled query: (upperIndex ranges, lowerIndex ranges).
ScanPlan = tuple[list[ScanRange], list[ScanRange]]
#: Positions of the interval id and the heap row id in both indexes'
#: ``(node, bound, id, rowid)`` entries.
ID_COLUMN = 2
ROWID_COLUMN = 3
#: The ``(lower, upper, id)`` columns of a ``(node, lower, upper, id)``
#: heap row, unpacked straight from its slot: pad bytes skip the node.
RECORD_LAYOUT = struct.Struct("=8x3q")


class RITree(AccessMethod):
    """Relational Interval Tree: dynamic interval index on two B+-trees.

    Queries compile the transient node collections into a *scan plan* (a
    list of index ranges per branch) and execute it through the engine's
    batched scan pipeline: each index leaf arrives as one entry slice, so
    per-result Python work is O(r/b) instead of O(r) while the sequence of
    page requests -- and therefore the logical/physical I/O accounting the
    Section 6 experiments rest on -- is exactly that of the paper's
    range-scan-per-node plan of Figure 10.

    Finite, infinite and now-relative intervals share one write path
    (Section 4.6): :meth:`insert`, :meth:`delete` and
    :meth:`append_batch` take the sentinel uppers :data:`UPPER_INF` and
    :data:`UPPER_NOW` directly and store such a row at its reserved fork
    node.

    Parameters
    ----------
    db:
        Storage engine instance to create the relation in; a private one
        (2 KB blocks, 200-block cache -- the paper's setup) when omitted.
    name:
        Relation name, so several trees can share one database.
    backbone:
        The virtual backbone to register on; a fresh one when omitted.
    now:
        Initial clock value.  The clock only moves forward
        (:meth:`advance_to`), matching transaction/valid-time semantics.

    Example
    -------
    >>> tree = RITree(now=100)
    >>> tree.insert(3, 9, interval_id=1)
    >>> tree.insert(5, 15, interval_id=2)
    >>> sorted(tree.intersection(8, 12))
    [1, 2]
    >>> tree.intersection_count(8, 12)
    2
    >>> tree.insert(50, UPPER_NOW, interval_id=3)  # [50, now]
    >>> tree.insert(80, UPPER_INF, interval_id=4)  # [80, oo)
    >>> sorted(tree.intersection(90, 95))
    [3, 4]
    >>> tree.advance_to(200)
    >>> sorted(tree.intersection(150, 160))
    [3, 4]
    """

    method_name = "RI-tree"

    def __init__(
        self,
        db: Optional[Database] = None,
        name: str = "Intervals",
        backbone: Optional[VirtualBackbone] = None,
        now: int = 0,
    ) -> None:
        super().__init__(db)
        self.backbone = backbone if backbone is not None else VirtualBackbone()
        self.name = name
        # The DDL is one atomic WAL batch: a crash between the table and
        # its indexes can never leave a half-created relation on recovery.
        with self.db.atomic():
            self.table = self.db.create_table(
                name, ["node", "lower", "upper", "id"]
            )
            self.table.create_index("lowerIndex", ["node", "lower", "id"])
            self.table.create_index("upperIndex", ["node", "upper", "id"])
        self._bind_runtime_state()
        self._now = now

    def _bind_runtime_state(self) -> None:
        """Volatile (non-schema) state shared by ``__init__`` and attach."""
        # Direct B+-tree handles for the query executor: the scan plan is
        # executed against the trees, bypassing the per-scan catalog lookup.
        self._lower_tree = self.table.index("lowerIndex").tree
        self._upper_tree = self.table.index("upperIndex").tree
        # Conservative data-space envelope (never shrunk by deletions);
        # used by the before/after candidate ranges.
        self._min_lower: Optional[int] = None
        self._max_upper: Optional[int] = None
        # The Section 4.6 clock and the rows at its reserved fork nodes.
        self._now = 0
        self._infinite_count = 0
        self._now_count = 0
        # Lazily built optimizer statistics (see cost_model()).
        self._cost_model = None

    # ------------------------------------------------------------------
    # durability (attach after recovery, metadata logging)
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, db: Database, name: str = "Intervals") -> "RITree":
        """Bind a store object to an existing relation (post-recovery).

        :meth:`~repro.engine.database.Database.recover` rebuilds tables
        and indexes from the WAL, but the store-level state -- backbone
        parameters, data-space envelope, the temporal clock -- lives in
        the ``meta`` records the mutators log.  ``attach`` restores that
        state from :meth:`~repro.engine.database.Database.store_meta` and
        returns a fully operational store over the recovered relation.
        """
        if not db.has_table(name):
            raise SchemaError(f"cannot attach {cls.__name__}: no table {name}")
        store = cls.__new__(cls)
        store._init_attached(db, name, db.store_meta(name))
        return store

    def _init_attached(
        self, db: Database, name: str, meta: Optional[dict]
    ) -> None:
        AccessMethod.__init__(self, db)
        self.backbone = VirtualBackbone()
        self.name = name
        self.table = db.table(name)
        self._bind_runtime_state()
        if meta:
            self._restore_meta(meta)

    def _restore_meta(self, meta: dict) -> None:
        self.backbone.offset = meta.get("offset")
        self.backbone.left_root = meta.get("left_root", 0)
        self.backbone.right_root = meta.get("right_root", 0)
        self.backbone.minstep = meta.get("minstep")
        self._min_lower = meta.get("min_lower")
        self._max_upper = meta.get("max_upper")
        self._now = meta.get("now", 0)
        self._infinite_count = meta.get("infinite_count", 0)
        self._now_count = meta.get("now_count", 0)

    def _durable_meta(self) -> dict:
        """The store state a WAL ``meta`` record must carry to reattach."""
        return {
            "kind": "ritree",
            "offset": self.backbone.offset,
            "left_root": self.backbone.left_root,
            "right_root": self.backbone.right_root,
            "minstep": self.backbone.minstep,
            "min_lower": self._min_lower,
            "max_upper": self._max_upper,
            "now": self._now,
            "infinite_count": self._infinite_count,
            "now_count": self._now_count,
        }

    def _log_meta(self) -> None:
        self.db.log_meta(self.name, self._durable_meta())

    # ------------------------------------------------------------------
    # the clock (Section 4.6)
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
    # updates (Section 3.3 / Figure 6): finite and sentinel rows share
    # one write path
    # ------------------------------------------------------------------
    def _row(self, lower: int, upper: int, interval_id: int) -> tuple:
        """The heap row of one record, validated before any change.

        A finite record registers on the backbone as in Figure 6; a
        sentinel upper selects its reserved fork node.  The fork node
        is computed arithmetically (no I/O).
        """
        if upper != UPPER_INF and upper != UPPER_NOW:
            return (self.backbone.register(lower, upper), lower, upper, interval_id)
        node = sentinel_node(lower, upper, self._now)
        if self.backbone.offset is None:
            # Sentinel rows bypass Figure 6's registration, but queries
            # still need the offset fixed; anchor it like a first insert.
            self.backbone.offset = lower
        return (node, lower, upper, interval_id)

    def _account(self, rows) -> None:
        """Account stored rows: reserved-row counts and the envelope.

        A now-relative row notes ``(lower, lower)`` and an infinite one
        the :data:`UPPER_INF` sentinel; the candidate extent clamps the
        latter (:meth:`_candidate_extent`).
        """
        low, high = self._min_lower, self._max_upper
        for node, lower, upper, _interval_id in rows:
            if node == FORK_INF:
                self._infinite_count += 1
            elif node == FORK_NOW:
                self._now_count += 1
                upper = lower
            if low is None or lower < low:
                low = lower
            if high is None or upper > high:
                high = upper
        self._min_lower, self._max_upper = low, high

    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Insert ``[lower, upper]`` with ``interval_id`` (O(log_b n) I/Os).

        The sentinel uppers :data:`UPPER_INF` / :data:`UPPER_NOW` store
        ``[lower, oo)`` / ``[lower, now]`` at their reserved fork nodes;
        the position of a now-relative row never needs maintenance as
        the clock ticks.  The relational insert maintains both composite
        indexes.
        """
        row = self._row(lower, upper, interval_id)
        with self.db.atomic():
            self.table.insert(row)
            self._account((row,))
            self._log_meta()

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Delete one copy of the exact record ``(lower, upper, interval_id)``.

        The fork node is recomputed -- it is a structural property of the
        interval, stable under the monotonic root expansion, or the
        reserved node of a sentinel upper -- and the row is located by
        an exact scan of the lowerIndex.
        """
        node = reserved = sentinel_node(lower, upper, self._now)
        if node is None:
            validate_interval(lower, upper)
            if self.backbone.is_empty:
                raise KeyError((lower, upper, interval_id))
            node = self.backbone.fork_node(lower, upper)
        key = (node, lower, interval_id)
        for entry in self.table.index_scan("lowerIndex", key, key):
            rowid = entry[3]
            # The lowerIndex key omits the upper bound; confirm it on the
            # base row so deleting (l, u, id) cannot remove (l, u', id).
            # Every row at a reserved node stores its one sentinel upper.
            if reserved or self.table.fetch(rowid)[2] == upper:
                with self.db.atomic():
                    self.table.delete(rowid)
                    if node == FORK_INF:
                        self._infinite_count -= 1
                    elif node == FORK_NOW:
                        self._now_count -= 1
                    self._log_meta()
                return
        raise KeyError((lower, upper, interval_id))

    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        """Bottom-up load: build every row as :meth:`insert` does (a
        finite record registers its fork node, a sentinel upper takes
        its reserved one), then build the indexes."""
        row = self._row
        rows = [
            row(lower, upper, interval_id) for lower, upper, interval_id in intervals
        ]
        self._account(rows)
        with self.db.atomic():
            self.table.bulk_load(rows)
            self._log_meta()

    def append_batch(self, records, closes=()) -> None:
        """Append ``records`` and apply ``closes`` set at a time: one
        ``db.atomic()`` group commit with one ``insert`` record, at most
        one ``delete`` record and one ``meta`` record.

        The write-optimised ingest path.  Rows are built as in
        :meth:`insert` up front -- under the increasing-ending-time
        regime each arrival lands on the backbone's rightmost descent,
        and a failed registration leaves table and WAL untouched (root
        growth and minstep refinement are conservative) -- and sentinel
        uppers land on their reserved fork nodes.  Every closure is
        checked (:func:`~repro.core.temporal.check_closures`) and its
        open row found before anything changes: a row the batch itself
        opens is closed in place (it is never written open); any other
        is found by one range scan of the ``FORK_NOW`` slice of the
        lowerIndex, and a missing one raises :class:`KeyError`.  Then
        one atomic batch deletes the open rows
        (:meth:`~repro.engine.table.Table.delete_many`), inserts the
        appended and the closed rows (one
        :meth:`~repro.engine.table.Table.insert_many`: one heap pass and
        one sorted leaf merge per index) and logs one ``meta`` record: a
        crash in between cannot lose a record.
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
            self._account(rows)
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
    # queries (Section 4 / Figures 9 and 10)
    # ------------------------------------------------------------------
    def intersection(self, lower: int, upper: int) -> list[int]:
        """Ids of all intervals intersecting ``[lower, upper]``.

        Executes the final two-branch query of Figure 9:

        * for each ``(min, max)`` in the transient ``leftNodes``: an index
          range scan of the upperIndex restricted to ``upper >= lower``;
        * for each node in ``rightNodes``: an index range scan of the
          lowerIndex restricted to ``lower <= upper``.

        The result is duplicate-free by construction (Section 4.2).
        """
        validate_interval(lower, upper)
        results: list[int] = []
        for ids in self._scan(self.plan(lower, upper), ID_COLUMN):
            results.extend(ids)
        return results

    def intersection_count(self, lower: int, upper: int) -> int:
        """Result count of :meth:`intersection` without building id lists.

        Every scan of the Figure 9 plan is pure (no residual predicate
        survives the Section 4.3 transformation), so the count is the sum
        of the scanned leaf-slice lengths: O(1) Python work per leaf, zero
        per result id.  Identical scans, identical I/O trace.
        """
        validate_interval(lower, upper)
        plan = self.plan(lower, upper)
        if plan is None:
            return 0
        upper_ranges, lower_ranges = plan
        count_upper = self._upper_tree.count_range_padded
        total = 0
        for lo, hi in upper_ranges:
            total += count_upper(lo, hi)
        count_lower = self._lower_tree.count_range_padded
        for lo, hi in lower_ranges:
            total += count_lower(lo, hi)
        return total

    def query_nodes(self, lower: int, upper: int) -> QueryNodes:
        """The transient node collections for a query (exposed for tests)."""
        validate_interval(lower, upper)
        return collect_query_nodes(self.backbone, lower, upper)

    # -- plan construction ---------------------------------------------
    def plan(self, lower: int, upper: int, predicate=None) -> Optional[ScanPlan]:
        """Compile one query into per-index scan ranges.

        Returns ``(upperIndex ranges, lowerIndex ranges)`` with bounds
        padded to full index arity once, at plan time, or ``None`` when
        the query scans nothing.  ``predicate`` (a name or predicate
        object, default ``intersects``) is resolved and the query
        replaced by its candidate range.  A relation that pins one
        subject bound (``pinned``) gets one exact ``(node, point)`` scan
        of that bound's index per node on the backbone path toward the
        point: every interval whose bound equals the point has its fork
        node there, so O(h) exact scans find them all however many
        intervals merely intersect the point.  Every other query gets
        the Figure 10 plan, branches 1 and 2 of the Figure 9 query, over
        its candidate range.

        The :meth:`_reserved_nodes` join the lowerIndex branch as
        ``rightNodes`` entries.  Their rows store real lower bounds, so a
        pinned lower bound scans them exactly too; they store no usable
        upper bound, so a pinned upper bound scans them as the
        ``stab(point)`` plan does and the caller's refinement on
        effective bounds decides.
        """
        pinned = None
        if predicate is not None:
            pred = compile_query(predicate)
            candidate = pred.candidates(lower, upper, *self._candidate_extent())
            if candidate is None:
                return None
            lower, upper = candidate
            pinned = pred.pinned
        reserved = self._reserved_nodes(lower, upper)
        backbone = self.backbone
        empty = backbone.is_empty
        if empty and not reserved:
            return None
        # Open bounds that pad a one- or two-column key to full arity.
        arity = self._upper_tree.arity
        low, high = (INT_MIN,) * (arity - 1), (INT_MAX,) * (arity - 1)
        low2, high2 = low[1:], high[1:]
        if pinned is not None:
            path = () if empty else backbone.walk_toward(backbone.shift(lower))
            if pinned == "lower":
                path, reserved = (*path, *reserved), ()
            exact = [((node, lower) + low2, (node, lower) + high2)
                     for node in path]
            stabs = [((node,) + low, (node, lower) + high2)
                     for node in reserved]
            return (exact, stabs) if pinned == "upper" else ([], exact)
        query_nodes = collect_query_nodes(backbone, lower, upper)
        upper_ranges: list[ScanRange] = []
        for node_min, node_max in query_nodes.left:
            if node_min == node_max:
                upper_ranges.append(((node_min, lower) + low2, (node_max,) + high))
            else:
                # Covered node range: the Section 4.3 lemma makes the
                # residual predicate implicit, so the scan is pure.
                upper_ranges.append(((node_min,) + low, (node_max,) + high))
        lower_ranges: list[ScanRange] = [
            ((node,) + low, (node, upper) + high2)
            for node in (*query_nodes.right, *reserved)
        ]
        return upper_ranges, lower_ranges

    def _reserved_nodes(self, lower: int, upper: int) -> tuple[int, ...]:
        """Fork nodes outside the backbone a query over ``[lower, upper]``
        scans as ``rightNodes`` entries (Section 4.6): ``FORK_INF`` while
        infinite rows exist, and ``FORK_NOW`` while now-relative rows
        exist and the query begins no later than the clock."""
        nodes = (FORK_INF,) if self._infinite_count else ()
        if self._now_count and lower <= self._now:
            nodes += (FORK_NOW,)
        return nodes

    def _scan(
        self, plan: Optional[ScanPlan], column: Optional[int] = None
    ) -> Iterator[Sequence]:
        """Execute a scan plan, yielding index-entry batches (leaf slices).

        Both indexes store ``(node, bound, id, rowid)`` entries, so every
        batch exposes the interval id at position 2 (:data:`ID_COLUMN`)
        and the heap rowid at position 3 (:data:`ROWID_COLUMN`) regardless
        of the branch it came from.  ``column`` asks for that column alone
        (see :meth:`~repro.engine.bptree.BPlusTree.scan_batches_padded`).
        """
        if plan is None:
            return
        upper_ranges, lower_ranges = plan
        scan_upper = self._upper_tree.scan_batches_padded
        for lo, hi in upper_ranges:
            yield from scan_upper(lo, hi, column)
        scan_lower = self._lower_tree.scan_batches_padded
        for lo, hi in lower_ranges:
            yield from scan_lower(lo, hi, column)

    # -- reference execution (pre-batching) ----------------------------
    def intersection_per_entry(self, lower: int, upper: int) -> list[int]:
        """The pre-batching reference execution of :meth:`intersection`.

        One index-scan generator per transient node, one generator hop and
        one comparison per returned entry -- the execution the batched
        pipeline replaced.  Retained (and exercised by tests and by
        ``benchmarks/bench_scan_throughput.py``) to keep the pipeline's
        claims falsifiable: identical results, identical logical and
        physical I/O, strictly less Python-level work per id.
        """
        validate_interval(lower, upper)
        return list(self._run_query_per_entry(lower, upper))

    def _run_query_per_entry(self, lower: int, upper: int) -> Iterator[int]:
        plan = self.plan(lower, upper)
        if plan is None:
            return
        upper_ranges, lower_ranges = plan
        scan = self.table.index_scan_unbatched
        # Branch 1: leftNodes JOIN upperIndex (node range, upper >= :lower).
        for lo, hi in upper_ranges:
            for entry in scan("upperIndex", lo, hi):
                yield entry[2]
        # Branch 2: rightNodes JOIN lowerIndex (node equality, lower <= :upper).
        for lo, hi in lower_ranges:
            for entry in scan("lowerIndex", lo, hi):
                yield entry[2]

    def join_pairs(
        self, probes: Sequence[IntervalRecord], *, predicate=None
    ) -> list[tuple[int, int]]:
        """Batched index-nested-loop join probe (overrides the base loop).

        Each intersection probe compiles to the same Figure 10 scan plan
        as a Figure 13 query -- identical page requests, identical I/O
        accounting -- but pairs are emitted per leaf slice in one pass
        instead of going through an intermediate id list per probe.
        ``join_count`` (the count-only analogue) dispatches to the
        batched :meth:`intersection_count`.

        A join ``predicate`` compiles per probe to the Figure 10 plan of
        the *inverse* relation's candidate range (probing asks the
        stored-subject question) and refines whole leaf slices of
        fetched records with the predicate's direct formula -- the
        frames-per-pair economics of the batched pipeline, extended to
        every Allen relation.
        """
        pred = resolve_join_predicate(predicate)
        pairs: list[tuple[int, int]] = []
        extend = pairs.extend
        if pred is None:
            for lower, upper, probe_id in probes:
                validate_interval(lower, upper)
                for ids in self._scan(self.plan(lower, upper), ID_COLUMN):
                    extend(zip(repeat(probe_id), ids))
            return pairs
        inverse = pred.inverse
        holds = pred.holds
        for lower, upper, probe_id in probes:
            validate_interval(lower, upper)
            for batch in self._candidate_batches(inverse, lower, upper):
                extend((probe_id, interval_id)
                       for s, e, interval_id in batch
                       if holds(lower, upper, s, e))
        return pairs

    def join_count(self, probes: Sequence[IntervalRecord], *, predicate=None) -> int:
        """Size of :meth:`join_pairs`; predicate counts refine per slice."""
        pred = resolve_join_predicate(predicate)
        if pred is None:
            return super().join_count(probes)
        inverse = pred.inverse
        holds = pred.holds
        total = 0
        for lower, upper, _probe_id in probes:
            validate_interval(lower, upper)
            for batch in self._candidate_batches(inverse, lower, upper):
                total += sum(1 for s, e, _ in batch
                             if holds(lower, upper, s, e))
        return total

    def _candidate_extent(self) -> tuple[Optional[int], Optional[int]]:
        """``(floor, ceiling)`` for before/after candidate ranges.

        The ceiling is clamped to the legal data space around the offset
        so a sentinel upper bound (Section 4.6's ``UPPER_INF``) cannot
        push the BETWEEN fold of a candidate scan plan across the
        reserved fork-node values.
        """
        floor, ceiling = self._min_lower, self._max_upper
        if ceiling is not None and self.backbone.offset is not None:
            ceiling = min(ceiling, self.backbone.offset + MAX_ABS_BOUND)
        return floor, ceiling

    def _candidate_batches(
        self, inverse, lower: int, upper: int
    ) -> Iterator[list[tuple[int, int, int]]]:
        """Record batches over the inverse relation's candidate range.

        The candidate range provably contains every stored interval
        standing in the inverse relation to ``[lower, upper]`` -- and
        therefore every stored interval the *probe* stands in the direct
        relation to; the caller refines each slice with the direct
        formula.  The probe scans the Figure 10 plan of that range even
        for a relation that pins a bound: it is the plan
        :meth:`~repro.core.costmodel.RITreeCostModel.estimate_join`
        prices.
        """
        candidate = inverse.candidates(lower, upper, *self._candidate_extent())
        if candidate is not None:
            yield from self._record_batches(self.plan(*candidate))

    def _record_batches(
        self, plan: Optional[ScanPlan]
    ) -> Iterator[list[tuple[int, int, int]]]:
        """Leaf-slice batches of ``plan`` materialised to ``(lower, upper, id)``.

        Each index entry carries only one interval bound, so the other
        one is fetched from the base table by rowid -- the classical
        "table access by index rowid" step, batched per leaf slice
        through :meth:`~repro.engine.table.Table.fetch_many` (rowids
        within one slice are page-clustered, so same-page runs share one
        page request).  The heap unpacks each record's three columns
        straight from its slot (:data:`RECORD_LAYOUT`), one tuple per
        record.

        Now-relative records report their *effective* upper bound (the
        current clock); infinite records keep the ``UPPER_INF`` sentinel,
        which behaves as +infinity under every interval predicate.  This
        covers every record-batch consumer at once: predicate and family
        queries and the leaf-slice refinement of predicate joins.  While
        no now-relative row is stored, batches pass through unchanged.
        """
        fetch_many = self.table.fetch_many
        if not self._now_count:
            for rowids in self._scan(plan, ROWID_COLUMN):
                yield fetch_many(rowids, RECORD_LAYOUT)
            return
        now = self._now
        for rowids in self._scan(plan, ROWID_COLUMN):
            yield [(s, now if e == UPPER_NOW else e, interval_id)
                   for s, e, interval_id in fetch_many(rowids, RECORD_LAYOUT)]

    # ------------------------------------------------------------------
    # planning (Section 5)
    # ------------------------------------------------------------------
    def analyze(self, buckets: int = DEFAULT_BUCKETS) -> StoreStatistics:
        """The ANALYZE pass: one statistics snapshot for the cost model.

        Both bound distributions come from the composite indexes, not
        the base table.  Entries are ``(node, bound, id, rowid)``: the
        bound columns re-sort into the two global distributions, and the
        rowid pairs the two bounds of one row back up for the duration
        histogram (ids may repeat).  Now-relative sentinel rows
        contribute their *effective* upper bound, the clock, as in
        ``stored_records()`` and the HINT and router statistics;
        infinite rows keep the sentinel.  The geometry is the realised
        shape of the live B+-trees, read in the same pass.
        """
        now = self._now
        index = self.table.index("lowerIndex").tree
        lower_entries = list(index.scan_all())
        lower_of = {entry[-1]: entry[1] for entry in lower_entries}
        uppers = [
            (now if entry[1] == UPPER_NOW else entry[1], entry[-1])
            for entry in self.table.index("upperIndex").tree.scan_all()
        ]
        durations = sorted(upper - lower_of[rowid] for upper, rowid in uppers)
        summary = BoundSummary(
            sorted(entry[1] for entry in lower_entries),
            sorted(upper for upper, _rowid in uppers),
            buckets,
            sorted_durations=durations,
        )
        count, capacity = summary.count, index.leaf_capacity
        internal = index_internal_blocks(count, capacity, index.internal_capacity)
        geometry = StoreGeometry(
            height=index.height,
            leaf_capacity=capacity,
            leaf_blocks=2.0 * math.ceil(max(count, 1) / max(1, capacity)),
            internal_blocks=2.0 * internal,
            cache_blocks=self.db.pool.capacity,
            block_size=self.db.disk.block_size,
            table_blocks=self.table.heap.page_count,
        )
        return StoreStatistics(summary, self.backbone, geometry)

    def cost_model(self, refresh: bool = False) -> RITreeCostModel:
        """The tree's optimizer cost model, built lazily and cached.

        The model prices one :meth:`analyze` snapshot.  It goes stale
        under updates; pass ``refresh=True`` to re-run the ANALYZE
        pass, the engine equivalent of refreshed optimizer statistics.
        """
        if self._cost_model is None or refresh:
            self._cost_model = RITreeCostModel(self.analyze())
        return self._cost_model

    def stored_records(self) -> list[IntervalRecord]:
        """The stored relation as ``(lower, upper, id)`` records.

        One heap scan, consumed in whole page slices
        (:meth:`~repro.engine.table.Table.scan_batches`); lets a planner
        hand the inner relation to an index-free strategy (the sweep)
        after pricing this index out without paying a per-row generator
        hop for the handoff.  Upper bounds are materialised as in
        :meth:`_record_batches`, so index-free consumers see the
        effective bounds the reserved-node scans enforce.
        """
        if not self._now_count:
            return [(row[1], row[2], row[3])
                    for batch in self.table.scan_batches()
                    for _rowid, row in batch]
        now = self._now
        return [(row[1], now if row[2] == UPPER_NOW else row[2], row[3])
                for batch in self.table.scan_batches()
                for _rowid, row in batch]

    def _query_relation(self, pred, lower: int, upper: int) -> list[int]:
        """Predicates and query families run the plan :meth:`plan`
        compiles for them.

        The plan runs through the batched executor
        (:meth:`_record_batches`, which materialises effective bounds
        first), and each fetched leaf slice is refined with the
        predicate's ``holds`` formula.
        """
        holds = pred.holds
        return [interval_id
                for batch in self._record_batches(self.plan(lower, upper, pred))
                for s, e, interval_id in batch
                if holds(s, e, lower, upper)]

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _verify_into(self, report: VerificationReport) -> None:
        """Structural validators for the engine-backed RI-tree.

        Checks, in order: both composite B+-trees' structural invariants
        (key order, fill factors, leaf chain), index/heap entry counts,
        per-row index membership, Figure 6 fork-node consistency and the
        Section 4.6 reserved rows (sentinel uppers, counts, no open row
        after the clock), and the sanity of the Section 3.4 backbone
        parameters.
        """
        super()._verify_into(report)
        verify_engine_tree(report, self._lower_tree, "lowerIndex")
        verify_engine_tree(report, self._upper_tree, "upperIndex")
        rows = list(self.table.scan())
        report.add_check("index-entry-count")
        for label, tree in (
            ("lowerIndex", self._lower_tree),
            ("upperIndex", self._upper_tree),
        ):
            if len(tree) != len(rows):
                report.add_issue(
                    "index-entry-count",
                    f"{label} holds {len(tree)} entries for "
                    f"{len(rows)} heap rows",
                    {"index": label},
                )
        report.add_check("index-heap-consistency")
        report.add_check("fork-node")
        report.add_check("reserved-rows")
        stored_inf = stored_now = 0
        for rowid, (node, lower, upper, interval_id) in rows:
            if not self._lower_tree.contains((node, lower, interval_id, rowid)):
                report.add_issue(
                    "missing-index-entry",
                    f"heap row {rowid} has no lowerIndex entry",
                    {"index": "lowerIndex", "rowid": rowid},
                )
            if not self._upper_tree.contains((node, upper, interval_id, rowid)):
                report.add_issue(
                    "missing-index-entry",
                    f"heap row {rowid} has no upperIndex entry",
                    {"index": "upperIndex", "rowid": rowid},
                )
            if node == FORK_INF:
                stored_inf += 1
            elif node == FORK_NOW:
                stored_now += 1
            verify_row(
                report,
                self.backbone,
                self._now,
                node,
                lower,
                upper,
                f"row {rowid}",
                {"rowid": rowid},
            )
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
        report.add_check("backbone-params")
        backbone = self.backbone
        if backbone.left_root > 0 or backbone.right_root < 0:
            report.add_issue(
                "backbone-roots",
                f"roots ({backbone.left_root}, {backbone.right_root}) are "
                "not on their sides of the global root",
            )
        for root in (backbone.left_root, backbone.right_root):
            if root and abs(root) & (abs(root) - 1):
                report.add_issue(
                    "backbone-roots",
                    f"root {root} is not a power of two",
                )
        if rows and backbone.offset is None:
            report.add_issue(
                "missing-offset",
                f"{len(rows)} stored rows but the backbone has no offset",
            )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def min_lower(self) -> Optional[int]:
        """Smallest lower bound ever inserted (conservative under deletes)."""
        return self._min_lower

    @property
    def max_upper(self) -> Optional[int]:
        """Largest upper bound ever inserted (conservative under deletes)."""
        return self._max_upper

    @property
    def infinite_count(self) -> int:
        """Number of stored ``[s, oo)`` intervals."""
        return self._infinite_count

    @property
    def now_relative_count(self) -> int:
        """Number of stored ``[s, now]`` intervals."""
        return self._now_count

    @property
    def interval_count(self) -> int:
        """Number of stored intervals."""
        return self.table.row_count

    @property
    def index_entry_count(self) -> int:
        """Two index entries per interval (Figure 12: ``2n``)."""
        return sum(len(index.tree) for index in self.table.indexes.values())

    @property
    def height(self) -> int:
        """Current virtual backbone height (Section 3.5)."""
        return self.backbone.height()
