"""The interval-store interface shared by every backend in this repo.

Two layers live here:

* :class:`IntervalStore` -- the backend-neutral protocol.  Everything a
  client (the benchmark harness, the join subsystem, the planner, the
  predicate layer) may ask of an interval collection is declared on this
  class: updates, the intersection query family, predicate queries,
  interval joins, planning hooks, and accounting.  It says nothing about
  *where* the intervals live; the simulated storage engine, the sqlite3
  backend of :mod:`repro.sql` and the main-memory
  :class:`~repro.core.hint.HintStore` all implement it, mirroring the
  paper's Section 5 claim that the RI-tree "may be easily implemented on
  top of any relational DBMS".  ``docs/writing-a-backend.md`` walks the
  contract method by method for backend authors; the shared conformance
  suite (``tests/core/test_store_conformance.py``) is its executable
  form.
* :class:`AccessMethod` -- the simulated-engine base.  Every access
  method over :mod:`repro.engine` -- the RI-tree itself and the
  competitors Section 6 measures (Tile Index, IST, Window-List) --
  extends this class, which owns the :class:`~repro.engine.database.
  Database` instance so the harness can swap methods freely and account
  their I/O on identical counters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Optional, Sequence

from ..engine.database import Database
from .interval import validate_interval
from .predicates import compile_query, resolve_join_predicate
from .verify import VerificationReport

#: An interval record handed to interval stores: (lower, upper, id).
IntervalRecord = tuple[int, int, int]


class IntervalStore(ABC):
    """Backend-neutral store of closed integer intervals.

    Subclasses persist ``(lower, upper, id)`` records somewhere -- heap
    tables and B+-trees of the simulated engine, a sqlite3 relation, or
    anything else -- and answer intersection queries over them.  The
    default implementations express every richer operation (counting,
    batching, joins, predicate queries) in terms of the abstract core,
    so a minimal backend is immediately a complete one; backends with a
    cheaper native evaluation override the defaults without changing
    the contract.
    """

    #: Short name used in benchmark output rows.
    method_name: str = "abstract"

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    @abstractmethod
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Register the closed interval ``[lower, upper]`` under ``interval_id``.

        Implementations must reject malformed input through
        :func:`~repro.core.interval.validate_interval` (``lower <=
        upper``, bounds within the engine's domain) *before* touching
        any structure, so a failed insert leaves the store unchanged.
        ``interval_id`` is opaque to the store and need not be unique;
        the same exact record may be stored more than once and queries
        then report it with its multiplicity.

        The sentinel uppers :data:`~repro.core.temporal.UPPER_INF` and
        :data:`~repro.core.temporal.UPPER_NOW` are reserved for temporal
        rows: every registered backend has an ``advance_to`` clock and
        stores ``[lower, oo)`` / ``[lower, now]`` for them, after
        :func:`~repro.core.temporal.sentinel_node` has refused a
        non-integer lower bound, one at or above the sentinels, or a
        now-relative row starting after the clock.  An access method
        without a clock (the competitors of :mod:`repro.methods`) has no
        special case -- the sentinels are merely huge uppers, which it
        rejects as out of domain.
        """

    @abstractmethod
    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Remove one previously inserted copy of the exact record.

        All three fields must match an existing record; when the record
        was inserted more than once, a single copy is removed.  Raises
        :class:`KeyError` (and leaves the store unchanged) when the
        exact record is absent -- deletion is never fuzzy.  A temporal
        row is removed by its sentinel upper, as :meth:`insert` stored
        it, and validated the same way.
        """

    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        """Load many intervals at once.

        The default implementation is an insert loop; backends with a
        bottom-up build or a transactional batch path override it.
        """
        for lower, upper, interval_id in intervals:
            self.insert(lower, upper, interval_id)

    def append_batch(self, records: Sequence[IntervalRecord],
                     closes: Iterable[tuple[int, int, int]] = ()) -> None:
        """The one many-row write: append ``records``, then apply
        ``closes``, whole or not at all.

        After the call the store holds every record, sentinel uppers
        stored as by :meth:`insert`.  ``closes`` holds ``(lower,
        interval_id, upper)`` triples, the shape of
        :attr:`repro.ingest.workload.StreamBatch.closes`: each replaces
        one open row ``[lower, now]`` -- stored before the call or
        appended by it -- with the finite record ``(lower, upper,
        interval_id)``.  Every record (:meth:`_check_record`) and every
        closure (:func:`~repro.core.temporal.check_closures`: a bad
        finite upper, a ``lower`` after the clock, an open row closed
        twice) is checked before the first write; a missing open row
        (:class:`KeyError`, from the store's own :meth:`delete`) undoes
        everything the call wrote.  A store without a clock raises
        :class:`NotImplementedError` for a non-empty ``closes``.

        This default inserts the records row by row, then applies the
        closures through :meth:`_close_or_undo`.  Backends with a
        cheaper batched write path -- one group commit with one
        ``insert`` and at most one ``delete`` record on the disk
        RI-tree, one deferred re-sort per touched partition on the
        main-memory store, one transaction on sqlite -- override it
        without changing observable query results.  Streaming callers
        go through :class:`repro.ingest.ingestor.StreamIngestor`, which
        adds buffering, backpressure and periodic checkpoints on top.
        """
        records = list(records)
        check = self._check_record
        for lower, upper, _interval_id in records:
            check(lower, upper)
        closes = self._check_closes(closes)
        for lower, upper, interval_id in records:
            self.insert(lower, upper, interval_id)
        self._close_or_undo(closes, records)

    def _check_record(self, lower: int, upper: int) -> None:
        """Refuse a record :meth:`insert` would refuse, before any write.

        On a store with a clock (``now``) a sentinel row is checked by
        :func:`~repro.core.temporal.sentinel_node`; every other record
        by :func:`~repro.core.interval.validate_interval`.
        """
        from .temporal import sentinel_node

        now = getattr(self, "now", None)
        if now is None or sentinel_node(lower, upper, now) is None:
            validate_interval(lower, upper)

    def _check_closes(self, closes) -> list[tuple[int, int, int]]:
        """``closes`` checked against the clock; a non-empty batch on a
        store without one raises :class:`NotImplementedError`."""
        from .temporal import check_closures

        closes = list(closes)
        if not closes:
            return closes
        now = getattr(self, "now", None)
        if now is None:
            raise NotImplementedError(
                f"backend {self.method_name!r} has no temporal support "
                f"(append_batch closes)")
        return check_closures(closes, now)

    def _close_or_undo(self, closes, appended) -> None:
        """Apply checked ``closes`` one row at a time, after ``appended``
        was written; on any failure undo the closures made so far and
        the ``appended`` records, then re-raise."""
        if not closes:
            return
        from .temporal import UPPER_NOW

        undo: list[tuple[Callable, tuple]] = [
            (self.delete, record) for record in appended]
        try:
            for lower, interval_id, _upper in closes:
                self.delete(lower, UPPER_NOW, interval_id)
                undo.append((self.insert, (lower, UPPER_NOW, interval_id)))
            for lower, interval_id, upper in closes:
                self.insert(lower, upper, interval_id)
                undo.append((self.delete, (lower, upper, interval_id)))
        except Exception:
            for method, args in reversed(undo):
                method(*args)
            raise

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @abstractmethod
    def intersection(self, lower: int, upper: int) -> list[int]:
        """Ids of all stored intervals intersecting ``[lower, upper]``.

        A stored ``[s, e]`` matches iff ``s <= upper and lower <= e``
        (closed-interval overlap, so touching endpoints count).  The
        result contains one entry per matching stored *record* --
        records inserted twice appear twice -- in unspecified order;
        callers that need determinism sort.  On temporal backends the
        effective upper of a ``now``-relative record is the current
        clock and infinite records match every query window that reaches
        their lower bound.
        """

    def intersection_count(self, lower: int, upper: int) -> int:
        """Number of intervals intersecting ``[lower, upper]``.

        Same scans, same I/O as :meth:`intersection`; backends with a
        batched execution pipeline (or a set-oriented engine) override
        this to aggregate without materialising an id list.  The
        benchmark harness runs its query batches through this entry
        point.
        """
        return len(self.intersection(lower, upper))

    def intersection_many(
        self, queries: Sequence[tuple[int, int]]
    ) -> list[list[int]]:
        """Answer a batch of intersection queries in one call.

        A per-query loop over :meth:`intersection`; exists so batch
        drivers (the bench harness, bulk clients) have a single entry
        point that backends may specialise -- the sqlite backend answers
        the whole batch with one set-at-a-time SQL statement.
        """
        return [self.intersection(lower, upper) for lower, upper in queries]

    def stab(self, point: int) -> list[int]:
        """Stabbing query: intervals containing ``point``."""
        return self.intersection(point, point)

    def query(
        self, lower: int, upper: Optional[int] = None, *,
        predicate="intersects",
    ) -> list[int]:
        """Ids of stored intervals standing in ``predicate`` to the query.

        ``predicate`` is a name or :class:`~repro.core.predicates.
        IntervalPredicate` -- ``"intersects"`` (the default),
        ``"stab"``, one of Allen's thirteen relations, or a compiled
        query family such as :func:`~repro.core.predicates.
        range_duration` -- evaluated with the stored interval as the
        subject: ``query(l, u, predicate="before")`` returns intervals
        that lie *before* ``[l, u]``; omitting ``upper`` makes it a
        point query.  A predicate whose atoms are exactly its candidate
        range's intersection (``intersects``, ``stab``) runs every
        backend's native intersection machinery directly; relational
        predicates and parameterized families go through
        :meth:`_query_relation`, the per-backend compilation hook.  The bounds are validated
        here, once, before that dispatch, so every backend refuses
        reversed or non-integer bounds alike.
        """
        pred = compile_query(predicate)
        if upper is None:
            upper = lower
        validate_interval(lower, upper)
        if not pred.family.residual:
            return self.intersection(*pred.candidates(lower, upper, None, None))
        return self._query_relation(pred, lower, upper)

    def _query_relation(self, pred, lower: int, upper: int) -> list[int]:
        """Compile one Allen-relation predicate to this backend's plan.

        Subclasses override with their native evaluation (scan-plan
        transform on the simulated engine, WHERE-clause rewrite on
        sqlite); this default refines :meth:`stored_records` by the pure
        predicate, which is always correct and never fast.
        """
        records = self.stored_records()
        if records is None:
            raise NotImplementedError(
                f"{type(self).__name__} can neither compile predicate "
                f"{pred.name!r} nor enumerate its records")
        return pred.filter(records, lower, upper)

    # ------------------------------------------------------------------
    # planning (the Section 5 cost model, where a backend provides one)
    # ------------------------------------------------------------------
    def cost_model(self):
        """This store's optimizer cost model, or ``None``.

        Backends that keep optimizer statistics take them in an
        ``analyze()`` method (one :class:`~repro.core.costmodel.
        StoreStatistics` snapshot) and override this so planners -- the
        ``auto`` join strategy, the harness's ``plan`` mode -- can price
        plans without executing them.  The base class has no statistics and returns ``None``,
        which planners treat as "fall back to record-level estimation".
        """
        return None

    def stored_records(self) -> Optional[list[IntervalRecord]]:
        """All stored intervals as ``(lower, upper, id)``, or ``None``.

        Enables plan switches that abandon this index entirely (the
        planner choosing a sweep over a pre-built inner index needs the
        raw inner relation back).  ``None`` -- the base default -- means
        the store cannot enumerate its intervals cheaply and callers
        must keep probing through it.
        """
        return None

    # ------------------------------------------------------------------
    # joins (probe side of the index-nested-loop interval join)
    # ------------------------------------------------------------------
    def join_pairs(
        self, probes: Sequence[IntervalRecord], *, predicate=None
    ) -> list[tuple[int, int]]:
        """``(probe_id, stored_id)`` pairs standing in the join predicate.

        The index-nested-loop interval join: one probe per outer record
        against this store's (inner) relation, with the *probe* as the
        predicate subject (``predicate="before"`` pairs probes with the
        stored intervals they lie before; the default is the overlap
        join).  The default loops :meth:`intersection`; backends with a
        batched pipeline override it -- the RI-tree emits pairs straight
        from leaf slices, the sqlite backend evaluates the whole probe
        relation in one set-at-a-time SQL statement.  Pairs are
        duplicate-free because each probe's result is.

        Predicate probes ask the *stored-subject* question, so the loop
        runs :meth:`query` with the predicate's :attr:`~repro.core.
        predicates.IntervalPredicate.inverse`; stores that can enumerate
        their records refine with the direct formula instead, which also
        pins the boundary conventions of degenerate (point) intervals to
        the oracle's.
        """
        pred = resolve_join_predicate(predicate)
        pairs: list[tuple[int, int]] = []
        if pred is None:
            for lower, upper, probe_id in probes:
                pairs.extend(
                    (probe_id, interval_id)
                    for interval_id in self.intersection(lower, upper)
                )
            return pairs
        records = self.stored_records()
        if records is not None:
            holds = pred.holds
            for lower, upper, probe_id in probes:
                validate_interval(lower, upper)
                pairs.extend(
                    (probe_id, interval_id)
                    for s, e, interval_id in records
                    if holds(lower, upper, s, e)
                )
            return pairs
        inverse = pred.inverse
        for lower, upper, probe_id in probes:
            pairs.extend(
                (probe_id, interval_id)
                for interval_id in self.query(lower, upper,
                                              predicate=inverse)
            )
        return pairs

    def join_count(
        self, probes: Sequence[IntervalRecord], *, predicate=None
    ) -> int:
        """Size of :meth:`join_pairs` without materialising the pair list.

        The default (intersection) join runs the same per-probe
        evaluation through :meth:`intersection_count`, so the I/O trace
        is identical to :meth:`join_pairs` while batched backends skip
        building id lists -- the join analogue of the harness's
        count-only query path.  Predicate joins count through the same
        evaluation as :meth:`join_pairs`.
        """
        pred = resolve_join_predicate(predicate)
        if pred is not None:
            return len(self.join_pairs(probes, predicate=pred))
        return sum(
            self.intersection_count(lower, upper)
            for lower, upper, _probe_id in probes
        )

    # ------------------------------------------------------------------
    # scatter-gather
    # ------------------------------------------------------------------
    def submit(self, method: str, *args, **kwargs) -> Callable[[], Any]:
        """Start ``method(*args, **kwargs)``; the returned callable
        yields its result.

        The hook :class:`~repro.core.router.ShardedStore` fans out
        through: it submits to every shard a call touches before it
        reads any result, so stores that do their work elsewhere can
        work in parallel.  This default runs the call now (an exception
        propagates from here) and returns a callable that hands back
        the result, so in-process stores evaluate eagerly and need not
        implement anything.  :class:`~repro.service.client.RemoteStore`
        overrides it to write the request frame and return the reader
        of the response; a caller must run every callable it was handed
        exactly once, even after another one raised.
        """
        result = getattr(self, method)(*args, **kwargs)
        return lambda: result

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(self) -> VerificationReport:
        """Check this store's structural invariants.

        Returns a :class:`~repro.core.verify.VerificationReport` listing
        every check that ran and every violation found -- backends extend
        :meth:`_verify_into` with their structural validators (B+-tree
        invariants and fork-node consistency on the simulated engine,
        ``PRAGMA integrity_check`` and index presence on sqlite).  The
        report is truthy when the store is intact.
        """
        report = VerificationReport(
            store=getattr(self, "name", type(self).__name__),
            backend=self.method_name,
        )
        self._verify_into(report)
        return report

    def _verify_into(self, report: VerificationReport) -> None:
        """Backend-neutral checks; subclasses extend and call ``super()``."""
        report.add_check("interval-count")
        if self.interval_count < 0:
            report.add_issue(
                "negative-count",
                f"interval_count is {self.interval_count}",
            )
        records = self.stored_records()
        if records is not None:
            report.add_check("record-count")
            if len(records) != self.interval_count:
                report.add_issue(
                    "record-count-mismatch",
                    f"stored_records() returned {len(records)} records "
                    f"but interval_count is {self.interval_count}",
                )
            report.add_check("record-bounds")
            for lower, upper, interval_id in records:
                if lower > upper:
                    report.add_issue(
                        "inverted-interval",
                        f"record ({lower}, {upper}, {interval_id}) has "
                        "lower > upper",
                        {"id": interval_id},
                    )

    # ------------------------------------------------------------------
    # accounting (Figure 12's storage metric and general bookkeeping)
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def interval_count(self) -> int:
        """Number of stored interval records, temporal rows included.

        Counts records (with multiplicity), not distinct ids, and must
        track :meth:`insert`/:meth:`delete` exactly -- the base
        :meth:`_verify_into` cross-checks it against
        :meth:`stored_records` on every ``verify()``.
        """

    @property
    @abstractmethod
    def index_entry_count(self) -> int:
        """Total index entries -- the y-axis of the paper's Figure 12.

        The physical storage metric: the RI-tree stores two entries per
        interval (lowerIndex + upperIndex), the T-index one per covering
        tile, the HINT store one per partition replica.  A backend's
        :attr:`redundancy` is this divided by :attr:`interval_count`.
        """

    @property
    def redundancy(self) -> float:
        """Index entries per stored interval (T-index's problem metric)."""
        if self.interval_count == 0:
            return 0.0
        return self.index_entry_count / self.interval_count


class AccessMethod(IntervalStore):
    """Abstract interval access method over the simulated storage engine.

    Subclasses own one or more tables/indexes inside ``self.db`` and
    implement intersection queries over closed integer intervals; all
    I/O flows through the engine's :class:`~repro.engine.stats.IoStats`
    counters, which is what makes the Section 6 measurements
    comparable across methods.
    """

    def __init__(self, db: Database | None = None) -> None:
        self.db = db if db is not None else Database()
