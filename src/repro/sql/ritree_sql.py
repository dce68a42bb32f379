"""The RI-tree on a real SQL engine (paper Section 5).

"The Relational Interval Tree may be easily implemented on top of any
relational DBMS featuring a procedural query language."  This module proves
the claim on stdlib :mod:`sqlite3`:

* the relation is Figure 2's; its two indexes keep Figure 2's key
  prefixes and carry ``id`` (Section 4.3) and the other bound, so every
  predicate refinement is answered inside the index
  (:data:`repro.sql.schema.INDEX_COLUMNS`);
* insertion executes the single SQL statement of Figure 5 after the
  arithmetic-only fork computation of Figure 6;
* an intersection query fills the two transient (TEMP) tables and runs the
  ``UNION ALL`` statement of Figure 9, its ``leftNodes`` branch split by
  row shape so sqlite seeks ``(node, upper)`` for single left nodes as
  the Figure 10 plan does (:func:`repro.sql.schema.figure9_sql`);
* the O(1) parameter set persists in a data-dictionary table and survives
  re-opening the database;
* optionally, an updatable *view* with an ``INSTEAD OF`` trigger and a
  user-defined ``fork_node`` function wraps the whole maintenance machinery
  behind plain ``INSERT`` statements -- the object-relational encapsulation
  the paper describes for Oracle8i's extensible indexing framework.

Beyond the single-query statements, the class implements the full
backend-neutral :class:`~repro.core.access.IntervalStore` contract, so
every client of the simulated-engine RI-tree -- the join subsystem, the
``auto`` planner, the predicate layer, the benchmark harness -- runs
unchanged on sqlite:

* ``intersection_many`` and the interval-join entry points
  (``join_pairs`` / ``join_count``) evaluate *set-at-a-time*: the probe
  relation is loaded into a TEMP table once per batch, with multi-row
  ``INSERT`` statements, and joined against the Figure 9 form in ONE
  statement, so sqlite's own optimizer drives the nested-loop plan over
  the whole batch;
* ``analyze`` takes the optimizer statistics (NTILE histograms,
  page-count geometry, memory residency) that ``cost_model`` prices, so
  the ``auto`` join strategy plans here exactly as on the simulated
  engine;
* :meth:`query` compiles the shared interval predicates (``intersects``,
  ``stab``, Allen's thirteen relations) and query families to a
  WHERE-clause rewrite of the Figure 9 statement over the predicate's
  candidate range.

One compiler builds each single-query statement with its binds
(``SQLRITree._statement``), another each probe-batch statement
(``SQLRITree._batch_statement``).  A query runs the statement, a count
wraps it in ``COUNT(*)`` and :meth:`SQLRITree.explain_query` /
:meth:`SQLRITree.explain_join` prefix ``EXPLAIN QUERY PLAN``, so an
explained plan is always the plan that runs.

The ``now``/``infinity`` handling of Section 4.6 rides along: reserved fork
node values are injected into ``rightNodes`` at query time, with *no
modification of the SQL statement*.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Optional, Sequence

from ..core.access import IntervalRecord, IntervalStore
from ..core.backbone import VirtualBackbone
from ..core.costmodel import (
    DEFAULT_BUCKETS,
    BoundSummary,
    RITreeCostModel,
    StoreStatistics,
    analytic_geometry,
)
from ..core.interval import validate_interval
from ..core.predicates import PREDICATES, compile_query, resolve_join_predicate
from ..core.temporal import (
    FORK_INF,
    FORK_NOW,
    UPPER_NOW,
    check_closures,
    sentinel_node,
)
from ..core.transient import collect_query_nodes
from ..core.verify import VerificationReport, verify_row
from ..engine.retry import RetryPolicy
from . import schema

_PARAM_KEYS = ("offset", "left_root", "right_root", "minstep")
#: Sentinel stored for "no value yet" parameters in the data dictionary.
_NULL = None

#: The batch transient tables one fill cycle populates (and must clear).
_BATCH_TABLES = ("batchProbes", "batchLeftNodes", "batchRightNodes")

#: Rows per multi-row ``INSERT`` of a transient-table fill (``_insert_rows``).
_INSERT_CHUNK = 100

#: The predicate ``intersection`` and ``intersection_count`` compile.
_INTERSECTS = PREDICATES["intersects"]
#: Wrappers of a compiled statement: its count (same plan, aggregated
#: in-engine) and its plan.
_COUNT = "SELECT COUNT(*) FROM ({})"
_EXPLAIN = "EXPLAIN QUERY PLAN {}"


def sqlite_transient_classify(exc: BaseException) -> bool:
    """Retry test for sqlite: ``busy`` / ``locked`` operational errors.

    The sqlite analogue of the engine's
    :func:`~repro.engine.retry.default_classify` -- contention errors are
    transient (another connection holds the lock and will release it);
    everything else propagates untouched.
    """
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    text = str(exc).lower()
    return "locked" in text or "busy" in text


class SQLRITree(IntervalStore):
    """RI-tree over a DB-API connection (tested on sqlite3).

    Parameters
    ----------
    connection:
        An open sqlite3 connection; ``:memory:`` when omitted.
    name:
        Relation name; several trees may share a connection.
    attach:
        When true, attach to an existing relation of this name (re-opening a
        persistent database): the schema must exist and the parameters are
        loaded from the data dictionary instead of being created.

    Example
    -------
    >>> tree = SQLRITree()
    >>> tree.insert(3, 9, interval_id=1)
    >>> tree.insert(5, 15, interval_id=2)
    >>> sorted(tree.intersection(8, 12))
    [1, 2]
    >>> tree.intersection_count(8, 12)
    2
    >>> sorted(tree.join_pairs([(4, 6, 77)]))
    [(77, 1), (77, 2)]
    """

    method_name = "SQL-RI-tree"

    def __init__(
        self,
        connection: Optional[sqlite3.Connection] = None,
        name: str = "Intervals",
        attach: bool = False,
        now: int = 0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.conn = (
            connection if connection is not None else sqlite3.connect(":memory:")
        )
        self.name = name
        self.backbone = VirtualBackbone()
        self.retry = retry if retry is not None else RetryPolicy()
        self._now = now
        self._has_infinite = False
        self._has_now = False
        #: The before/after envelope (:meth:`_candidate_extent`), widened
        #: by :meth:`_row`; deletes leave it wide, a superset of the truth.
        self._floor: Optional[int] = None
        self._ceiling: Optional[int] = None
        #: Last persisted parameter tuple (the dirty flag: ``_save_params``
        #: writes the dictionary only when this snapshot goes stale).
        self._persisted: Optional[tuple] = None
        self._cost_model = None
        if attach:
            self._load_params()
            self._floor, self._ceiling = self.conn.execute(
                f'SELECT MIN("lower"), '
                f'MAX(CASE WHEN "node" IN ({FORK_INF}, {FORK_NOW}) '
                f'THEN "lower" ELSE "upper" END) FROM {self.name}'
            ).fetchone()
        else:
            for statement in schema.create_interval_table(name):
                self.conn.execute(statement)
            for statement in schema.create_params_table(name):
                self.conn.execute(statement)
            self._save_params()
        for statement in schema.create_transient_tables():
            self.conn.execute(statement)
        for statement in schema.create_batch_transient_tables():
            self.conn.execute(statement)
        self._register_udf()
        # Leave the connection at a transaction boundary: the initial
        # dictionary write opened an implicit transaction that a later
        # cycle's rollback must not be able to revert.
        self.conn.commit()

    # ------------------------------------------------------------------
    # data dictionary (Section 5)
    # ------------------------------------------------------------------
    def _param_values(self) -> tuple:
        return (
            self.backbone.offset,
            self.backbone.left_root,
            self.backbone.right_root,
            self.backbone.minstep,
            int(self._has_infinite),
            int(self._has_now),
        )

    def _save_params(self) -> None:
        """Persist the O(1) parameter set -- only when it changed.

        Insertions rarely move the backbone parameters (the roots double
        logarithmically, ``minstep`` only ever shrinks), so writing the
        dictionary per row would be almost-always-wasted I/O; the dirty
        check makes parameter persistence O(changes), not O(rows).
        """
        values = self._param_values()
        if values == self._persisted:
            return
        keys = _PARAM_KEYS + ("has_infinite", "has_now")
        self.conn.executemany(
            f'INSERT OR REPLACE INTO {self.name}_params ("key", "value") '
            f"VALUES (?, ?)",
            list(zip(keys, values)),
        )
        self._persisted = values

    def _load_params(self) -> None:
        rows = dict(self.conn.execute(f'SELECT "key", "value" FROM {self.name}_params'))
        if not rows:
            raise ValueError(f"no persisted parameters for RI-tree {self.name!r}")
        self.backbone.offset = rows.get("offset")
        self.backbone.left_root = rows.get("left_root") or 0
        self.backbone.right_root = rows.get("right_root") or 0
        self.backbone.minstep = rows.get("minstep")
        self._has_infinite = bool(rows.get("has_infinite"))
        self._has_now = bool(rows.get("has_now"))
        self._persisted = self._param_values()

    # ------------------------------------------------------------------
    # updates (Figures 5 and 6)
    # ------------------------------------------------------------------
    def _row(self, lower: int, upper: int, interval_id: int) -> dict:
        """The bind row of one record, validated before any change.

        A sentinel upper selects its reserved fork node (Section 4.6)
        and raises the matching reserved-row flag; every other record
        registers on the backbone as in Figure 6.  The row widens the
        before/after envelope (:meth:`_candidate_extent`) by its lower
        bound and by its upper bound, or its lower for a reserved row.
        """
        node = sentinel_node(lower, upper, self._now)
        high = upper
        if node is None:
            node = self.backbone.register(lower, upper)
        else:
            if self.backbone.offset is None:
                self.backbone.offset = lower
            if node == FORK_INF:
                self._has_infinite = True
            else:
                self._has_now = True
            high = lower
        if self._floor is None or lower < self._floor:
            self._floor = lower
        if self._ceiling is None or high > self._ceiling:
            self._ceiling = high
        return {"node": node, "lower": lower, "upper": upper, "id": interval_id}

    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Fork computation (no I/O) + the single INSERT of Figure 5;
        a sentinel upper stores ``[lower, oo)`` / ``[lower, now]``."""
        self.conn.execute(schema.INSERT_SQL.format(name=self.name),
                          self._row(lower, upper, interval_id))
        self._save_params()

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Recompute the fork, delete with one statement."""
        node = sentinel_node(lower, upper, self._now)
        if node is None:
            validate_interval(lower, upper)
            if self.backbone.is_empty:
                raise KeyError((lower, upper, interval_id))
            node = self.backbone.fork_node(lower, upper)
        cursor = self.conn.execute(
            schema.DELETE_SQL.format(name=self.name),
            {"node": node, "lower": lower, "upper": upper, "id": interval_id},
        )
        if cursor.rowcount != 1:
            raise KeyError((lower, upper, interval_id))

    def append_batch(self, records: Iterable[IntervalRecord],
                     closes=()) -> None:
        """Append ``records`` and apply ``closes`` in one transaction.

        One ``executemany`` inserts the records, one deletes the open
        rows the closures name (rows the batch itself opens included)
        and one inserts the closed rows, with at most one
        parameter-dictionary write per batch, valid on a non-empty
        relation too.  Sentinel uppers fold into the same statement as
        reserved fork-node rows (Section 4.6), so a mixed batch commits
        atomically.  Every record and closure
        (:func:`~repro.core.temporal.check_closures`) is checked before
        the statements run; an open row the delete misses raises
        :class:`KeyError` and rolls the whole batch back.  A refused
        batch leaves the backbone parameters as the dictionary holds
        them.  A ``busy`` / ``locked`` failure rolls the transaction
        back and retries the whole batch under the bounded backoff
        policy.
        """
        row = self._row
        try:
            rows = [row(lower, upper, interval_id)
                    for lower, upper, interval_id in records]
            checked = check_closures(closes, self._now)
            closed = [row(lower, upper, interval_id)
                      for lower, interval_id, upper in checked]
        except Exception:
            self._load_params()
            raise
        if not rows and not closed:
            return
        open_rows = [{"node": FORK_NOW, "lower": lower, "upper": UPPER_NOW,
                      "id": interval_id}
                     for lower, interval_id, _upper in checked]
        insert = schema.INSERT_SQL.format(name=self.name)

        def body() -> None:
            self.conn.executemany(insert, rows)
            if open_rows:
                cursor = self.conn.executemany(
                    schema.DELETE_SQL.format(name=self.name), open_rows)
                if cursor.rowcount != len(open_rows):
                    raise KeyError(
                        f"{len(open_rows) - cursor.rowcount} of "
                        f"{len(open_rows)} closures have no open row")
                self.conn.executemany(insert, closed)
            self._save_params()

        self._transact(body)

    bulk_load = append_batch

    def _transact(self, body):
        """Run ``body`` in one transaction, retrying ``busy``/``locked``.

        On any failure the transaction rolls back, so the parameter
        dirty-flag snapshot must not claim the dictionary writes stuck:
        a retry resets it, forcing the next :meth:`_save_params` to
        re-persist, and a final failure reloads the parameters the
        dictionary holds.  Pending single-statement work (``insert`` leaves its implicit
        transaction open) is committed first, so the rollback is scoped
        to this transaction alone.
        """

        def attempt():
            self.conn.commit()
            with self.conn:
                return body()

        def rolled_back(_exc: BaseException) -> None:
            self._persisted = None

        try:
            return self.retry.call(
                attempt, classify=sqlite_transient_classify, on_retry=rolled_back
            )
        except BaseException:
            self._load_params()
            raise

    # ------------------------------------------------------------------
    # temporal records (Section 4.6)
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """The clock for now-relative semantics."""
        return self._now

    def advance_to(self, now: int) -> None:
        """Move the clock forward."""
        if now < self._now:
            raise ValueError("clock moves forward only")
        self._now = now

    # ------------------------------------------------------------------
    # queries (Figures 8 and 9): one statement compiler
    # ------------------------------------------------------------------
    def _statement(self, pred, lower: int, upper: int) -> Optional[tuple[str, dict]]:
        """Compile one query to its Figure 9 statement and binds.

        ``pred`` is ``intersects``, ``stab``, an Allen relation or a
        compiled query family.  The transient tables are filled for the
        predicate's *candidate range* (bound as ``:clower`` /
        ``:cupper``) and the predicate's defining endpoint formula,
        over the query bounds ``:lower`` / ``:upper``, is appended to
        every branch -- the sqlite compilation of the shared predicate
        layer of :mod:`repro.core.predicates`.  ``intersects`` and
        ``stab`` have exact candidates and no formula, so theirs is the
        plain Figure 9 statement.  Family parameters (``params``, e.g.
        the ``:dmin``/``:dmax`` duration band of ``range_duration``)
        merge into the bind set.  Reserved Section
        4.6 rows ride along ``rightNodes`` and refine with their
        *effective* bounds: the formula reads the stored upper through
        :data:`repro.sql.schema.EFFECTIVE_UPPER` (now-relative rows
        against the clock, infinite rows via the ``UPPER_INF``
        sentinel), exactly as the simulated engine materialises them.

        Returns ``None`` when the answer is provably empty -- no
        candidate range, or empty transient collections (an empty
        backbone with no reserved rows) -- and then fills nothing.
        """
        validate_interval(lower, upper)
        floor = ceiling = None
        if pred.needs_extent:
            floor, ceiling = self._candidate_extent()
        candidate = pred.candidates(lower, upper, floor, ceiling)
        if candidate is None:
            return None
        clower, cupper = candidate
        left, right = self._transient_rows(clower, cupper)
        if not left and not right:
            return None
        self._write_transient(left, right)
        refine = (pred.sql_refine or "").replace('i."upper"', schema.EFFECTIVE_UPPER)
        # A pinned lower bound is a bare equality on i."lower", which the
        # optimizer would chase into an AUTOMATIC index behind the fold
        # branch's node range; unary + keeps it a residual filter there.
        fold_refine = None
        if pred.pinned == "lower":
            fold_refine = refine.replace('i."lower"', '+i."lower"')
        statement = schema.figure9_sql(
            self.name,
            batch=False,
            lower=":clower",
            upper=":cupper",
            refine=refine,
            fold_refine=fold_refine,
        )
        binds = {
            "lower": lower,
            "upper": upper,
            "clower": clower,
            "cupper": cupper,
            "now": self._now,
            **dict(pred.params),
        }
        return statement, binds

    def _run(self, pred, lower: int, upper: int, wrap: str = "{}"):
        """Execute the compiled statement inside ``wrap``; ``None`` when
        :meth:`_statement` proves the answer empty."""
        compiled = self._statement(pred, lower, upper)
        if compiled is None:
            return None
        statement, binds = compiled
        return self.conn.execute(wrap.format(statement), binds)

    def intersection(self, lower: int, upper: int) -> list[int]:
        """Fill the transient tables, run the Figure 9 statement.

        When the transient collections are provably empty -- an empty
        backbone with no reserved fork rows -- the result is ``[]``
        without any transient-table round-trip, not even the ``DELETE``
        statements.
        """
        cursor = self._run(_INTERSECTS, lower, upper)
        return [] if cursor is None else [row[0] for row in cursor]

    def intersection_count(self, lower: int, upper: int) -> int:
        """Result count of :meth:`intersection`, aggregated in-engine:
        the same statement wrapped in ``COUNT(*)``."""
        cursor = self._run(_INTERSECTS, lower, upper, _COUNT)
        return 0 if cursor is None else cursor.fetchone()[0]

    def _query_relation(self, pred, lower: int, upper: int) -> list[int]:
        """Predicates and families as ONE rewritten Figure 9 statement
        (:meth:`_statement`)."""
        cursor = self._run(pred, lower, upper)
        return [] if cursor is None else [row[0] for row in cursor]

    def explain_query(
        self, lower: int, upper: int, predicate="intersects"
    ) -> list[str]:
        """The engine's plan for one query statement (cf. the paper's
        Figure 10).

        ``EXPLAIN QUERY PLAN`` over the statement and binds
        :meth:`query` runs, from the same compiler.  An invalid interval
        raises ``ValueError``; an empty candidate range or empty
        transient collections run no statement and explain as ``[]``.
        """
        cursor = self._run(compile_query(predicate), lower, upper, _EXPLAIN)
        return [] if cursor is None else [row[-1] for row in cursor]

    def intersection_preliminary(self, lower: int, upper: int) -> list[int]:
        """The unsimplified three-branch OR query of Figure 8.

        Kept for the query-form ablation benchmark; results are identical
        to :meth:`intersection`.
        """
        validate_interval(lower, upper)
        if self.backbone.is_empty:
            return []
        # Unlike the final form, the BETWEEN branch lives in the SQL
        # itself: drop the Section 4.3 fold row, and run the query even
        # with empty transient tables.
        left, right = self._transient_rows(lower, upper)
        self._write_transient(left[:-1], right)
        cursor = self.conn.execute(
            schema.PRELIMINARY_INTERSECTION_SQL.format(name=self.name),
            {
                "lower": lower,
                "upper": upper,
                "lowshift": self.backbone.shift(lower),
                "upshift": self.backbone.shift(upper),
            },
        )
        return [row[0] for row in cursor]

    def _transient_rows(
        self, lower: int, upper: int
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """The leftNodes/rightNodes rows of ``[lower, upper]``.

        :func:`~repro.core.transient.collect_query_nodes` plus the
        reserved Section 4.6 fork nodes, which ride along rightNodes.
        Pure arithmetic -- no SQL is issued; both empty means the
        result is provably empty.
        """
        nodes = collect_query_nodes(self.backbone, lower, upper)
        right = nodes.right
        if self._has_infinite:
            right.append(FORK_INF)
        if self._has_now and lower <= self._now:
            right.append(FORK_NOW)
        return nodes.left, right

    def _write_transient(
        self, left: list[tuple[int, int]], right: list[int]
    ) -> None:
        """(Re)populate the single-query transient tables."""
        self.conn.execute("DELETE FROM leftNodes")
        self.conn.execute("DELETE FROM rightNodes")
        self._insert_rows("leftNodes", ("min", "max"), left)
        self._insert_rows("rightNodes", ("node",), [(node,) for node in right])

    def _candidate_extent(self) -> tuple[Optional[int], Optional[int]]:
        """``(floor, ceiling)`` for before/after candidate ranges.

        The floor is the smallest stored lower bound (reserved rows
        carry real lowers); the ceiling must cover every coordinate the
        candidate scans have to reach -- the largest finite upper, the
        largest reserved-row lower, and the clock for now-relative
        rows.  Sentinel uppers never enter, so the scan plan's BETWEEN
        fold stays clear of the reserved fork-node values.  Both are
        kept in memory (:meth:`_row`), read from the relation once on
        attach; rows deleted or refused leave the envelope wide, which
        still covers every stored row, so answers do not change.
        """
        floor, ceiling = self._floor, self._ceiling
        if self._has_now and ceiling is not None:
            ceiling = max(ceiling, self._now)
        return floor, ceiling

    # ------------------------------------------------------------------
    # probe batches (set-at-a-time, Section 5 meets the join subsystem)
    # ------------------------------------------------------------------
    def _batch_statement(self, pred) -> tuple[str, dict]:
        """The set-at-a-time statement of a probe batch and its binds.

        The Figure 9 form joined against the probe relation
        (``batchProbes``): each branch pairs a probe's own transient
        rows with the bounds it scans, so the engine's optimizer drives
        one nested-loop plan (probe relation outer, the two Figure 2
        indexes inner) over the whole batch.  A join ``pred`` appends
        its subject-swapped refinement
        (:func:`repro.sql.schema.join_refine_fragment`) to every branch
        and binds the clock and any family parameters.
        :meth:`intersection_many`, :meth:`join_pairs`,
        :meth:`join_count` and :meth:`explain_join` all read it.
        """
        refine = "" if pred is None else schema.join_refine_fragment(pred.sql_refine)
        statement = schema.figure9_sql(
            self.name, batch=True, lower='q."lower"', upper='q."upper"', refine=refine
        )
        params = () if pred is None else pred.params
        return statement, {"now": self._now, **dict(params)}

    def _run_batch(self, pred, probes: Sequence, fetch, empty, wrap: str = "{}"):
        """One fill cycle of ``probes`` running :meth:`_batch_statement`
        inside ``wrap``; ``fetch`` reads the cursor."""
        if not probes:
            return empty
        statement, binds = self._batch_statement(pred)
        inverse = None if pred is None else pred.inverse
        return self._batch_cycle(
            lambda: self._fill_batch_tables(probes, inverse),
            lambda: fetch(self.conn.execute(wrap.format(statement), binds)),
            empty,
        )

    def intersection_many(self, queries: Sequence[tuple[int, int]]) -> list[list[int]]:
        """Answer a whole query batch with one set-at-a-time statement.

        All transient node collections are computed and loaded in ONE
        fill cycle of the batch TEMP tables, then a single Figure 9 form
        joined against the probe relation returns ``(qid, id)`` rows for
        every query at once.
        """
        results: list[list[int]] = [[] for _ in queries]
        for qid, interval_id in self._run_batch(None, queries, list, []):
            results[qid].append(interval_id)
        return results

    def join_pairs(
        self, probes: Sequence[IntervalRecord], *, predicate=None
    ) -> list[tuple[int, int]]:
        """The index-nested-loop interval join as ONE SQL statement.

        The probe relation is loaded into a TEMP table and joined against
        the Figure 9 form (:meth:`_batch_statement`), so the join is
        evaluated set-at-a-time instead of one statement per probe.  A
        join ``predicate`` keeps the one-statement shape: the per-probe
        candidate ranges of the *inverse* relation fill the transient
        tables and the refinement rides along in every branch.  Reserved
        Section 4.6 rows participate with their effective bounds, as in
        predicate queries.
        """
        pred = resolve_join_predicate(predicate)
        ids = [probe_id for _lower, _upper, probe_id in probes]
        rows = self._run_batch(pred, probes, list, [])
        return [(ids[qid], interval_id) for qid, interval_id in rows]

    def join_count(self, probes: Sequence[IntervalRecord], *, predicate=None) -> int:
        """Size of :meth:`join_pairs`, aggregated by the engine: the same
        fill cycle and statement, wrapped in ``COUNT(*)``."""
        pred = resolve_join_predicate(predicate)
        return self._run_batch(
            pred, probes, lambda cursor: cursor.fetchone()[0], 0, _COUNT
        )

    def explain_join(
        self, probes: Sequence[IntervalRecord], predicate=None
    ) -> list[str]:
        """The engine's plan for the statement :meth:`join_pairs` runs."""
        pred = resolve_join_predicate(predicate)
        statement, binds = self._batch_statement(pred)
        try:
            self._fill_batch_tables(probes, None if pred is None else pred.inverse)
            cursor = self.conn.execute(_EXPLAIN.format(statement), binds)
            return [row[-1] for row in cursor]
        finally:
            self._clear_batch_tables()

    def _fill_batch_tables(self, probes: Sequence, inverse=None) -> int:
        """One fill cycle of the batch transient tables for a probe batch.

        ``probes`` are ``(lower, upper)`` or ``(lower, upper, id)`` rows.
        Each loads one ``(qid, lower, upper, plower, pupper)`` probe row.
        The plain join scans the probe itself and leaves ``plower`` /
        ``pupper`` NULL.  A predicate join scans the *inverse*
        relation's candidate range (probing asks the stored-subject
        question) and keeps the probe's own bounds for the refinement
        fragment; a probe with no candidate range loads nothing.
        Reserved Section 4.6 fork rows ride along their rightNodes
        entries, as in the single-query path.

        Returns the total number of transient node rows; zero means every
        probe's result is provably empty and the batch statement can be
        skipped entirely.  The tables start empty: :meth:`_batch_cycle`
        clears them or rolls back.
        """
        floor = ceiling = None
        if inverse is not None and inverse.needs_extent:
            floor, ceiling = self._candidate_extent()
        probe_rows: list[tuple] = []
        left_rows: list[tuple[int, int, int]] = []
        right_rows: list[tuple[int, int]] = []
        for qid, probe in enumerate(probes):
            lower, upper = probe[0], probe[1]
            validate_interval(lower, upper)
            if inverse is None:
                probe_rows.append((qid, lower, upper, None, None))
                clower, cupper = lower, upper
            else:
                candidate = inverse.candidates(lower, upper, floor, ceiling)
                if candidate is None:
                    continue
                clower, cupper = candidate
                probe_rows.append((qid, clower, cupper, lower, upper))
            left, right = self._transient_rows(clower, cupper)
            left_rows.extend((qid, mn, mx) for mn, mx in left)
            right_rows.extend((qid, node) for node in right)
        if not left_rows and not right_rows:
            return 0
        self._insert_rows(
            "batchProbes", ("qid", "lower", "upper", "plower", "pupper"), probe_rows
        )
        self._insert_rows("batchLeftNodes", ("qid", "min", "max"), left_rows)
        self._insert_rows("batchRightNodes", ("qid", "node"), right_rows)
        return len(left_rows) + len(right_rows)

    def _insert_rows(
        self, table: str, columns: Sequence[str], rows: Sequence[tuple]
    ) -> None:
        """Load ``rows`` with multi-row ``INSERT ... VALUES`` statements.

        Each statement carries up to :data:`_INSERT_CHUNK` rows, so ``n``
        rows cost ``ceil(n / 100)`` statements instead of ``n``; 100 rows
        of at most 5 columns stay under the 999 host parameters older
        sqlite builds allow.
        """
        head = (
            f"INSERT INTO {table} ("
            + ", ".join(f'"{column}"' for column in columns)
            + ") VALUES "
        )
        values = "(" + ", ".join("?" * len(columns)) + ")"
        for start in range(0, len(rows), _INSERT_CHUNK):
            chunk = rows[start : start + _INSERT_CHUNK]
            self.conn.execute(
                head + ", ".join([values] * len(chunk)),
                [value for row in chunk for value in row],
            )

    def _clear_batch_tables(self) -> None:
        """Empty every batch transient table (end of one fill cycle)."""
        for table in _BATCH_TABLES:
            self.conn.execute(f"DELETE FROM {table}")

    def _batch_cycle(self, fill, run, empty):
        """One transaction-scoped batch fill cycle with bounded retry.

        ``fill`` populates the batch transient tables and returns the
        transient row count; when it returns zero the result is provably
        ``empty``, ``run`` is skipped and -- preserving the empty-backbone
        fast path -- not a single statement reaches the connection.  Fill,
        query and cleanup execute inside ONE transaction: a mid-cycle
        failure rolls the fill back (no stray TEMP rows can outlive the
        cycle), and a ``busy`` / ``locked`` error additionally
        re-attempts the whole cycle under the bounded backoff policy.
        Pending single-statement work is committed up front, so the
        mid-cycle rollback can only ever revert the cycle itself.
        """

        def attempt():
            self.conn.commit()
            try:
                if not fill():
                    return empty
                result = run()
                self._clear_batch_tables()
                self.conn.commit()
                return result
            except BaseException:
                self.conn.rollback()
                raise

        return self.retry.call(attempt, classify=sqlite_transient_classify)

    # ------------------------------------------------------------------
    # planning (Section 5: the cost model registered at the optimizer)
    # ------------------------------------------------------------------
    def analyze(self, buckets: int = DEFAULT_BUCKETS) -> StoreStatistics:
        """The ANALYZE pass: one statistics snapshot for the cost model.

        Histograms come from SQL aggregation (one ``NTILE`` window pass
        per bound expression -- the quantile computation runs inside the
        engine, not in Python), geometry from sqlite's page counts:
        ``PRAGMA page_size`` and ``PRAGMA cache_size`` fix the block
        model, the ``dbstat`` virtual table supplies real per-index page
        counts where the build ships it (falling back to the analytic
        B+-tree layout otherwise), and ``PRAGMA database_list`` tells
        whether the ``main`` database is memory-resident (an empty file
        name), in which case the planner prices no physical reads.
        Reserved Section 4.6 fork rows count as ``stored_records()``
        reports them: a now-relative row ends at the clock, an infinite
        row at the ``UPPER_INF`` sentinel -- as in the engine and HINT
        statistics.
        """
        conn, name = self.conn, self.name
        page_size = conn.execute("PRAGMA page_size").fetchone()[0]
        cache = conn.execute("PRAGMA cache_size").fetchone()[0]
        if cache >= 0:
            cache_blocks = cache
        else:
            cache_blocks = max(1, (-cache * 1024) // page_size)
        memory_resident = any(
            db == "main" and not path
            for _, db, path in conn.execute("PRAGMA database_list")
        )
        try:
            pages = dict(
                conn.execute(
                    "SELECT name, COUNT(*) FROM dbstat "
                    "WHERE name IN (?, ?, ?) GROUP BY name",
                    (name, f"{name}_lowerIndex", f"{name}_upperIndex"),
                )
            )
        except sqlite3.Error:
            pages = {}
        count = conn.execute(f"SELECT COUNT(*) FROM {name}").fetchone()[0]
        geometry = analytic_geometry(count, page_size, cache_blocks)
        geometry.memory_resident = memory_resident
        index_pages = pages.get(f"{name}_lowerIndex", 0) + pages.get(
            f"{name}_upperIndex", 0
        )
        if index_pages:
            geometry.leaf_blocks = max(
                float(index_pages) - geometry.internal_blocks, 2.0
            )
        if pages.get(name, 0):
            geometry.table_blocks = pages[name]
        upper = f'CASE "node" WHEN {FORK_NOW} THEN {int(self._now)} ELSE "upper" END'
        duration = f'{upper} - "lower"'
        if count == 0:
            summary = BoundSummary([], [], buckets)
        elif count <= buckets:
            lowers, uppers, durations = (
                [
                    row[0]
                    for row in conn.execute(
                        f'SELECT {expr} AS "b" FROM {name} ORDER BY "b"'
                    )
                ]
                for expr in ('"lower"', upper, duration)
            )
            summary = BoundSummary(lowers, uppers, buckets, sorted_durations=durations)
        else:
            summary = BoundSummary.from_boundaries(
                count,
                self._quantiles('"lower"', buckets),
                self._quantiles(upper, buckets),
                buckets,
                duration_bounds=self._quantiles(duration, buckets),
            )
        return StoreStatistics(summary, self.backbone, geometry)

    def _quantiles(self, expr: str, buckets: int) -> list[int]:
        """Equi-depth boundaries q_0..q_B of one bound expression, in SQL.

        ``expr`` is a quoted column or an arithmetic expression over the
        bound columns (the duration histogram passes the effective upper
        minus ``"lower"``); one NTILE window pass either way.
        """
        floor = self.conn.execute(f"SELECT MIN({expr}) FROM {self.name}").fetchone()[0]
        tiles = self.conn.execute(
            f'SELECT MAX("b") FROM (SELECT {expr} AS "b", '
            f'NTILE(?) OVER (ORDER BY {expr}) AS "t" '
            f'FROM {self.name}) GROUP BY "t" ORDER BY "t"',
            (buckets,),
        )
        return [floor] + [row[0] for row in tiles]

    def cost_model(self, refresh: bool = False) -> RITreeCostModel:
        """Optimizer statistics over this relation, built lazily and cached.

        The model prices one :meth:`analyze` snapshot.  An in-memory
        database (``:memory:``, an empty ``main`` file name) is
        memory-resident, so joins are priced with zero physical reads
        and the planner compares interpreter work; a file-backed one is
        priced against its page cache.  All of these statistics are read
        once per ANALYZE, so estimating issues no SQL.  The cached model
        -- histograms and geometry alike -- goes stale under updates;
        pass ``refresh=True`` to re-run the ANALYZE pass.
        """
        if self._cost_model is None or refresh:
            self._cost_model = RITreeCostModel(self.analyze())
        return self._cost_model

    def stored_records(self) -> list[IntervalRecord]:
        """The stored relation as ``(lower, upper, id)`` records.

        Sentinel uppers are materialised as in
        :meth:`repro.core.ritree.RITree.stored_records`:
        now-relative rows report the *effective* upper bound (the current
        clock), so an index-free consumer (the planner's sweep dispatch)
        joins the same pair set as the reserved-node scans; infinite rows
        keep the ``UPPER_INF`` sentinel, which behaves as +infinity under
        every overlap test inside the supported data space.
        """
        cursor = self.conn.execute(
            f'SELECT "node", "lower", "upper", "id" FROM {self.name}'
        )
        return [
            (lower, self._now if node == FORK_NOW else upper, interval_id)
            for node, lower, upper, interval_id in cursor
        ]

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _verify_into(self, report: VerificationReport) -> None:
        """Structural validators for the sqlite backend.

        Checks, in order: sqlite's own ``PRAGMA integrity_check``,
        presence and column order of the two covering indexes
        (:data:`repro.sql.schema.INDEX_COLUMNS`), the
        persisted parameter dictionary against the in-memory backbone,
        Figure 6 fork-node consistency, the reserved Section 4.6 rows
        against their sentinel uppers and flags, and that no batch fill
        cycle left stray TEMP rows behind.
        """
        super()._verify_into(report)
        report.add_check("sqlite-integrity")
        for (line,) in self.conn.execute("PRAGMA integrity_check"):
            if line != "ok":
                report.add_issue("sqlite-integrity", line)
        report.add_check("figure2-indexes")
        expected_indexes = {
            f"{self.name}_{suffix}": list(columns)
            for suffix, columns in schema.INDEX_COLUMNS.items()
        }
        present = {
            row[1] for row in self.conn.execute(f"PRAGMA index_list({self.name})")
        }
        for index_name, key_columns in expected_indexes.items():
            if index_name not in present:
                report.add_issue(
                    "missing-index",
                    f"covering index {index_name} is absent",
                    {"index": index_name},
                )
                continue
            columns = [
                row[2]
                for row in self.conn.execute(f"PRAGMA index_info({index_name})")
            ]
            if columns != key_columns:
                report.add_issue(
                    "index-columns",
                    f"{index_name} covers {columns}, the schema expects "
                    f"{key_columns}",
                    {"index": index_name},
                )
        report.add_check("params-dictionary")
        stored = dict(
            self.conn.execute(f'SELECT "key", "value" FROM {self.name}_params')
        )
        expected_params = dict(
            zip(_PARAM_KEYS + ("has_infinite", "has_now"), self._param_values())
        )
        for key, value in expected_params.items():
            if stored.get(key) != value:
                report.add_issue(
                    "params-dictionary",
                    f"dictionary stores {key}={stored.get(key)!r}, "
                    f"in-memory value is {value!r}",
                    {"key": key},
                )
        report.add_check("fork-node")
        report.add_check("reserved-rows")
        inf_rows = now_rows = 0
        for node, lower, upper, interval_id in self.conn.execute(
            f'SELECT "node", "lower", "upper", "id" FROM {self.name}'
        ):
            if node == FORK_INF:
                inf_rows += 1
            elif node == FORK_NOW:
                now_rows += 1
            elif self.backbone.is_empty:
                report.add_issue(
                    "missing-offset",
                    f"row id {interval_id} stored but the backbone has no offset",
                    {"id": interval_id},
                )
            verify_row(
                report,
                self.backbone,
                self._now,
                node,
                lower,
                upper,
                f"row id {interval_id}",
                {"id": interval_id},
            )
        if inf_rows and not self._has_infinite:
            report.add_issue(
                "reserved-flag",
                f"{inf_rows} rows at FORK_INF but has_infinite is unset "
                "(queries would miss them)",
            )
        if now_rows and not self._has_now:
            report.add_issue(
                "reserved-flag",
                f"{now_rows} rows at FORK_NOW but has_now is unset "
                "(queries would miss them)",
            )
        report.add_check("batch-tables-empty")
        for table in _BATCH_TABLES:
            count = self.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            if count:
                report.add_issue(
                    "stray-batch-rows",
                    f"{count} rows left in {table} outside a fill cycle",
                    {"table": table},
                )

    # ------------------------------------------------------------------
    # object-relational wrapping: view + trigger + UDF (Section 5)
    # ------------------------------------------------------------------
    def _register_udf(self) -> None:
        def fork_node(lower: int, upper: int) -> int:
            return self._row(lower, upper, None)["node"]

        self.conn.create_function(f"ritree_fork_{self.name}", 2, fork_node)

    def create_view(self) -> str:
        """Create an updatable view hiding all index maintenance.

        ``INSERT INTO <name>_iv ("lower", "upper", "id") VALUES (...)``
        then behaves like inserting into a table with a built-in interval
        index: the trigger computes the fork node through the registered
        user-defined function -- "the complete index maintenance therefore
        may be managed by a trigger mechanism" (Section 5).  Call
        :meth:`sync_params` when done inserting to persist the dictionary.
        """
        view = f"{self.name}_iv"
        self.conn.execute(
            f"CREATE VIEW IF NOT EXISTS {view} AS "
            f'SELECT "lower", "upper", "id" FROM {self.name}'
        )
        self.conn.execute(
            f"CREATE TRIGGER IF NOT EXISTS {view}_insert "
            f"INSTEAD OF INSERT ON {view} BEGIN "
            f'INSERT INTO {self.name} ("node", "lower", "upper", "id") '
            f'VALUES (ritree_fork_{self.name}(NEW."lower", NEW."upper"), '
            f'NEW."lower", NEW."upper", NEW."id"); END'
        )
        return view

    def sync_params(self) -> None:
        """Persist the parameter dictionary after view-based inserts."""
        self._save_params()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def interval_count(self) -> int:
        """Number of stored intervals."""
        cursor = self.conn.execute(f"SELECT COUNT(*) FROM {self.name}")
        return cursor.fetchone()[0]

    @property
    def index_entry_count(self) -> int:
        """Two index entries per interval (Figure 12: ``2n``)."""
        return 2 * self.interval_count
