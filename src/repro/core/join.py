"""Interval equi-overlap joins: ``R JOIN S ON overlaps(r, s)``.

The paper positions the RI-tree as a general *relational access method*
for intervals; interval joins are the workload where the index-vs-scan
trade-off actually bites.  This module provides one join API with three
interchangeable strategies:

* :class:`IndexNestedLoopJoin` -- drives an :class:`~repro.core.access.
  AccessMethod` (by default an RI-tree built over the inner relation) with
  one intersection probe per outer tuple.  Probes execute through the
  batched scan pipeline of the Figure 10 plan, so the join's logical and
  physical I/O is accounted through exactly the same
  :class:`~repro.engine.stats.IoStats` counters as the Figure 13 queries.
* :class:`SweepJoin` -- an endpoint-sorted merge join in the style of
  Piatov et al.'s cache-efficient plane sweep: both inputs are sorted by
  lower bound once, then a single merge pass maintains one *gapless*
  active list per side (arrays compacted by swap-with-last removal, never
  leaving holes).  It is the index-free competitor: O(n log n) sort plus
  O(output + purges) merge work, but it must consume both inputs in full.
* :class:`NestedLoopJoin` -- the quadratic pure-Python nested loop, a
  public strategy checked against the oracle store
  (:class:`~repro.methods.memory.BruteForceIntervals`) like the others.
* :class:`AutoJoin` -- the planner: consults the Section 5 cost model
  (:mod:`repro.core.costmodel`) to predict per-strategy physical I/O and
  Python-frame work, then dispatches to the predicted-cheaper executable
  strategy.  The decision is kept on :attr:`AutoJoin.last_decision` so
  harness rows and benchmark reports can surface predicted-vs-measured.

All strategies emit the identical duplicate-free pair set
``{(r_id, s_id) | r overlaps s}`` over closed integer intervals, where
``[a, b]`` and ``[c, d]`` overlap iff ``a <= d and c <= b`` (shared
endpoints count, as everywhere else in this reproduction).  Every
strategy additionally accepts any join predicate of
:mod:`repro.core.predicates` (``interval_join(..., predicate="before")``):
the sweep evaluates Allen-relation joins in the style of Piatov et al.'s
extended-predicate sweeps, the index strategies probe the store with the
predicate's *inverse* relation (``join_pairs(..., predicate=...)``), and
``auto`` plans index-vs-sweep per relation through the cost model's
predicate selectivities.

Example
-------
>>> outer = [(0, 10, 1), (20, 30, 2)]
>>> inner = [(5, 25, 7), (40, 50, 8)]
>>> sorted(interval_join(outer, inner, strategy="sweep"))
[(1, 7), (2, 7)]
>>> sorted(interval_join(outer, inner, strategy="index"))
[(1, 7), (2, 7)]
>>> sorted(interval_join(outer, inner, strategy="nested-loop"))
[(1, 7), (2, 7)]
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

from bisect import bisect_left, bisect_right

from ..engine.database import Database
from .access import AccessMethod, IntervalRecord
from .costmodel import choose_join_strategy
from .interval import validate_interval
from .predicates import resolve_join_predicate as _resolve_join_predicate
from .ritree import RITree

#: One join result: (outer interval id, inner interval id).
JoinPair = tuple[int, int]


class JoinStrategy(ABC):
    """One way to evaluate the interval equi-overlap join.

    Strategies are stateless with respect to the inputs: every call to
    :meth:`pairs`/:meth:`count` evaluates the join from scratch, so a
    benchmark can measure repeated runs.  ``outer`` and ``inner`` are
    sequences of ``(lower, upper, id)`` records with finite integer
    bounds; ids must be unique per side (they are per side in every
    workload generator, mirroring relational keys).
    """

    #: Strategy name used in benchmark output rows.
    strategy_name: str = "abstract"

    @abstractmethod
    def pairs(
        self,
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
    ) -> list[JoinPair]:
        """All ``(outer_id, inner_id)`` pairs of overlapping intervals."""

    def count(
        self,
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
    ) -> int:
        """Size of :meth:`pairs` (same evaluation unless overridden)."""
        return len(self.pairs(outer, inner))


class NestedLoopJoin(JoinStrategy):
    """Brute-force nested loop: the O(|R| * |S|) correctness oracle.

    Accepts any join predicate (``predicate=``, an
    :class:`~repro.core.predicates.IntervalPredicate` or name): every
    outer/inner combination is tested against the predicate's defining
    endpoint formula, with the outer record as the subject.
    """

    strategy_name = "nested-loop"

    def __init__(self, predicate=None) -> None:
        self.predicate = _resolve_join_predicate(predicate)

    def pairs(
        self,
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
    ) -> list[JoinPair]:
        holds = self.predicate.holds if self.predicate is not None \
            else (lambda s, e, l, u: s <= u and e >= l)
        results: list[JoinPair] = []
        for r_lower, r_upper, r_id in outer:
            validate_interval(r_lower, r_upper)
            for s_lower, s_upper, s_id in inner:
                if holds(r_lower, r_upper, s_lower, s_upper):
                    results.append((r_id, s_id))
        return results


class SweepJoin(JoinStrategy):
    """Endpoint-sorted plane-sweep merge join with gapless active lists.

    Both inputs are sorted by lower bound, then merged in one pass.  When
    a tuple starts, it is joined against the opposite side's *active
    list* -- the tuples whose interval has started but not provably ended.
    Entries whose upper bound lies before the sweep position are purged
    lazily during that probe by swap-with-last removal, keeping the lists
    gapless (dense arrays, no tombstones) as in Piatov et al.'s
    endpoint-based join.  Each pair is emitted exactly once: at the start
    event of its later-starting tuple (outer first on ties).

    Allen-relation join predicates (``predicate=``) are supported in the
    style of Piatov et al.'s extended-predicate sweeps: every predicate
    but a single ``e < l`` or ``s > u`` atom (``disjoint``) has a
    candidate window inside the reference, so it implies closed-interval
    overlap and its pairs are produced by the same single merge pass
    with the defining endpoint formula applied at emission (active lists
    then carry full records); ``disjoint`` pairs (``before``/``after``)
    are enumerated from the sorted endpoint arrays directly (one prefix
    of outers ordered by upper bound per inner tuple), with the count
    computed by bisection alone.
    """

    strategy_name = "sweep"

    def __init__(self, predicate=None) -> None:
        self.predicate = _resolve_join_predicate(predicate)

    def pairs(
        self,
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
    ) -> list[JoinPair]:
        results: list[JoinPair] = []
        if self.predicate is None:
            self._sweep(outer, inner, results.append)
        elif self.predicate.disjoint:
            self._sorted_disjoint(outer, inner, self.predicate.disjoint, results.append)
        else:
            self._sweep_refined(outer, inner, self.predicate.holds, results.append)
        return results

    def count(
        self,
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
    ) -> int:
        if self.predicate is not None and self.predicate.disjoint:
            return self._count_disjoint(outer, inner, self.predicate.disjoint)
        counter = _PairCounter()
        if self.predicate is None:
            self._sweep(outer, inner, counter)
        else:
            self._sweep_refined(outer, inner, self.predicate.holds, counter)
        return counter.count

    @staticmethod
    def _sorted_disjoint(
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
        bound: str,
        emit: Callable[[JoinPair], None],
    ) -> None:
        """Enumerate the pairs of a single ``e < l`` or ``s > u`` atom
        from the sorted endpoint arrays.

        ``bound`` is the predicate's ``disjoint`` side.  ``"upper"``
        (``before``) holds iff ``r.upper < s.lower``: with outers sorted
        by upper bound, each inner tuple's partners are exactly one
        prefix, found by bisection -- O(n log n) sort plus O(output)
        emission.  ``"lower"`` (``after``) mirrors it on the opposite
        bounds.
        """
        for lower, upper, _ in outer:
            validate_interval(lower, upper)
        for lower, upper, _ in inner:
            validate_interval(lower, upper)
        if bound == "upper":
            by_bound = sorted((upper, r_id) for _, upper, r_id in outer)
            bounds = [upper for upper, _ in by_bound]
            for s_lower, _s_upper, s_id in inner:
                for k in range(bisect_left(bounds, s_lower)):
                    emit((by_bound[k][1], s_id))
        else:
            by_bound = sorted((lower, r_id) for lower, _, r_id in outer)
            bounds = [lower for lower, _ in by_bound]
            for _s_lower, s_upper, s_id in inner:
                for k in range(bisect_right(bounds, s_upper), len(by_bound)):
                    emit((by_bound[k][1], s_id))

    @staticmethod
    def _count_disjoint(
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
        bound: str,
    ) -> int:
        """Size of a :meth:`_sorted_disjoint` join by bisection,
        O((n+m) log n)."""
        for lower, upper, _ in outer:
            validate_interval(lower, upper)
        for lower, upper, _ in inner:
            validate_interval(lower, upper)
        if bound == "upper":
            uppers = sorted(upper for _, upper, _ in outer)
            return sum(bisect_left(uppers, s_lower) for s_lower, _, _ in inner)
        lowers = sorted(lower for lower, _, _ in outer)
        return sum(
            len(lowers) - bisect_right(lowers, s_upper) for _, s_upper, _ in inner
        )

    @staticmethod
    def _sweep_refined(
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
        holds: Callable[[int, int, int, int], bool],
        emit: Callable[[JoinPair], None],
    ) -> None:
        """The overlap sweep with a predicate refinement at emission.

        Complete for every predicate that is not ``disjoint``: such a
        pair shares at least one coordinate, so it overlaps under closed
        semantics and the standard merge visits it exactly once.  Active
        lists carry full records (the refinement needs both bounds), kept
        gapless by the same swap-with-last purge.
        """
        for lower, upper, _ in outer:
            validate_interval(lower, upper)
        for lower, upper, _ in inner:
            validate_interval(lower, upper)
        r_events = sorted(outer)
        s_events = sorted(inner)
        n_r, n_s = len(r_events), len(s_events)
        r_active: list[IntervalRecord] = []
        s_active: list[IntervalRecord] = []
        i = j = 0
        while i < n_r or j < n_s:
            if j >= n_s or (i < n_r and r_events[i][0] <= s_events[j][0]):
                record = r_events[i]
                i += 1
                lower, upper, r_id = record
                k = 0
                while k < len(s_active):
                    s_lower, s_upper, s_id = s_active[k]
                    if s_upper < lower:
                        s_active[k] = s_active[-1]
                        s_active.pop()
                    else:
                        if holds(lower, upper, s_lower, s_upper):
                            emit((r_id, s_id))
                        k += 1
                r_active.append(record)
            else:
                record = s_events[j]
                j += 1
                lower, upper, s_id = record
                k = 0
                while k < len(r_active):
                    r_lower, r_upper, r_id = r_active[k]
                    if r_upper < lower:
                        r_active[k] = r_active[-1]
                        r_active.pop()
                    else:
                        if holds(r_lower, r_upper, lower, upper):
                            emit((r_id, s_id))
                        k += 1
                s_active.append(record)

    @staticmethod
    def _sweep(
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
        emit: Callable[[JoinPair], None],
    ) -> None:
        for lower, upper, _ in outer:
            validate_interval(lower, upper)
        for lower, upper, _ in inner:
            validate_interval(lower, upper)
        r_events = sorted(outer)
        s_events = sorted(inner)
        n_r, n_s = len(r_events), len(s_events)
        # Gapless active lists: parallel (upper, id) arrays per side.
        r_uppers: list[int] = []
        r_ids: list[int] = []
        s_uppers: list[int] = []
        s_ids: list[int] = []
        i = j = 0
        while i < n_r or j < n_s:
            # Outer goes first on lower-bound ties, so tied pairs are
            # emitted (once) when the inner tuple probes the outer list.
            if j >= n_s or (i < n_r and r_events[i][0] <= s_events[j][0]):
                lower, upper, r_id = r_events[i]
                i += 1
                k = 0
                while k < len(s_uppers):
                    if s_uppers[k] < lower:
                        # Expired: swap-with-last keeps the list gapless.
                        s_uppers[k] = s_uppers[-1]
                        s_ids[k] = s_ids[-1]
                        s_uppers.pop()
                        s_ids.pop()
                    else:
                        emit((r_id, s_ids[k]))
                        k += 1
                r_uppers.append(upper)
                r_ids.append(r_id)
            else:
                lower, upper, s_id = s_events[j]
                j += 1
                k = 0
                while k < len(r_uppers):
                    if r_uppers[k] < lower:
                        r_uppers[k] = r_uppers[-1]
                        r_ids[k] = r_ids[-1]
                        r_uppers.pop()
                        r_ids.pop()
                    else:
                        emit((r_ids[k], s_id))
                        k += 1
                s_uppers.append(upper)
                s_ids.append(s_id)


class _PairCounter:
    """Callable sink counting emitted pairs without materialising them."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, pair: JoinPair) -> None:
        self.count += 1


class IndexNestedLoopJoin(JoinStrategy):
    """Index-nested-loop join probing an access method over the inner side.

    Either wraps a pre-built method (``method=``, e.g. an existing
    :class:`~repro.core.ritree.RITree` serving queries) whose
    stored intervals then *are* the inner relation, or builds one per
    evaluation with ``factory`` (default: an RI-tree on a fresh
    paper-geometry engine).  Probing goes through
    :meth:`~repro.core.access.AccessMethod.join_pairs` /
    :meth:`~repro.core.access.AccessMethod.join_count`, which the RI-tree
    specialises to consume whole leaf slices of its batched scan plan.

    Join predicates (``predicate=``) ride the same hooks: the store
    probes the *inverse* relation's candidate range per outer tuple and
    refines with the direct formula, so Allen-relation joins share the
    index path's I/O accounting.
    """

    strategy_name = "index-nested-loop"

    def __init__(
        self,
        method: Optional[AccessMethod] = None,
        factory: Callable[[Database], AccessMethod] = RITree,
        predicate=None,
    ) -> None:
        self.method = method
        self.factory = factory
        self.predicate = _resolve_join_predicate(predicate)

    def _inner_method(self, inner: Sequence[IntervalRecord]) -> AccessMethod:
        if self.method is not None:
            return self.method
        method = self.factory(Database())
        method.bulk_load(inner)
        method.db.flush()
        return method

    def pairs(
        self,
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
    ) -> list[JoinPair]:
        return self._inner_method(inner).join_pairs(outer, predicate=self.predicate)

    def count(
        self,
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
    ) -> int:
        return self._inner_method(inner).join_count(outer, predicate=self.predicate)


class AutoJoin(JoinStrategy):
    """Cost-model-driven strategy choice: the join planner.

    Every evaluation first *plans*: with a pre-built inner ``method``, the
    method's own cost model is consulted (histograms refreshed from its
    already-loaded composite indexes); otherwise the engine-free
    :func:`~repro.core.costmodel.choose_join_strategy` prices both
    executable strategies from the raw record sequences.  The join is then
    dispatched to the predicted-cheaper strategy -- index-nested-loop or
    sweep -- and the full :class:`~repro.core.costmodel.JoinEstimate` is
    retained on :attr:`last_decision` for reporting.

    When a pre-built method stores the inner relation and the planner
    picks the sweep, the inner records are recovered through
    :meth:`~repro.core.access.AccessMethod.stored_records`; methods that
    cannot enumerate their intervals fall back to the index join, and
    :attr:`last_dispatch` records the strategy that actually ran (which
    on that fallback path differs from ``last_decision.choice``).

    A join ``predicate`` (any Allen relation) is planned per relation --
    the cost model prices the index path over the inverse relation's
    candidate ranges against the sweep -- and handed to whichever
    strategy wins.
    """

    strategy_name = "auto"

    def __init__(
        self,
        method: Optional[AccessMethod] = None,
        factory: Callable[[Database], AccessMethod] = RITree,
        predicate=None,
    ) -> None:
        self.method = method
        self.factory = factory
        self.predicate = _resolve_join_predicate(predicate)
        #: The JoinEstimate backing the most recent dispatch (None until
        #: the first pairs()/count() call).
        self.last_decision = None
        #: Name of the strategy the most recent evaluation actually ran.
        #: Equals ``last_decision.choice`` except on the
        #: cannot-enumerate fallback, where the planner's sweep pick
        #: degrades to index-nested-loop.
        self.last_dispatch: Optional[str] = None

    def decide(self, outer, inner):
        """Plan the join and return the planner's cost estimate."""
        self._plan(outer, inner)
        return self.last_decision

    def _plan(
        self,
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
    ) -> tuple[JoinStrategy, Sequence[IntervalRecord]]:
        """Estimate, decide, and resolve the records the winner consumes.

        With a prebuilt ``method``, its stored relation *is* the inner
        side -- both strategies then evaluate the same join, whatever the
        planner picks (the ``inner`` argument is ignored, exactly as
        :class:`IndexNestedLoopJoin` ignores it).  The stored relation is
        recovered at most once per evaluation.
        """
        stored: Optional[list[IntervalRecord]] = None
        if self.method is not None:
            model = self.method.cost_model()
            if model is not None:
                estimate = model.estimate_join(outer, predicate=self.predicate)
            else:
                stored = self.method.stored_records()
                estimate = choose_join_strategy(
                    outer,
                    inner if stored is None else stored,
                    predicate=self.predicate,
                )
        else:
            estimate = choose_join_strategy(outer, inner, predicate=self.predicate)
        self.last_decision = estimate
        strategy: JoinStrategy
        records = inner
        if estimate.choice == SweepJoin.strategy_name:
            if self.method is None:
                strategy = SweepJoin(predicate=self.predicate)
            else:
                if stored is None:
                    stored = self.method.stored_records()
                if stored is not None:
                    strategy = SweepJoin(predicate=self.predicate)
                    records = stored
                else:
                    # The method cannot enumerate its intervals: keep
                    # probing it, and report the dispatch truthfully.
                    strategy = IndexNestedLoopJoin(
                        method=self.method,
                        factory=self.factory,
                        predicate=self.predicate,
                    )
        else:
            strategy = IndexNestedLoopJoin(
                method=self.method,
                factory=self.factory,
                predicate=self.predicate,
            )
        self.last_dispatch = strategy.strategy_name
        return strategy, records

    def pairs(
        self,
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
    ) -> list[JoinPair]:
        strategy, records = self._plan(outer, inner)
        return strategy.pairs(outer, records)

    def count(
        self,
        outer: Sequence[IntervalRecord],
        inner: Sequence[IntervalRecord],
    ) -> int:
        strategy, records = self._plan(outer, inner)
        return strategy.count(outer, records)


#: The join strategies by benchmark/CLI name.
JOIN_STRATEGIES: dict[str, Callable[[], JoinStrategy]] = {
    NestedLoopJoin.strategy_name: NestedLoopJoin,
    SweepJoin.strategy_name: SweepJoin,
    IndexNestedLoopJoin.strategy_name: IndexNestedLoopJoin,
    AutoJoin.strategy_name: AutoJoin,
    # Convenience alias used by examples and the CLI.
    "index": IndexNestedLoopJoin,
}

#: Canonical strategy names for user-facing messages: one entry per
#: distinct strategy, aliases deduplicated.
STRATEGY_NAMES: tuple[str, ...] = tuple(
    sorted({cls.strategy_name for cls in JOIN_STRATEGIES.values()})
)


def interval_join(
    outer: Sequence[IntervalRecord],
    inner: Sequence[IntervalRecord],
    *,
    strategy: str = "sweep",
    predicate=None,
) -> list[JoinPair]:
    """Join two interval relations with a strategy chosen by name.

    ``strategy`` is one of ``"sweep"`` (default), ``"index"`` /
    ``"index-nested-loop"``, ``"nested-loop"``, or ``"auto"`` (the
    cost-model planner picking between index and sweep); all return the
    same pair set, differing only in evaluation cost.  Both options are
    keyword-only.

    ``predicate`` generalises the join condition beyond overlap: any
    Allen relation (name or :class:`~repro.core.predicates.
    IntervalPredicate`), applied with the outer record as the subject --
    ``predicate="during"`` pairs each outer interval with the inner
    intervals it lies strictly inside.  Every strategy evaluates every
    join predicate: the sweep by extended-predicate merge, the index
    strategies by probing the inverse relation's candidate ranges, and
    ``auto`` by planning index-vs-sweep per relation.
    """
    try:
        chosen = JOIN_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown join strategy {strategy!r}; expected one of "
            f"{list(STRATEGY_NAMES)} (or the 'index' alias for "
            f"'index-nested-loop')"
        ) from None
    pred = _resolve_join_predicate(predicate)
    if pred is None:
        return chosen().pairs(outer, inner)
    return chosen(predicate=pred).pairs(outer, inner)
