"""HINT-style main-memory interval store (third ``IntervalStore`` backend).

The RI-tree of the source paper is shaped for block-oriented storage:
every query pays index descents, and the cost model prices buffer-cache
misses.  This module is its main-memory sibling, after Christodoulou,
Bouros & Mamoulis, "HINT: A Hierarchical Index for Intervals in Main
Memory" (SIGMOD 2022; see PAPERS.md): a hierarchy of ``m + 1`` levels of
domain partitions, where level ``l`` splits the indexed domain into
``2**l`` equal cells and each stored interval is assigned to at most two
partitions per level by the common prefixes of its discretised bounds.

Why this answers queries almost comparison-free:

* A range query ``[l, u]`` touches, per level, the partitions between
  the cells of ``l`` and ``u``.  Every interval stored in a *middle*
  partition (strictly between the two boundary cells) is guaranteed to
  intersect the query, so those partitions are emitted wholesale --
  ``list.extend`` at C speed, no Python-level comparisons at all.
* The two *boundary* partitions need one comparison each, and the
  per-partition data is kept in two sorted views (by lower bound and by
  upper bound), so even those comparisons collapse into ``bisect``
  slices rather than per-record Python work.
* Replicated entries (an interval appears in up to two partitions per
  level) are deduplicated by the *first occurrence* rule: replicas are
  only reported from the first partition of a level's walk, which is
  the unique assigned partition containing the query's start cell.
* The open-ended relations ``before``/``after`` walk the range their
  matches' lower bounds can take and read one ``bisect`` slice per
  partition (a head of the upper-sorted view, a tail of the
  lower-sorted view), so they too run without per-record comparisons.

The store implements the full :class:`~repro.core.access.IntervalStore`
protocol -- updates, the intersection family, predicate ``query`` via
the PR-5 inverse-candidate-range convention, ``join_pairs`` /
``join_count``, temporal sentinel handling (``[s, oo)`` and ``[s, now]``
rows live in dedicated side lists, mirroring the reserved fork nodes of
:class:`~repro.core.ritree.RITree`), and a structured
``verify()``.  It plans from a snapshot of its stored records:
:class:`HintCostModel` prices joins with a zero-physical-read term so
:class:`~repro.core.join.AutoJoin` can plan memory-vs-disk, not just
index-vs-sweep.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import replace
from itertools import repeat
from typing import Optional, Sequence

from .access import IntervalRecord, IntervalStore
from .backbone import VirtualBackbone
from .costmodel import (
    DEFAULT_BUCKETS,
    BoundSummary,
    JoinEstimate,
    RITreeCostModel,
    StoreStatistics,
    memory_resident_geometry,
)
from .interval import validate_interval
from .predicates import resolve_join_predicate
from .temporal import FORK_INF, UPPER_INF, sentinel_node
from .verify import VerificationReport

#: Default partitioning depth: ``levels = m`` gives ``2**m`` cells at the
#: finest level.  10 keeps the per-level walk short while holding bottom
#: cells to ~1k domain values for the benchmark workloads.
DEFAULT_LEVELS = 10

# Python-frame planner constants for the HINT probe path, calibrated with
# the profile-hook counter of benchmarks/benchlib.py (bench_hint.py): one
# walk activation per probe plus a couple of boundary list comprehensions
# per non-empty level; emitted pairs ride C-level ``extend``/``zip``.
HINT_FRAMES_PER_PROBE = 4.0
HINT_FRAMES_PER_LEVEL = 1.5
HINT_FRAMES_PER_PAIR = 0.05

#: Frames per candidate record of a predicate join's refinement: one
#: ``holds`` activation each, same regime as the RI-tree's leaf slices.
HINT_FRAMES_PER_CANDIDATE = 1.2


def _is_sorted(values: list[int]) -> bool:
    return all(x <= y for x, y in zip(values, values[1:]))


class _Bucket:
    """One replication class (originals *or* replicas) of a partition.

    Records are held in six parallel lists forming two sorted views:
    ``s_*`` ordered by lower bound, ``e_*`` ordered by upper bound.  The
    two views let every boundary-partition filter run as a ``bisect``
    slice: "all records with ``upper >= l``" is a tail of the ``e_*``
    view, "all records with ``lower <= u``" a head of the ``s_*`` view.
    """

    __slots__ = ("s_lowers", "s_uppers", "s_ids", "e_uppers", "e_lowers", "e_ids")

    def __init__(self) -> None:
        self.s_lowers: list[int] = []
        self.s_uppers: list[int] = []
        self.s_ids: list[int] = []
        self.e_uppers: list[int] = []
        self.e_lowers: list[int] = []
        self.e_ids: list[int] = []

    def __len__(self) -> int:
        return len(self.s_ids)

    def add(self, lower: int, upper: int, interval_id: int) -> None:
        i = bisect_right(self.s_lowers, lower)
        self.s_lowers.insert(i, lower)
        self.s_uppers.insert(i, upper)
        self.s_ids.insert(i, interval_id)
        j = bisect_right(self.e_uppers, upper)
        self.e_uppers.insert(j, upper)
        self.e_lowers.insert(j, lower)
        self.e_ids.insert(j, interval_id)

    def append_raw(self, lower: int, upper: int, interval_id: int) -> None:
        """Unsorted append: O(1) per entry, views left out of order.

        The batched-ingest half of :meth:`add` -- the caller collects
        the touched buckets and must :meth:`resort` each before any
        read touches the views again.
        """
        self.s_lowers.append(lower)
        self.s_uppers.append(upper)
        self.s_ids.append(interval_id)
        self.e_uppers.append(upper)
        self.e_lowers.append(lower)
        self.e_ids.append(interval_id)

    def resort(self) -> None:
        """Rebuild both sorted views after a run of raw appends.

        One ``sorted`` per view instead of one ``list.insert`` per
        record: equal-key entries may land in a different relative
        order than bisect insertion would give, which is fine -- query
        results are order-unspecified and the sorted-view invariants
        only constrain the keys.
        """
        by_start = sorted(zip(self.s_lowers, self.s_uppers, self.s_ids))
        self.s_lowers = [lower for lower, _, _ in by_start]
        self.s_uppers = [upper for _, upper, _ in by_start]
        self.s_ids = [i for _, _, i in by_start]
        by_end = sorted(zip(self.e_uppers, self.e_lowers, self.e_ids))
        self.e_uppers = [upper for upper, _, _ in by_end]
        self.e_lowers = [lower for _, lower, _ in by_end]
        self.e_ids = [i for _, _, i in by_end]

    def remove(self, lower: int, upper: int, interval_id: int) -> None:
        self._remove_from(
            self.s_lowers, self.s_uppers, self.s_ids, lower, upper, interval_id
        )
        self._remove_from(
            self.e_uppers, self.e_lowers, self.e_ids, upper, lower, interval_id
        )

    @staticmethod
    def _remove_from(keys, others, ids, key, other, interval_id):
        i = bisect_left(keys, key)
        while i < len(keys) and keys[i] == key:
            if others[i] == other and ids[i] == interval_id:
                del keys[i]
                del others[i]
                del ids[i]
                return
            i += 1
        raise KeyError((key, other, interval_id))


#: A partition is a pair of buckets: ``(originals, replicas)``.
_Partition = tuple[_Bucket, _Bucket]


class HintStore(IntervalStore):
    """Hierarchical main-memory interval store (HINT-style).

    Parameters
    ----------
    levels:
        Partitioning depth ``m``; the finest level has ``2**m`` cells.
    now:
        Initial clock for now-relative temporal rows.

    The domain mapping ``position(v) = (v - offset) >> shift`` is fitted
    lazily from the first insert and refitted (with doubling headroom on
    both sides) whenever an insert falls outside the covered range, so
    callers never declare a domain up front.  Refits reassign every
    stored record -- amortised constant work per insert, exactly like a
    growing array.
    """

    method_name = "HINT"
    name = "hint-store"

    def __init__(self, levels: int = DEFAULT_LEVELS, now: int = 0) -> None:
        if not 1 <= levels <= 24:
            raise ValueError(f"levels must be in [1, 24], got {levels}")
        self.levels = levels
        self._size = 1 << levels
        # One dict of partitions per level; populated lazily, pruned on
        # delete, so empty regions cost nothing to walk past.
        self._levels: list[dict[int, _Partition]] = [{} for _ in range(levels + 1)]
        # Finite-record registry with multiplicity (duplicate records are
        # legal; ids are only unique per (lower, upper, id) triple).
        self._finite: Counter[IntervalRecord] = Counter()
        self._finite_count = 0
        self._finite_entries = 0
        # Domain mapping; None until the first finite insert.
        self._offset: Optional[int] = None
        self._shift = 0
        # Historic finite bound envelope (never shrinks under deletes;
        # sizes domain refits conservatively).
        self._fin_lo: Optional[int] = None
        self._fin_hi: Optional[int] = None
        # Global bound envelope for predicate candidate extents.  Like
        # the disk RITree, sentinel rows note (lower, lower): the extent
        # ceiling only needs to reach every stored *lower* bound.
        self._min_lower: Optional[int] = None
        self._max_upper: Optional[int] = None
        # Temporal side lists, sorted by lower bound.
        self._now = now
        self._inf_lowers: list[int] = []
        self._inf_ids: list[int] = []
        self._now_lowers: list[int] = []
        self._now_ids: list[int] = []
        # Bumped by every mutator; keys the cached cost model.
        self._mutations = 0
        self._cost_model: Optional[HintCostModel] = None
        self._cost_model_version: Optional[int] = None

    # ------------------------------------------------------------------
    # domain mapping
    # ------------------------------------------------------------------
    def _pos(self, value: int) -> int:
        """Clamped cell index of ``value`` at the finest level."""
        pos = (value - self._offset) >> self._shift
        if pos < 0:
            return 0
        if pos >= self._size:
            return self._size - 1
        return pos

    def _set_domain(self, lo: int, hi: int) -> None:
        span = max(1, hi - lo)
        self._offset = lo - span
        required = hi - self._offset
        self._shift = max(0, required.bit_length() - self.levels)

    def _ensure_domain(self, lower: int, upper: int) -> None:
        if self._offset is None:
            self._set_domain(lower, upper)
            return
        if lower >= self._offset and (upper - self._offset) >> self._shift < self._size:
            return
        lo = lower if self._fin_lo is None else min(self._fin_lo, lower)
        hi = upper if self._fin_hi is None else max(self._fin_hi, upper)
        self._set_domain(lo, hi)
        self._levels = [{} for _ in range(self.levels + 1)]
        self._finite_entries = 0
        for (s, e, i), mult in self._finite.items():
            for _ in range(mult):
                self._place(s, e, i)

    # ------------------------------------------------------------------
    # partition assignment
    # ------------------------------------------------------------------
    def _assignments(self, a: int, b: int) -> list[tuple[int, int, bool]]:
        """``(level, partition, is_original)`` cover of cell range [a, b].

        Walks the two bound prefixes bottom-up; a cell is split off
        whenever its prefix is odd-aligned (start side) or even-aligned
        (end side), exactly once per side per level, so every interval
        lands in at most two partitions per level and the assigned
        extents disjointly cover ``[a, b]``.  The single partition whose
        extent contains ``a`` is flagged as the *original*; every other
        assignment is a replica, skipped by non-first partitions of a
        query walk (the first-occurrence dedup rule).
        """
        out: list[tuple[int, int, bool]] = []
        level = self.levels
        start_assigned = False
        while True:
            if a & 1:
                out.append((level, a, not start_assigned))
                start_assigned = True
                a += 1
            if not b & 1:
                original = not start_assigned and b == a
                out.append((level, b, original))
                if original:
                    start_assigned = True
                b -= 1
            if a > b:
                return out
            a >>= 1
            b >>= 1
            level -= 1

    def _place(self, lower: int, upper: int, interval_id: int) -> int:
        """Insert one finite record into its partitions; entry count."""
        a = (lower - self._offset) >> self._shift
        b = (upper - self._offset) >> self._shift
        assignments = self._assignments(a, b)
        for level, pid, original in assignments:
            part = self._levels[level].get(pid)
            if part is None:
                part = (_Bucket(), _Bucket())
                self._levels[level][pid] = part
            part[0 if original else 1].add(lower, upper, interval_id)
        self._finite_entries += len(assignments)
        return len(assignments)

    def _displace(self, lower: int, upper: int, interval_id: int) -> None:
        a = (lower - self._offset) >> self._shift
        b = (upper - self._offset) >> self._shift
        for level, pid, original in self._assignments(a, b):
            parts = self._levels[level]
            part = parts[pid]
            part[0 if original else 1].remove(lower, upper, interval_id)
            if not part[0].s_ids and not part[1].s_ids:
                del parts[pid]
            self._finite_entries -= 1

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        node = sentinel_node(lower, upper, self._now)
        if node is not None:
            self._insert_side(node, lower, interval_id)
            return
        validate_interval(lower, upper)
        self._mutations += 1
        self._ensure_domain(lower, upper)
        self._place(lower, upper, interval_id)
        self._finite[(lower, upper, interval_id)] += 1
        self._finite_count += 1
        self._note_bounds(lower, upper)
        if self._fin_lo is None or lower < self._fin_lo:
            self._fin_lo = lower
        if self._fin_hi is None or upper > self._fin_hi:
            self._fin_hi = upper

    def append_batch(self, records, closes=()) -> None:
        """Streaming append: raw bucket appends, one resort per bucket.

        Every record and closure is checked first, so a rejected one
        leaves the store unchanged; sentinel rows then take the regular
        side-list inserts.  Finite rows
        are fitted under a single domain check over the batch envelope
        (a mid-batch refit would rebuild the levels from ``_finite``
        and drop the still-unsorted raw appends), appended unsorted to
        their assigned buckets, and every touched bucket is resorted
        once at the end -- O(k log k) per dirty bucket instead of O(k^2)
        bisect insertion for a batch that lands k records in one bucket.
        The closures take the base class's check-then-undo path.
        """
        records = list(records)
        finite: list[IntervalRecord] = []
        side: list[tuple[int, int, int]] = []
        lo: Optional[int] = None
        hi: Optional[int] = None
        now = self._now
        for lower, upper, interval_id in records:
            node = sentinel_node(lower, upper, now)
            if node is not None:
                side.append((node, lower, interval_id))
                continue
            validate_interval(lower, upper)
            finite.append((lower, upper, interval_id))
            if lo is None or lower < lo:
                lo = lower
            if hi is None or upper > hi:
                hi = upper
        closes = self._check_closes(closes)
        for node, lower, interval_id in side:
            self._insert_side(node, lower, interval_id)
        if finite:
            self._mutations += 1
            self._ensure_domain(lo, hi)
        dirty: dict[int, _Bucket] = {}
        for lower, upper, interval_id in finite:
            a = (lower - self._offset) >> self._shift
            b = (upper - self._offset) >> self._shift
            assignments = self._assignments(a, b)
            for level, pid, original in assignments:
                part = self._levels[level].get(pid)
                if part is None:
                    part = (_Bucket(), _Bucket())
                    self._levels[level][pid] = part
                bucket = part[0 if original else 1]
                bucket.append_raw(lower, upper, interval_id)
                dirty[id(bucket)] = bucket
            self._finite_entries += len(assignments)
            self._finite[(lower, upper, interval_id)] += 1
            self._finite_count += 1
            self._note_bounds(lower, upper)
            if self._fin_lo is None or lower < self._fin_lo:
                self._fin_lo = lower
            if self._fin_hi is None or upper > self._fin_hi:
                self._fin_hi = upper
        for bucket in dirty.values():
            bucket.resort()
        self._close_or_undo(closes, records)

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        node = sentinel_node(lower, upper, self._now)
        if node is not None:
            self._remove_side(*self._side(node), lower, interval_id)
            self._mutations += 1
            return
        record = (lower, upper, interval_id)
        if self._finite.get(record, 0) <= 0:
            raise KeyError(record)
        self._mutations += 1
        self._displace(lower, upper, interval_id)
        self._finite[record] -= 1
        if not self._finite[record]:
            del self._finite[record]
        self._finite_count -= 1

    def _note_bounds(self, lower: int, upper: int) -> None:
        if self._min_lower is None or lower < self._min_lower:
            self._min_lower = lower
        if self._max_upper is None or upper > self._max_upper:
            self._max_upper = upper

    # ------------------------------------------------------------------
    # temporal sentinels
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current clock value used for now-relative semantics."""
        return self._now

    def advance_to(self, now: int) -> None:
        """Move the clock forward; time never runs backwards."""
        if now < self._now:
            raise ValueError(f"clock moves forward only: {now} < now={self._now}")
        self._mutations += 1
        self._now = now

    def _side(self, node: int) -> tuple[list[int], list[int]]:
        """The ``(lowers, ids)`` side list of a reserved fork node."""
        if node == FORK_INF:
            return self._inf_lowers, self._inf_ids
        return self._now_lowers, self._now_ids

    def _insert_side(self, node: int, lower: int, interval_id: int) -> None:
        """Insert a validated sentinel row into its side list.

        A now-relative row's effective upper bound follows the clock
        without any maintenance: the side list keys on the lower bound
        only.
        """
        lowers, ids = self._side(node)
        self._mutations += 1
        i = bisect_right(lowers, lower)
        lowers.insert(i, lower)
        ids.insert(i, interval_id)
        self._note_bounds(lower, lower)

    @staticmethod
    def _remove_side(lowers, ids, lower, interval_id):
        i = bisect_left(lowers, lower)
        while i < len(lowers) and lowers[i] == lower:
            if ids[i] == interval_id:
                del lowers[i]
                del ids[i]
                return
            i += 1
        raise KeyError((lower, interval_id))

    @property
    def infinite_count(self) -> int:
        """Number of stored ``[s, oo)`` intervals."""
        return len(self._inf_ids)

    @property
    def now_relative_count(self) -> int:
        """Number of stored ``[s, now]`` intervals."""
        return len(self._now_ids)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def interval_count(self) -> int:
        return self._finite_count + len(self._inf_ids) + len(self._now_ids)

    @property
    def index_entry_count(self) -> int:
        return self._finite_entries + len(self._inf_ids) + len(self._now_ids)

    @property
    def partition_count(self) -> int:
        """Number of non-empty partitions across all levels."""
        return sum(len(parts) for parts in self._levels)

    def level_occupancy(self) -> list[tuple[int, int]]:
        """Per level: ``(partitions, entries)`` -- a structure summary."""
        out = []
        for parts in self._levels:
            entries = sum(len(p[0]) + len(p[1]) for p in parts.values())
            out.append((len(parts), entries))
        return out

    # ------------------------------------------------------------------
    # the intersection family (the comparison-free walks)
    # ------------------------------------------------------------------
    def _finite_ids(self, lower: int, upper: int, out: list[int]) -> None:
        """Append ids of finite records intersecting ``[lower, upper]``.

        One pass over the levels; per level the walk touches the
        partitions between the cells of the two query bounds.  Middle
        partitions contribute their originals wholesale (provably all
        matches, no comparisons); the two boundary partitions filter by
        a single ``bisect`` slice each; replicas are read only from the
        first partition (the dedup rule).  All bulk movement is C-level
        ``extend``/slicing -- Python frames stay O(levels), not
        O(results).
        """
        if self._offset is None:
            return
        pl = self._pos(lower)
        pu = self._pos(upper)
        m = self.levels
        for level in range(m, -1, -1):
            parts = self._levels[level]
            if not parts:
                continue
            shift = m - level
            f = pl >> shift
            t = pu >> shift
            if f == t:
                part = parts.get(f)
                if part is not None:
                    for b in part:
                        k = bisect_left(b.e_uppers, lower)
                        out.extend(
                            [
                                i
                                for s, i in zip(b.e_lowers[k:], b.e_ids[k:])
                                if s <= upper
                            ]
                        )
                continue
            part = parts.get(f)
            if part is not None:
                for b in part:
                    out.extend(b.e_ids[bisect_left(b.e_uppers, lower) :])
            for pid in range(f + 1, t):
                part = parts.get(pid)
                if part is not None:
                    out.extend(part[0].s_ids)
            part = parts.get(t)
            if part is not None:
                b = part[0]
                out.extend(b.s_ids[: bisect_right(b.s_lowers, upper)])

    def intersection(self, lower: int, upper: int) -> list[int]:
        validate_interval(lower, upper)
        out: list[int] = []
        self._finite_ids(lower, upper, out)
        out.extend(self._inf_ids[: bisect_right(self._inf_lowers, upper)])
        if lower <= self._now:
            out.extend(self._now_ids[: bisect_right(self._now_lowers, upper)])
        return out

    def intersection_count(self, lower: int, upper: int) -> int:
        """Count without materialising: every term is a ``bisect`` or a
        ``len`` over a sorted view, so whole-partition and boundary
        counts alike cost zero per-record Python work."""
        validate_interval(lower, upper)
        total = 0
        if self._offset is not None:
            pl = self._pos(lower)
            pu = self._pos(upper)
            m = self.levels
            for level in range(m, -1, -1):
                parts = self._levels[level]
                if not parts:
                    continue
                shift = m - level
                f = pl >> shift
                t = pu >> shift
                if f == t:
                    part = parts.get(f)
                    if part is not None:
                        # matches = n - #(e < l) - #(s > u); the two
                        # excluded sets are disjoint, so the count is a
                        # difference of two bisects.
                        for b in part:
                            total += bisect_right(b.s_lowers, upper) - bisect_left(
                                b.e_uppers, lower
                            )
                    continue
                part = parts.get(f)
                if part is not None:
                    for b in part:
                        total += len(b.e_uppers) - bisect_left(b.e_uppers, lower)
                for pid in range(f + 1, t):
                    part = parts.get(pid)
                    if part is not None:
                        total += len(part[0].s_ids)
                part = parts.get(t)
                if part is not None:
                    total += bisect_right(part[0].s_lowers, upper)
        total += bisect_right(self._inf_lowers, upper)
        if lower <= self._now:
            total += bisect_right(self._now_lowers, upper)
        return total

    # ------------------------------------------------------------------
    # predicate queries (inverse-candidate-range convention)
    # ------------------------------------------------------------------
    def _candidate_extent(self):
        """Conservative ``(floor, ceiling)`` over stored bounds, for the
        unbounded sides of ``before``/``after`` candidate ranges."""
        if self._min_lower is None:
            return None, None
        return self._min_lower, self._max_upper

    def _candidate_records(self, lower: int, upper: int) -> list:
        """``(lower, upper, id)`` triples intersecting ``[lower, upper]``,
        with *effective* upper bounds for sentinel rows (``UPPER_INF``
        stays symbolic; now-relative rows materialise the clock).  Same
        walk as :meth:`_finite_ids`, carrying bounds for the refine of
        every relation but ``before``/``after``."""
        out: list = []
        if self._offset is not None:
            pl = self._pos(lower)
            pu = self._pos(upper)
            m = self.levels
            for level in range(m, -1, -1):
                parts = self._levels[level]
                if not parts:
                    continue
                shift = m - level
                f = pl >> shift
                t = pu >> shift
                if f == t:
                    part = parts.get(f)
                    if part is not None:
                        for b in part:
                            k = bisect_left(b.e_uppers, lower)
                            out.extend(
                                [
                                    (s, e, i)
                                    for s, e, i in zip(
                                        b.e_lowers[k:], b.e_uppers[k:], b.e_ids[k:]
                                    )
                                    if s <= upper
                                ]
                            )
                    continue
                part = parts.get(f)
                if part is not None:
                    for b in part:
                        k = bisect_left(b.e_uppers, lower)
                        out.extend(zip(b.e_lowers[k:], b.e_uppers[k:], b.e_ids[k:]))
                for pid in range(f + 1, t):
                    part = parts.get(pid)
                    if part is not None:
                        b = part[0]
                        out.extend(zip(b.s_lowers, b.s_uppers, b.s_ids))
                part = parts.get(t)
                if part is not None:
                    b = part[0]
                    k = bisect_right(b.s_lowers, upper)
                    out.extend(zip(b.s_lowers[:k], b.s_uppers[:k], b.s_ids[:k]))
        k = bisect_right(self._inf_lowers, upper)
        out.extend(zip(self._inf_lowers[:k], repeat(UPPER_INF), self._inf_ids[:k]))
        if lower <= self._now:
            k = bisect_right(self._now_lowers, upper)
            out.extend(zip(self._now_lowers[:k], repeat(self._now), self._now_ids[:k]))
        return out

    def _candidate_window(self, pred, lower: int, upper: int):
        floor = ceiling = None
        if pred.needs_extent:
            floor, ceiling = self._candidate_extent()
            if floor is None:
                return None
        return pred.candidates(lower, upper, floor, ceiling)

    def _open_ended_ids(
        self, bound: str, lower: int, upper: int, window: tuple[int, int]
    ) -> list[int]:
        """Ids of records standing ``before``/``after`` ``[lower,
        upper]``, given the relation's candidate ``window``.

        ``bound`` is the predicate's ``disjoint`` side: ``"upper"`` for
        a single ``e < l`` atom (``before``), ``"lower"`` for ``s > u``.

        The window spans every stored lower bound a match can have, so
        each match's *original* partition lies on the level walk over
        it, and reading only originals reports every match exactly once
        (replicas start left of the window and never match).  Each
        touched partition contributes one ``bisect`` slice: a head of
        its upper-sorted view for ``before`` (``e < lower``), a tail of
        its lower-sorted view for ``after`` (``s > upper``); no
        candidate tuple is built and no ``holds`` runs.  Sentinel rows
        come from the side lists: ``[s, oo)`` rows are never before
        anything, ``[s, now]`` rows are before ``[lower, upper]`` iff
        the clock is.
        """
        before = bound == "upper"
        out: list[int] = []
        if self._offset is not None:
            pl = self._pos(window[0])
            pu = self._pos(window[1])
            m = self.levels
            for level in range(m, -1, -1):
                parts = self._levels[level]
                if not parts:
                    continue
                shift = m - level
                for pid in range(pl >> shift, (pu >> shift) + 1):
                    part = parts.get(pid)
                    if part is not None:
                        b = part[0]
                        if before:
                            out.extend(b.e_ids[: bisect_left(b.e_uppers, lower)])
                        else:
                            out.extend(b.s_ids[bisect_right(b.s_lowers, upper) :])
        if before:
            if self._now < lower:
                out.extend(self._now_ids)
        else:
            out.extend(self._inf_ids[bisect_right(self._inf_lowers, upper) :])
            out.extend(self._now_ids[bisect_right(self._now_lowers, upper) :])
        return out

    def _query_relation(self, pred, lower: int, upper: int) -> list[int]:
        window = self._candidate_window(pred, lower, upper)
        if window is None:
            return []
        if pred.disjoint:
            return self._open_ended_ids(pred.disjoint, lower, upper, window)
        holds = pred.holds
        return [
            i
            for s, e, i in self._candidate_records(*window)
            if holds(s, e, lower, upper)
        ]

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def join_pairs(
        self, probes: Sequence[IntervalRecord], *, predicate=None
    ) -> list[tuple[int, int]]:
        pred = resolve_join_predicate(predicate)
        pairs: list[tuple[int, int]] = []
        if pred is None:
            inf_lowers = self._inf_lowers
            now_lowers = self._now_lowers
            for lower, upper, probe_id in probes:
                validate_interval(lower, upper)
                ids: list[int] = []
                self._finite_ids(lower, upper, ids)
                ids.extend(self._inf_ids[: bisect_right(inf_lowers, upper)])
                if lower <= self._now:
                    ids.extend(self._now_ids[: bisect_right(now_lowers, upper)])
                pairs.extend(zip(repeat(probe_id), ids))
            return pairs
        inverse = pred.inverse
        holds = pred.holds
        floor = ceiling = None
        if inverse.needs_extent:
            floor, ceiling = self._candidate_extent()
            if floor is None:
                return []
        for lower, upper, probe_id in probes:
            validate_interval(lower, upper)
            window = inverse.candidates(lower, upper, floor, ceiling)
            if window is None:
                continue
            if inverse.disjoint:
                ids = self._open_ended_ids(inverse.disjoint, lower, upper, window)
                pairs.extend(zip(repeat(probe_id), ids))
                continue
            pairs.extend(
                [
                    (probe_id, interval_id)
                    for s, e, interval_id in self._candidate_records(*window)
                    if holds(lower, upper, s, e)
                ]
            )
        return pairs

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def stored_records(self) -> list[IntervalRecord]:
        """Every stored record; now-relative rows materialise the
        current clock, infinite rows keep the ``UPPER_INF`` sentinel."""
        out: list[IntervalRecord] = []
        for record, mult in self._finite.items():
            out.extend(repeat(record, mult))
        out.extend(zip(self._inf_lowers, repeat(UPPER_INF), self._inf_ids))
        out.extend(zip(self._now_lowers, repeat(self._now), self._now_ids))
        return out

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def analyze(self, buckets: int = DEFAULT_BUCKETS) -> StoreStatistics:
        """The ANALYZE pass: a snapshot of the stored records.

        The geometry is ``memory_resident`` -- the store lives in
        memory, so the shared model prices no physical reads.  The
        virtual backbone is empty: the transient-entry terms it would
        feed price only the logical reads and frames
        :class:`HintCostModel` replaces.
        """
        records = self.stored_records()
        geometry = memory_resident_geometry(len(records), self.partition_count)
        return StoreStatistics(
            BoundSummary.from_records(records, buckets),
            VirtualBackbone(),
            replace(geometry, memory_resident=True),
        )

    def cost_model(self, refresh: bool = False) -> "HintCostModel":
        if (
            self._cost_model is None
            or refresh
            or self._cost_model_version != self._mutations
        ):
            self._cost_model = HintCostModel(self.analyze(), self.levels)
            self._cost_model_version = self._mutations
        return self._cost_model

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _verify_into(self, report: VerificationReport) -> None:
        super()._verify_into(report)
        self._verify_domain(report)
        self._verify_partitions(report)
        self._verify_side_lists(report)
        report.add_check("index-entry-count")
        placed = sum(
            len(p[0]) + len(p[1]) for parts in self._levels for p in parts.values()
        )
        expected_entries = placed + len(self._inf_ids) + len(self._now_ids)
        if expected_entries != self.index_entry_count:
            report.add_issue(
                "entry-count-mismatch",
                f"partitions hold {placed} entries but the store "
                f"accounts {self.index_entry_count}",
                {"placed": placed, "accounted": self.index_entry_count},
            )

    def _verify_domain(self, report: VerificationReport) -> None:
        report.add_check("partition-domain")
        if self._finite and self._offset is None:
            report.add_issue(
                "domain-unset", "finite records stored but no domain mapping fitted"
            )
            return
        for lower, upper, interval_id in self._finite:
            if self._offset is None:
                break
            a = (lower - self._offset) >> self._shift
            b = (upper - self._offset) >> self._shift
            if not (0 <= a <= b < self._size):
                report.add_issue(
                    "record-outside-domain",
                    f"record ({lower}, {upper}, {interval_id}) maps to "
                    f"cells [{a}, {b}] outside [0, {self._size - 1}]",
                    {"record": [lower, upper, interval_id]},
                )

    def _verify_partitions(self, report: VerificationReport) -> None:
        report.add_check("partition-assignment")
        report.add_check("replication-dedup")
        report.add_check("partition-sort-order")
        if self._offset is None:
            return
        expected: Counter = Counter()
        for (lower, upper, interval_id), mult in self._finite.items():
            a = (lower - self._offset) >> self._shift
            b = (upper - self._offset) >> self._shift
            assignments = self._assignments(a, b)
            originals = [(level, pid) for level, pid, orig in assignments if orig]
            if len(originals) != 1:
                report.add_issue(
                    "replication-dedup",
                    f"record ({lower}, {upper}, {interval_id}) has "
                    f"{len(originals)} original assignments, expected 1",
                    {"record": [lower, upper, interval_id]},
                )
            else:
                level, pid = originals[0]
                if a >> (self.levels - level) != pid:
                    report.add_issue(
                        "replication-dedup",
                        f"original partition {pid} at level {level} does "
                        f"not contain the start cell of record "
                        f"({lower}, {upper}, {interval_id})",
                        {"record": [lower, upper, interval_id]},
                    )
            for level, pid, orig in assignments:
                expected[(level, pid, orig, (lower, upper, interval_id))] += mult
        actual: Counter = Counter()
        for level, parts in enumerate(self._levels):
            for pid, part in parts.items():
                for orig, bucket in ((True, part[0]), (False, part[1])):
                    n = len(bucket.s_ids)
                    lists = (
                        bucket.s_lowers,
                        bucket.s_uppers,
                        bucket.e_uppers,
                        bucket.e_lowers,
                        bucket.e_ids,
                    )
                    if any(len(lst) != n for lst in lists):
                        report.add_issue(
                            "partition-sort-order",
                            f"ragged parallel arrays in level {level} partition {pid}",
                            {"level": level, "partition": pid},
                        )
                        continue
                    if not all(map(_is_sorted, (bucket.s_lowers, bucket.e_uppers))):
                        report.add_issue(
                            "partition-sort-order",
                            f"unsorted view in level {level} partition {pid}",
                            {"level": level, "partition": pid},
                        )
                    by_start = Counter(
                        zip(bucket.s_lowers, bucket.s_uppers, bucket.s_ids)
                    )
                    by_end = Counter(
                        zip(bucket.e_lowers, bucket.e_uppers, bucket.e_ids)
                    )
                    if by_start != by_end:
                        report.add_issue(
                            "partition-sort-order",
                            f"by-start and by-end views disagree in "
                            f"level {level} partition {pid}",
                            {"level": level, "partition": pid},
                        )
                    for record, count in by_start.items():
                        actual[(level, pid, orig, record)] += count
        if expected != actual:
            missing = expected - actual
            extra = actual - expected
            report.add_issue(
                "partition-assignment",
                f"partition contents disagree with the assignment rule: "
                f"{sum(missing.values())} entries missing, "
                f"{sum(extra.values())} unexpected",
                {"missing": sum(missing.values()), "extra": sum(extra.values())},
            )

    def _verify_side_lists(self, report: VerificationReport) -> None:
        report.add_check("temporal-rows")
        for label, lowers, ids in (
            ("infinite", self._inf_lowers, self._inf_ids),
            ("now", self._now_lowers, self._now_ids),
        ):
            if len(lowers) != len(ids):
                report.add_issue(
                    "temporal-rows", f"ragged {label} side list", {"side": label}
                )
            if any(x > y for x, y in zip(lowers, lowers[1:])):
                report.add_issue(
                    "temporal-rows", f"unsorted {label} side list", {"side": label}
                )
        if any(lower > self._now for lower in self._now_lowers):
            report.add_issue(
                "temporal-rows",
                f"now-relative row starts after the clock ({self._now})",
                {"side": "now"},
            )


class HintCostModel(RITreeCostModel):
    """Join planner over a main-memory HINT store.

    Reuses the RI-tree model's selectivity machinery (histogram
    convolution, expected pair counts) over the store's
    :meth:`HintStore.analyze` snapshot, whose memory-resident geometry
    prices **zero physical reads** on both strategies.  The index
    path's frame term is replaced with the HINT walk's
    O(``levels``)-per-probe shape.  With physical reads tied at zero,
    :class:`JoinEstimate`'s choice falls through to the Python-frame
    comparison: exactly the memory-vs-disk planning axis ``AutoJoin``
    needs.
    """

    def __init__(self, statistics: StoreStatistics, levels: int) -> None:
        super().__init__(statistics, cache_residency=1.0)
        self.levels = levels

    def estimate_join(
        self, outer: Sequence[IntervalRecord], predicate=None
    ) -> JoinEstimate:
        estimate = super().estimate_join(outer, predicate=predicate)
        estimate.index = replace(
            estimate.index,
            logical_reads=0.0,
            frame_cost=self._hint_frames(len(outer), estimate.result_count, predicate),
        )
        return estimate

    def _hint_frames(self, probes: int, pairs: float, predicate) -> float:
        levels = self.levels + 1
        per_probe = HINT_FRAMES_PER_PROBE + HINT_FRAMES_PER_LEVEL * levels
        per_pair = (
            HINT_FRAMES_PER_PAIR
            if resolve_join_predicate(predicate) is None
            else HINT_FRAMES_PER_CANDIDATE
        )
        return probes * per_probe + pairs * per_pair
