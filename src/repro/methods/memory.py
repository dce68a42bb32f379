"""Main-memory interval structures (paper Section 2.1).

These are the classical computational-geometry structures the paper builds
on and virtualises:

* :class:`BruteForceIntervals` -- the trivial O(n) scanner behind the full
  :class:`~repro.core.access.IntervalStore` contract, temporal rows
  included; ground truth for every test and benchmark.
* :class:`IntervalTree` -- Edelsbrunner's interval tree [Ede 80] in its
  original three-fold form (materialised balanced backbone over the bounding
  points, sorted L(w)/U(w) secondary lists).  The RI-tree is exactly this
  structure with the primary structure virtualised and the secondary lists
  mapped to relational indexes, so this class doubles as an independent
  correctness oracle whose code shares nothing with :mod:`repro.core`.
* :class:`SegmentTree` -- Bentley's segment tree with canonical interval
  decomposition (the structure whose redundancy the interval tree avoids,
  Section 3.1).
* :class:`PrioritySearchTree` -- McCreight's priority search tree, the
  third classical structure Section 2.1 names: a balanced tree on the
  lower bounds carrying a max-heap on the upper bounds, answering the
  two-sided query ``lower <= u AND upper >= l`` in O(log n + r).

These are static or semi-static main-memory structures; their "limitation
... do not meet the characteristics of secondary storage" (Section 2.1) is
precisely what motivates the paper.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from typing import Iterable, Optional, Sequence

from ..core.access import IntervalRecord, IntervalStore
from ..core.interval import validate_interval
from ..core.temporal import UPPER_INF, UPPER_NOW
from ..engine.serial import INT_MIN


class BruteForceIntervals(IntervalStore):
    """Ground-truth oracle: a multiset of raw records and a clock, scanned.

    The reference store every test and benchmark feeds the operations of
    the store under test.  Rows are kept raw, now-relative rows under
    :data:`~repro.core.temporal.UPPER_NOW` and infinite rows under
    :data:`~repro.core.temporal.UPPER_INF` (sentinel uppers passed to
    :meth:`insert` / :meth:`delete` route there, as on HINT), repeated
    records with their multiplicity.  Only the abstract core,
    :meth:`stored_records` and the Section 4.6 temporal entry points live
    here; queries, joins, counts and ``append_batch`` are the
    :class:`~repro.core.access.IntervalStore` defaults, which filter
    :meth:`stored_records` with the predicate formula.  The clock starts
    below every bound, so the first :meth:`advance_to` may set any value.
    """

    method_name = "brute-force"

    def __init__(self, intervals: Iterable[IntervalRecord] = ()) -> None:
        self._rows: Counter[IntervalRecord] = Counter()
        self._now = INT_MIN
        for lower, upper, interval_id in intervals:
            self.insert(lower, upper, interval_id)

    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        if upper == UPPER_INF:
            self.insert_infinite(lower, interval_id)
        elif upper == UPPER_NOW:
            self.insert_until_now(lower, interval_id)
        else:
            validate_interval(lower, upper)
            self._rows[(lower, upper, interval_id)] += 1

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        row = (lower, upper, interval_id)
        if self._rows[row] <= 0:
            raise KeyError(row)
        self._rows[row] -= 1  # zero counts drop out of elements()/total()

    def intersection(self, lower: int, upper: int) -> list[int]:
        validate_interval(lower, upper)
        return [i for s, e, i in self.stored_records()
                if s <= upper and e >= lower]

    def stored_records(self) -> list[IntervalRecord]:
        """Every row; now-relative rows report the clock as their upper,
        infinite rows keep the ``UPPER_INF`` sentinel."""
        now = self._now
        return [(s, now if e == UPPER_NOW else e, i)
                for s, e, i in self._rows.elements()]

    @property
    def interval_count(self) -> int:
        return self._rows.total()

    index_entry_count = interval_count

    # ------------------------------------------------------------------
    # temporal rows (paper Section 4.6)
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current clock value used for now-relative semantics."""
        return self._now

    def advance_to(self, now: int) -> None:
        """Move the clock forward; time never runs backwards."""
        if now < self._now:
            raise ValueError(f"clock moves forward only: {now} < now={self._now}")
        self._now = now

    def insert_infinite(self, lower: int, interval_id: int) -> None:
        """Insert the open-ended interval ``[lower, infinity)``."""
        validate_interval(lower, lower)
        self._rows[(lower, UPPER_INF, interval_id)] += 1

    def insert_until_now(self, lower: int, interval_id: int) -> None:
        """Insert the now-relative interval ``[lower, now]``."""
        validate_interval(lower, lower)
        if lower > self._now:
            raise ValueError(
                f"now-relative interval starts at {lower}, after now={self._now}")
        self._rows[(lower, UPPER_NOW, interval_id)] += 1

    def delete_infinite(self, lower: int, interval_id: int) -> None:
        """Delete an infinite interval by its lower bound and id."""
        self.delete(lower, UPPER_INF, interval_id)

    def delete_until_now(self, lower: int, interval_id: int) -> None:
        """Delete a now-relative interval by its lower bound and id."""
        self.delete(lower, UPPER_NOW, interval_id)

    def close_now_interval(self, lower: int, interval_id: int, upper: int) -> None:
        """Terminate ``[lower, now]`` at a fixed ``upper``."""
        validate_interval(lower, upper)
        self.delete_until_now(lower, interval_id)
        self.insert(lower, upper, interval_id)


class _ITNode:
    """One node of the materialised interval-tree backbone."""

    __slots__ = ("value", "left", "right", "lowers", "uppers")

    def __init__(self, value: int) -> None:
        self.value = value
        self.left: Optional[_ITNode] = None
        self.right: Optional[_ITNode] = None
        # L(w): (lower, id) ascending; U(w): (upper, id) ascending.
        self.lowers: list[tuple[int, int]] = []
        self.uppers: list[tuple[int, int]] = []


class IntervalTree:
    """Edelsbrunner's interval tree over a fixed set of bounding points.

    The primary structure is a balanced binary tree over the sorted
    bounding-point universe supplied at construction; intervals may be added
    and removed dynamically as long as their bounds come from that universe
    (the classical "static universe, dynamic set" setting the paper departs
    from with its virtual backbone).
    """

    def __init__(self, points: Sequence[int]) -> None:
        universe = sorted(set(points))
        if not universe:
            raise ValueError("interval tree needs a non-empty point universe")
        self._universe = universe
        self._root = self._build(0, len(universe) - 1)
        self._count = 0

    def _build(self, lo: int, hi: int) -> Optional[_ITNode]:
        if lo > hi:
            return None
        mid = (lo + hi) // 2
        node = _ITNode(self._universe[mid])
        node.left = self._build(lo, mid - 1)
        node.right = self._build(mid + 1, hi)
        return node

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Register an interval at its fork node."""
        validate_interval(lower, upper)
        node = self._fork(lower, upper)
        insort(node.lowers, (lower, interval_id))
        insort(node.uppers, (upper, interval_id))
        self._count += 1

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Remove an interval registered earlier."""
        node = self._fork(lower, upper)
        try:
            node.lowers.remove((lower, interval_id))
            node.uppers.remove((upper, interval_id))
        except ValueError:
            raise KeyError((lower, upper, interval_id)) from None
        self._count -= 1

    def _fork(self, lower: int, upper: int) -> _ITNode:
        node = self._root
        while node is not None:
            if upper < node.value:
                node = node.left
            elif node.value < lower:
                node = node.right
            else:
                return node
        raise ValueError(
            f"interval ({lower}, {upper}) does not embrace any universe point"
        )

    # ------------------------------------------------------------------
    # queries (the three descents of paper Section 4.1)
    # ------------------------------------------------------------------
    def intersection(self, lower: int, upper: int) -> list[int]:
        """Ids of all registered intervals intersecting ``[lower, upper]``."""
        validate_interval(lower, upper)
        results: list[int] = []
        # Descent 1: root to the fork node of the query.
        node = self._root
        while node is not None:
            if upper < node.value:
                self._scan_lowers(node, upper, results)
                node = node.left
            elif node.value < lower:
                self._scan_uppers(node, lower, results)
                node = node.right
            else:
                break
        if node is None:
            return results
        # The fork itself: every interval here contains a common point.
        results.extend(interval_id for _, interval_id in node.lowers)
        # Descent 2: fork's left child toward lower.
        current = node.left
        while current is not None:
            if current.value < lower:
                self._scan_uppers(current, lower, results)
                current = current.right
            else:
                results.extend(i for _, i in current.lowers)
                self._report_subtree(current.right, results)
                current = current.left
        # Descent 3: fork's right child toward upper.
        current = node.right
        while current is not None:
            if upper < current.value:
                self._scan_lowers(current, upper, results)
                current = current.left
            else:
                results.extend(i for _, i in current.lowers)
                self._report_subtree(current.left, results)
                current = current.right
        return results

    def stab(self, point: int) -> list[int]:
        """Stabbing query (degenerate intersection)."""
        return self.intersection(point, point)

    @staticmethod
    def _scan_lowers(node: _ITNode, upper: int, results: list[int]) -> None:
        """Report intervals at ``node`` with lower <= query upper."""
        idx = bisect_right(node.lowers, (upper, float("inf")))
        results.extend(interval_id for _, interval_id in node.lowers[:idx])

    @staticmethod
    def _scan_uppers(node: _ITNode, lower: int, results: list[int]) -> None:
        """Report intervals at ``node`` with upper >= query lower."""
        idx = bisect_left(node.uppers, (lower, float("-inf")))
        results.extend(interval_id for _, interval_id in node.uppers[idx:])

    def _report_subtree(self, node: Optional[_ITNode], results: list[int]) -> None:
        if node is None:
            return
        results.extend(interval_id for _, interval_id in node.lowers)
        self._report_subtree(node.left, results)
        self._report_subtree(node.right, results)

    def __len__(self) -> int:
        return self._count


class SegmentTree:
    """Bentley's segment tree over a fixed endpoint universe.

    Intervals are *decomposed* into O(log n) canonical node fragments -- the
    redundancy that Edelsbrunner's structure (and hence the RI-tree) avoids.
    ``redundancy`` reports the realised duplication factor.
    """

    def __init__(self, points: Sequence[int]) -> None:
        universe = sorted(set(points))
        if not universe:
            raise ValueError("segment tree needs a non-empty point universe")
        self._points = universe
        size = 1
        while size < len(universe):
            size *= 2
        self._size = size
        self._nodes: list[list[IntervalRecord]] = [[] for _ in range(2 * size)]
        self._count = 0
        self._fragments = 0
        # Sorted lower bounds support intersection via stab + range scan.
        self._by_lower: list[tuple[int, int, int]] = []

    def _leaf_index(self, point: int) -> int:
        idx = bisect_left(self._points, point)
        if idx >= len(self._points) or self._points[idx] != point:
            raise ValueError(f"point {point} not in the endpoint universe")
        return idx

    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Insert via canonical decomposition over universe slots."""
        validate_interval(lower, upper)
        lo = self._leaf_index(lower)
        hi = self._leaf_index(upper)
        record = (lower, upper, interval_id)
        self._place(1, 0, self._size - 1, lo, hi, record)
        insort(self._by_lower, (lower, upper, interval_id))
        self._count += 1

    def _place(
        self,
        node: int,
        node_lo: int,
        node_hi: int,
        lo: int,
        hi: int,
        record: IntervalRecord,
    ) -> None:
        if hi < node_lo or node_hi < lo:
            return
        if lo <= node_lo and node_hi <= hi:
            self._nodes[node].append(record)
            self._fragments += 1
            return
        mid = (node_lo + node_hi) // 2
        self._place(2 * node, node_lo, mid, lo, hi, record)
        self._place(2 * node + 1, mid + 1, node_hi, lo, hi, record)

    def stab(self, point: int) -> list[int]:
        """Ids of intervals containing ``point`` (root-to-leaf walk)."""
        idx = bisect_right(self._points, point) - 1
        if idx < 0:
            return []
        # The slot of `point` is the one whose representative leaf precedes
        # or equals it; exact containment is re-checked per record.
        results: list[int] = []
        node, node_lo, node_hi = 1, 0, self._size - 1
        while True:
            results.extend(
                interval_id
                for lower, upper, interval_id in self._nodes[node]
                if lower <= point <= upper
            )
            if node_lo == node_hi:
                break
            mid = (node_lo + node_hi) // 2
            if idx <= mid:
                node, node_hi = 2 * node, mid
            else:
                node, node_lo = 2 * node + 1, mid + 1
        return results

    def intersection(self, lower: int, upper: int) -> list[int]:
        """stab(lower) plus every interval starting inside ``(lower, upper]``."""
        validate_interval(lower, upper)
        results = self.stab(lower)
        start = bisect_right(self._by_lower, (lower, float("inf"), float("inf")))
        end = bisect_right(self._by_lower, (upper, float("inf"), float("inf")))
        results.extend(interval_id for _, __, interval_id in self._by_lower[start:end])
        return results

    @property
    def redundancy(self) -> float:
        """Canonical fragments per stored interval (>= 1)."""
        if self._count == 0:
            return 0.0
        return self._fragments / self._count

    def __len__(self) -> int:
        return self._count


class _PSTNode:
    """One node: the heap record plus the lower-bound split key."""

    __slots__ = ("record", "split", "left", "right")

    def __init__(self, record: IntervalRecord, split: int) -> None:
        self.record = record
        self.split = split
        self.left: Optional["_PSTNode"] = None
        self.right: Optional["_PSTNode"] = None


class PrioritySearchTree:
    """McCreight's priority search tree over a static record set.

    The tree is balanced on the *lower* bounds and heap-ordered (max) on
    the *upper* bounds.  An intersection query ``[l, u]`` reports exactly
    the records with ``lower <= u`` and ``upper >= l``: the search walks
    only subtrees whose heap maximum still reaches ``l`` and whose
    lower-bound range still starts at or below ``u``, giving O(log n + r).
    """

    def __init__(self, records: Sequence[IntervalRecord]) -> None:
        self._records = list(records)
        by_lower = sorted(self._records)
        self._root = self._build(by_lower)

    def _build(self, records: list[IntervalRecord]) -> Optional[_PSTNode]:
        if not records:
            return None
        # The heap root is the record with the maximal upper bound; the
        # remaining records split at the median lower bound.
        top_index = max(range(len(records)), key=lambda i: records[i][1])
        top = records[top_index]
        rest = records[:top_index] + records[top_index + 1 :]
        if not rest:
            return _PSTNode(top, top[0])
        mid = len(rest) // 2
        node = _PSTNode(top, rest[mid][0])
        node.left = self._build(rest[:mid])
        node.right = self._build(rest[mid:])
        return node

    def intersection(self, lower: int, upper: int) -> list[int]:
        """Ids of stored intervals intersecting ``[lower, upper]``."""
        validate_interval(lower, upper)
        results: list[int] = []
        self._query(self._root, lower, upper, results)
        return results

    def _query(
        self, node: Optional[_PSTNode], lower: int, upper: int, results: list[int]
    ) -> None:
        if node is None:
            return
        s, e, interval_id = node.record
        if e < lower:
            # Heap order: nothing below reaches the query either.
            return
        if s <= upper:
            results.append(interval_id)
        self._query(node.left, lower, upper, results)
        # Right subtree holds records with lower >= split only.
        if node.split <= upper:
            self._query(node.right, lower, upper, results)

    def stab(self, point: int) -> list[int]:
        """Ids of stored intervals containing ``point``."""
        return self.intersection(point, point)

    def __len__(self) -> int:
        return len(self._records)
