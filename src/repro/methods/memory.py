"""The oracle store: a brute-force scan behind the full store contract.

:class:`BruteForceIntervals` is the trivial O(n) scanner behind the
:class:`~repro.core.access.IntervalStore` contract, temporal rows
included; it is the ground truth every test and benchmark compares the
store under test against.  Its code shares nothing with the index
structures it checks: every answer is the predicate formula applied to
the stored rows.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..core.access import IntervalRecord, IntervalStore
from ..core.interval import validate_interval
from ..core.temporal import UPPER_NOW, sentinel_node
from ..engine.serial import INT_MIN


class BruteForceIntervals(IntervalStore):
    """Ground-truth oracle: a multiset of raw records and a clock, scanned.

    The reference store every test and benchmark feeds the operations of
    the store under test.  Rows are kept raw, now-relative rows under
    :data:`~repro.core.temporal.UPPER_NOW` and infinite rows under
    :data:`~repro.core.temporal.UPPER_INF`, as :meth:`insert` and
    :meth:`delete` receive them, repeated records with their
    multiplicity.  Only the abstract core, :meth:`stored_records` and the
    Section 4.6 clock live here; queries, joins, counts and
    ``append_batch`` (closures included) are the
    :class:`~repro.core.access.IntervalStore` defaults, the reads among
    them filtering :meth:`stored_records` with the predicate formula.  The clock starts
    below every bound, so the first :meth:`advance_to` may set any value.
    """

    method_name = "brute-force"

    def __init__(self, intervals: Iterable[IntervalRecord] = ()) -> None:
        self._rows: Counter[IntervalRecord] = Counter()
        self._now = INT_MIN
        for lower, upper, interval_id in intervals:
            self.insert(lower, upper, interval_id)

    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        self._check_record(lower, upper)
        self._rows[(lower, upper, interval_id)] += 1

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        sentinel_node(lower, upper, self._now)  # refuses as insert does
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
