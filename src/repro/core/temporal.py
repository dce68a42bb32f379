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
rows the same way: :meth:`~repro.core.ritree.RITree._reserved_nodes`
names the reserved nodes to every plan
:meth:`~repro.core.ritree.RITree.plan` compiles, and they join the exact
backbone-path scans.

This module holds the Section 4.6 vocabulary every store shares: the
reserved nodes and sentinel uppers, :func:`sentinel_node` and
:func:`check_closures`.  The stores themselves --
:class:`~repro.core.ritree.RITree`, :class:`~repro.sql.SQLRITree`,
:class:`~repro.core.hint.HintStore` and the router -- each keep finite
and Section 4.6 rows in one structure.
"""

from __future__ import annotations

from typing import Optional

from .interval import validate_interval

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
    (:class:`ValueError`).  Every store with a clock calls this from
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


def __getattr__(name: str):
    # The former name of the Section 4.6 disk tree: :class:`RITree`
    # stores these rows itself, so the name resolves to it.
    if name == "TemporalRITree":
        from .ritree import RITree

        return RITree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
