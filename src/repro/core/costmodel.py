"""Optimizer cost model for RI-tree joins (paper Section 5).

"With a cost model registered at the optimizer, the server is able to
generate efficient execution plans for queries on interval data types."
This module supplies that component for the interval join: selectivity
estimation from bound histograms plus an I/O model of the Figure 10
access plan, so the join planner can decide between probing the RI-tree
and a plane sweep without executing anything.

Estimation model
----------------
An interval intersects ``[l, u]`` iff ``lower <= u`` and ``upper >= l``, so

    r(l, u)  =  n - #{lower > u} - #{upper < l}

which needs only the two marginal cumulative distributions of the bounds.
The model keeps equi-depth histograms of both.  It reads them, with the
virtual backbone and the index geometry, from one
:class:`StoreStatistics` snapshot that the store's own ``analyze()``
method takes -- its ANALYZE pass.  The engine RI-tree reads the bound
columns of its two composite indexes, the sqlite RI-tree aggregates them
in SQL and reads sqlite's page counts, and the HINT store and the
router summarise their stored records.  Every backend-specific fact
lives in the module that owns the backend; the model is a pure function
of the snapshot.

The I/O model follows Section 4.4: each of the O(h) transient entries costs
one index descent of ``ceil(log_b n)`` block reads, and the result blocks
add ``r / entries_per_leaf``; a buffer-cache residency factor discounts the
repeated upper-level reads, matching the warm-cache behaviour of the
benchmark harness.

Join estimation
---------------
:class:`JoinEstimate` extends the model to the interval equi-overlap join
``R JOIN S``: the expected pair count convolves both sides' bound
histograms,

    E[pairs] = n_R * n_S * ( E_{u ~ R.upper}[F_S.lower(u)]
                             - E_{l ~ R.lower}[F_S.upper(l - 1)] )

(the per-probe identity above, averaged over the outer side's bound
distributions), and per-strategy cost formulas predict logical reads,
physical reads, and Python-frame work for the index-nested-loop join
against an RI-tree versus the sort-based plane sweep.  All pricing runs
through :meth:`RITreeCostModel.estimate_join`; the engine-free
:func:`choose_join_strategy` is that method over a snapshot of the
raw inner records with :func:`analytic_geometry`.  Both
feed the ``auto`` strategy of :mod:`repro.core.join`, which dispatches
to the predicted-cheaper strategy.  The physical model for repeated
index probes is a two-regime LRU approximation in the spirit of Mackert
& Lohman's buffer model: leaf sets that fit the cache are read at most
once, larger leaf sets pay a steady-state miss rate damped by a
calibrated locality factor (probe locality on bulk-loaded indexes is far
better than uniform).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..engine.buffer import DEFAULT_CACHE_BLOCKS
from ..engine.serial import PAGE_HEADER_SIZE
from ..engine.storage import DEFAULT_BLOCK_SIZE
from .access import IntervalRecord
from .backbone import VirtualBackbone
from .interval import validate_interval
from .predicates import resolve_join_predicate
from .transient import collect_query_nodes

#: Default number of histogram buckets (equi-depth boundaries kept).
DEFAULT_BUCKETS = 128

#: How many outer records are probed against the virtual backbone (pure
#: arithmetic, no I/O) to estimate the average transient-entry count.
TRANSIENT_SAMPLE = 64

#: Bytes per serialised integer column (engine-wide fixed width).
_INT_BYTES = 8

#: Leaf-miss damping for the over-cache LRU regime: probe streams against
#: a bulk-loaded index are strongly clustered (consecutive transient
#: entries of one probe land on neighbouring leaves), so the steady-state
#: uniform miss rate overshoots.  Calibrated against the measured
#: crossover grid of ``benchmarks/bench_join_crossover.py``.
LEAF_MISS_LOCALITY = 0.1

#: Fraction of transient-entry scans that land on a *new* leaf block:
#: within one probe the scan plan walks node ranges in key order, so many
#: of its O(h) range scans hit the leaf the previous range ended on (or
#: an empty gap inside it).  Feeds the Yao distinct-block estimate below;
#: calibrated alongside :data:`LEAF_MISS_LOCALITY`.
SCAN_LEAF_DISTINCT = 0.25

# Python-frame cost constants, calibrated with the profile-hook counter of
# benchmarks/benchlib.py on the crossover grid (least-squares fit over
# count-path runs; the planner only compares strategies with them, so
# order-of-magnitude fidelity is what matters).
SWEEP_FRAMES_PER_INPUT = 1.0
SWEEP_FRAMES_PER_PAIR = 1.0
INDEX_FRAMES_PER_PROBE = 8.0
INDEX_FRAMES_PER_SCAN = 4.8
INDEX_FRAMES_PER_LEAF = 40.0

#: Python frames per fetched candidate record in a predicate join's
#: leaf-slice refinement: one ``holds`` activation per record (the
#: listcomp itself runs at C speed).
INDEX_FRAMES_PER_CANDIDATE = 1.2

#: Fraction of predicate-join candidate scans landing on a new leaf
#: block.  Candidate ranges are stabs/prefixes at *per-probe* positions
#: scattered across the data space, so consecutive scans cluster far
#: less than one intersection probe's node ranges do
#: (:data:`SCAN_LEAF_DISTINCT`); calibrated against the measured
#: predicate-join grid of ``benchmarks/bench_predicate_join.py``.
PREDICATE_SCAN_LEAF_DISTINCT = 0.4


def heap_scan_blocks(
    rows: int, columns: int, block_size: int = DEFAULT_BLOCK_SIZE
) -> int:
    """Blocks of a heap file holding ``rows`` fixed-width integer rows.

    Mirrors :class:`repro.engine.heap.HeapFile`'s layout: one live flag
    plus ``columns`` integers per slot, ``PAGE_HEADER_SIZE`` bytes of page
    header -- the cost of one sequential relation scan.
    """
    if rows <= 0:
        return 0
    slot_bytes = _INT_BYTES * (columns + 1)
    per_page = max(1, (block_size - PAGE_HEADER_SIZE) // slot_bytes)
    return -(-rows // per_page)


def _page_capacities(key_columns: int, block_size: int) -> tuple[int, int]:
    """Entries per leaf page and per internal page of a B+-tree index.

    Mirrors :class:`repro.engine.bptree.BPlusTree`'s page layout (key
    columns plus rowid per entry, internal pages with 8-byte child
    pointers).
    """
    entry_bytes = _INT_BYTES * (key_columns + 1)
    leaf_capacity = max(4, (block_size - PAGE_HEADER_SIZE) // entry_bytes)
    internal_capacity = max(4, (block_size - PAGE_HEADER_SIZE - 8) // (entry_bytes + 8))
    return leaf_capacity, internal_capacity


def index_geometry(
    entries: int, key_columns: int, block_size: int = DEFAULT_BLOCK_SIZE
) -> tuple[int, int]:
    """``(height, leaf_capacity)`` of a B+-tree index without building it,
    so the engine-free planner prices descents with the same geometry the
    engine would realise."""
    leaf_capacity, internal_capacity = _page_capacities(key_columns, block_size)
    height = 1
    pages = -(-max(entries, 1) // leaf_capacity)
    while pages > 1:
        height += 1
        pages = -(-pages // internal_capacity)
    return height, leaf_capacity


def index_internal_blocks(
    entries: int, leaf_capacity: int, internal_capacity: int
) -> int:
    """Non-leaf block count of one B+-tree with ``entries`` entries."""
    pages = -(-max(entries, 1) // max(1, leaf_capacity))
    internal = 0
    while pages > 1:
        pages = -(-pages // max(4, internal_capacity))
        internal += pages
    return internal


class BoundSummary:
    """Equi-depth histograms of one relation's lower and upper bounds.

    The reusable statistics object behind both the single-query and the
    join estimators: ``count`` intervals summarised by quantile boundaries
    of each bound, with interpolated CDF lookups and bucket-weighted means
    over either bound distribution.
    """

    __slots__ = ("count", "buckets", "lower_bounds", "upper_bounds", "duration_bounds")

    def __init__(
        self,
        sorted_lowers: Sequence[int],
        sorted_uppers: Sequence[int],
        buckets: int = DEFAULT_BUCKETS,
        sorted_durations: Optional[Sequence[int]] = None,
    ) -> None:
        if buckets < 2:
            raise ValueError(f"need at least 2 buckets, got {buckets}")
        if len(sorted_lowers) != len(sorted_uppers):
            raise ValueError("bound lists must have equal lengths")
        self.count = len(sorted_lowers)
        self.buckets = buckets
        self.lower_bounds = self._equi_depth(sorted_lowers)
        self.upper_bounds = self._equi_depth(sorted_uppers)
        # The derived-column histogram behind range-duration pricing:
        # equi-depth over ``upper - lower``.  Durations need *paired*
        # bounds, which the two sorted marginals cannot recover, so
        # sources hand them in explicitly; ``None`` (a boundary-only
        # source) degrades duration_fraction() to 1.0.
        if sorted_durations is None:
            self.duration_bounds = None
        else:
            self.duration_bounds = self._equi_depth(sorted_durations)

    @classmethod
    def from_records(
        cls,
        records: Sequence[IntervalRecord],
        buckets: int = DEFAULT_BUCKETS,
    ) -> "BoundSummary":
        """Summarise ``(lower, upper, id)`` records (one sorting pass)."""
        lowers = sorted(r[0] for r in records)
        uppers = sorted(r[1] for r in records)
        durations = sorted(r[1] - r[0] for r in records)
        return cls(lowers, uppers, buckets, sorted_durations=durations)

    @classmethod
    def from_boundaries(
        cls,
        count: int,
        lower_bounds: Sequence[int],
        upper_bounds: Sequence[int],
        buckets: int = DEFAULT_BUCKETS,
        duration_bounds: Optional[Sequence[int]] = None,
    ) -> "BoundSummary":
        """Build a summary from precomputed quantile boundaries.

        For statistics sources that compute the equi-depth boundaries
        themselves (the sqlite backend's ``NTILE`` aggregation) instead
        of handing over full sorted value lists.
        """
        if buckets < 2:
            raise ValueError(f"need at least 2 buckets, got {buckets}")
        summary = cls.__new__(cls)
        summary.count = count
        summary.buckets = buckets
        summary.lower_bounds = list(lower_bounds)
        summary.upper_bounds = list(upper_bounds)
        if duration_bounds is None:
            summary.duration_bounds = None
        else:
            summary.duration_bounds = list(duration_bounds)
        return summary

    def _equi_depth(self, values: Sequence[int]) -> list[int]:
        """Quantile boundaries q_0..q_B of a sorted value list."""
        if not values:
            return []
        if len(values) <= self.buckets:
            return list(values)
        last = len(values) - 1
        return [values[(i * last) // self.buckets] for i in range(self.buckets + 1)]

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @staticmethod
    def _cdf(boundaries: list[int], value: int) -> float:
        """P(X <= value) from quantile boundaries, linearly interpolated."""
        if not boundaries:
            return 0.0
        if value < boundaries[0]:
            return 0.0
        if value >= boundaries[-1]:
            return 1.0
        bucket_count = len(boundaries) - 1
        index = bisect_right(boundaries, value) - 1
        left = boundaries[index]
        right = boundaries[index + 1]
        within = (value - left) / (right - left) if right > left else 1.0
        return (index + within) / bucket_count

    def cdf_lower(self, value: int) -> float:
        """P(lower <= value)."""
        return self._cdf(self.lower_bounds, value)

    def cdf_upper(self, value: int) -> float:
        """P(upper <= value)."""
        return self._cdf(self.upper_bounds, value)

    def intersecting(self, lower: int, upper: int) -> float:
        """Expected number of summarised intervals meeting ``[lower, upper]``.

        The exact identity for l <= u (the two exclusions cannot overlap):
        ``r = n - #{lower > u} - #{upper < l}``.
        """
        if self.count == 0:
            return 0.0
        lower_gt_u = self.count * (1.0 - self.cdf_lower(upper))
        upper_lt_l = self.count * self.cdf_upper(lower - 1)
        return max(0.0, self.count - lower_gt_u - upper_lt_l)

    def duration_fraction(self, dmin: int, dmax: int) -> float:
        """P(dmin <= upper - lower <= dmax) from the duration histogram.

        The selectivity factor behind range-duration pricing.  A summary
        built without durations (boundary-only sources that predate the
        histogram) returns 1.0 -- the band is priced as non-selective,
        never under-estimated to zero.
        """
        if not self.duration_bounds:
            return 1.0
        return max(
            0.0,
            self._cdf(self.duration_bounds, dmax)
            - self._cdf(self.duration_bounds, dmin - 1),
        )

    def point_lower(self, value: int) -> float:
        """Estimated mass of ``lower == value`` (one quantile-width step)."""
        return max(0.0, self.cdf_lower(value) - self.cdf_lower(value - 1))

    def point_upper(self, value: int) -> float:
        """Estimated mass of ``upper == value`` (one quantile-width step)."""
        return max(0.0, self.cdf_upper(value) - self.cdf_upper(value - 1))

    def extent(self) -> tuple[Optional[int], Optional[int]]:
        """``(floor, ceiling)``: smallest lower / largest upper boundary."""
        floor = self.lower_bounds[0] if self.lower_bounds else None
        ceiling = self.upper_bounds[-1] if self.upper_bounds else None
        return floor, ceiling

    def _mean(self, boundaries: list[int], func: Callable[[int], float]) -> float:
        """Bucket-weighted mean of ``func`` over one bound distribution.

        Equi-depth boundaries carry equal probability mass per bucket, so
        the trapezoid over consecutive boundaries integrates ``func``
        against the empirical distribution; small relations keep every
        value, making the mean exact.
        """
        if not boundaries:
            return 0.0
        if len(boundaries) == 1:
            return func(boundaries[0])
        if self.count <= self.buckets:
            return sum(func(v) for v in boundaries) / len(boundaries)
        samples = [func(v) for v in boundaries]
        bucket_count = len(boundaries) - 1
        return (
            sum((samples[i] + samples[i + 1]) / 2.0 for i in range(bucket_count))
            / bucket_count
        )

    def mean_over_lowers(self, func: Callable[[int], float]) -> float:
        """E[func(X)] with X drawn from the lower-bound distribution."""
        return self._mean(self.lower_bounds, func)

    def mean_over_uppers(self, func: Callable[[int], float]) -> float:
        """E[func(X)] with X drawn from the upper-bound distribution."""
        return self._mean(self.upper_bounds, func)


def expected_join_pairs(outer: BoundSummary, inner: BoundSummary) -> float:
    """Expected equi-overlap pair count by histogram convolution.

    Averages the per-probe intersection identity over the outer side's
    bound distributions: a pair ``(r, s)`` exists iff ``s.lower <= r.upper``
    and ``s.upper >= r.lower``, so the expected count is ``n_R * n_S``
    times the mean started-by-``r.upper`` probability minus the mean
    ended-before-``r.lower`` probability.
    """
    if outer.count == 0 or inner.count == 0:
        return 0.0
    started = outer.mean_over_uppers(inner.cdf_lower)
    ended = outer.mean_over_lowers(lambda l: inner.cdf_upper(l - 1))
    return max(0.0, outer.count * inner.count * (started - ended))


def expected_predicate_pairs(
    outer: Sequence[IntervalRecord],
    inner: BoundSummary,
    inverse,
    sample: int = TRANSIENT_SAMPLE,
) -> float:
    """Expected predicate-join pair count from the inner marginals.

    Samples the outer side and averages the inner side's estimate of
    the predicate's ``inverse`` (the stored record is the subject of
    each probe's question, :meth:`~repro.core.predicates.
    IntervalPredicate.estimate`) per sampled probe.
    """
    if not outer or inner.count == 0:
        return 0.0
    estimate = inverse.estimate
    step = max(1, len(outer) // sample)
    chosen = outer[::step]
    total = sum(estimate(inner, lower, upper) for lower, upper, _ in chosen)
    return total / len(chosen) * len(outer)


def predicate_probe_statistics(
    outer: Sequence[IntervalRecord],
    inner: BoundSummary,
    backbone: VirtualBackbone,
    inverse,
    sample: int = TRANSIENT_SAMPLE,
) -> tuple[float, float]:
    """``(avg transient entries, total candidate rows)`` of predicate probes.

    The index path of a predicate join scans the *inverse* relation's
    candidate range per probe; this prices those scans by sampling the
    probes: the backbone is walked (pure arithmetic) over each sampled
    candidate range, and the candidate row count comes from the inner
    side's intersection identity over the same range.
    """
    if not outer or inner.count == 0:
        return 0.0, 0.0
    floor, ceiling = inner.extent()
    step = max(1, len(outer) // sample)
    chosen = outer[::step]
    transient = 0.0
    rows = 0.0
    for lower, upper, _ in chosen:
        candidate = inverse.candidates(lower, upper, floor, ceiling)
        if candidate is None:
            continue
        rows += inner.intersecting(candidate[0], candidate[1])
        if not backbone.is_empty:
            transient += collect_query_nodes(
                backbone, candidate[0], candidate[1]
            ).total_entries
    scale = len(outer) / len(chosen)
    return transient / len(chosen), rows * scale


@dataclass
class JoinStrategyCost:
    """Predicted cost of evaluating the join with one strategy."""

    strategy: str
    logical_reads: float
    physical_reads: float
    frame_cost: float

    def as_dict(self) -> dict:
        """Flat dict for benchmark reports."""
        return {
            "strategy": self.strategy,
            "logical_reads": round(self.logical_reads, 1),
            "physical_reads": round(self.physical_reads, 1),
            "frame_cost": round(self.frame_cost, 1),
        }


@dataclass
class JoinEstimate:
    """The planner-facing prediction for one interval equi-overlap join.

    ``result_count`` is the convolved pair-count estimate; ``index`` and
    ``sweep`` price the two executable strategies.  :attr:`choice` is the
    planner's verdict: the strategy with fewer predicted physical reads,
    Python-frame cost breaking ties -- physical block accesses are the
    paper's figure of merit, frames the substrate's.
    """

    outer_n: int
    inner_n: int
    result_count: float
    index: JoinStrategyCost
    sweep: JoinStrategyCost

    @property
    def choice(self) -> str:
        """Name of the predicted-cheaper strategy.

        Fewer physical reads wins; equal reads fall to the frame cost.  A
        memory-resident store (:attr:`StoreGeometry.memory_resident`)
        prices zero physical reads on both strategies, so its choice is
        always the frame comparison.
        """
        if self.index.physical_reads != self.sweep.physical_reads:
            if self.index.physical_reads < self.sweep.physical_reads:
                return self.index.strategy
            return self.sweep.strategy
        if self.index.frame_cost <= self.sweep.frame_cost:
            return self.index.strategy
        return self.sweep.strategy

    @property
    def chosen(self) -> JoinStrategyCost:
        """The cost row of the predicted-cheaper strategy."""
        if self.choice == self.index.strategy:
            return self.index
        return self.sweep

    def as_dict(self) -> dict:
        """Nested dict for benchmark reports and harness rows."""
        return {
            "choice": self.choice,
            "outer_n": self.outer_n,
            "inner_n": self.inner_n,
            "result_count": round(self.result_count, 1),
            "index": self.index.as_dict(),
            "sweep": self.sweep.as_dict(),
        }


def _index_join_cost(
    probes: int,
    avg_transient: float,
    pairs: float,
    height: int,
    leaf_capacity: int,
    leaf_blocks: float,
    internal_blocks: float,
    cache_blocks: int,
    cache_residency: float,
    leaf_distinct: float = SCAN_LEAF_DISTINCT,
) -> JoinStrategyCost:
    """Price the index-nested-loop join against an RI-tree.

    Logical reads follow Section 4.4 per probe; physical reads split the
    index into its upper levels (shared across probes, discounted by the
    cache-residency factor and capped at the internal block count -- the
    handful of non-leaf pages is LRU-resident for the whole batch) and
    its leaves (two-regime LRU: leaf sets within the cache are read at
    most once, larger ones pay a locality-damped steady-state miss rate).
    ``leaf_distinct`` is the distinct leaves one range scan touches in
    the cold phase; ``pairs`` are the rows the scans read.
    """
    descent = max(1, height)
    per_leaf = max(1, leaf_capacity)
    scans = probes * avg_transient
    result_leaves = pairs / per_leaf
    logical = scans * descent + result_leaves
    cold_fraction = 1.0 - cache_residency
    internal = min(scans * (descent - 1) * cold_fraction, internal_blocks)
    leaf_misses = _lru_block_misses(
        touches=scans + result_leaves,
        yao_accesses=scans * leaf_distinct + result_leaves,
        blocks=leaf_blocks,
        cache_blocks=cache_blocks,
    )
    frames = (
        probes * INDEX_FRAMES_PER_PROBE
        + scans * INDEX_FRAMES_PER_SCAN
        + result_leaves * INDEX_FRAMES_PER_LEAF
    )
    return JoinStrategyCost(
        strategy="index-nested-loop",
        logical_reads=logical,
        physical_reads=internal + leaf_misses,
        frame_cost=frames,
    )


def _lru_block_misses(
    touches: float, yao_accesses: float, blocks: float, cache_blocks: int
) -> float:
    """Two-regime LRU miss estimate over one block set.

    The physical model of :func:`_index_join_cost`, factored for reuse
    by the predicate join's heap accesses: a Yao distinct-block estimate
    for the cold phase (``yao_accesses`` clustered accesses over
    ``blocks``), then -- only when the set outgrows the cache -- a
    locality-damped steady-state miss rate on the remaining touches.
    """
    blocks = max(1.0, blocks)
    distinct = blocks * (1.0 - (1.0 - 1.0 / blocks) ** max(yao_accesses, 0.0))
    if blocks <= cache_blocks:
        return min(touches, distinct)
    miss_rate = (blocks - cache_blocks) / blocks
    steady = max(0.0, touches - distinct) * miss_rate * LEAF_MISS_LOCALITY
    return min(touches, distinct + steady)


def _index_predicate_join_cost(
    probes: int,
    avg_transient: float,
    candidate_rows: float,
    height: int,
    leaf_capacity: int,
    leaf_blocks: float,
    internal_blocks: float,
    cache_blocks: int,
    cache_residency: float,
    table_blocks: int,
) -> JoinStrategyCost:
    """Price the index path of a predicate join against an RI-tree.

    :func:`_index_join_cost` over the *inverse* relation's candidate
    ranges, plus the refinement's table access by rowid: the candidate
    rows of one probe are few and scattered (sparse candidate sets pay
    roughly one heap page per row) or span whole ranges (dense sets
    saturate the heap) -- a Yao distinct-block estimate over the base
    relation covers both regimes.
    """
    index = _index_join_cost(
        probes,
        avg_transient,
        candidate_rows,
        height,
        leaf_capacity,
        leaf_blocks,
        internal_blocks,
        cache_blocks,
        cache_residency,
        leaf_distinct=PREDICATE_SCAN_LEAF_DISTINCT,
    )
    blocks_t = float(max(table_blocks, 1))
    heap_touches = blocks_t * (1.0 - (1.0 - 1.0 / blocks_t) ** max(candidate_rows, 0.0))
    heap_misses = _lru_block_misses(
        touches=heap_touches,
        yao_accesses=heap_touches,
        blocks=blocks_t,
        cache_blocks=cache_blocks,
    )
    return JoinStrategyCost(
        strategy="index-nested-loop",
        logical_reads=index.logical_reads + heap_touches,
        physical_reads=index.physical_reads + heap_misses,
        frame_cost=(index.frame_cost + candidate_rows * INDEX_FRAMES_PER_CANDIDATE),
    )


def _sweep_join_cost(
    outer_n: int, inner_n: int, pairs: float, block_size: int
) -> JoinStrategyCost:
    """Price the plane sweep: two sequential input scans plus merge work.

    The sweep is index-free; its engine I/O is exactly one heap scan per
    relation (each block read once, cold), and its Python work is the
    endpoint merge -- a few frames per input record plus one per emitted
    pair.
    """
    scan_blocks = heap_scan_blocks(outer_n, 3, block_size) + heap_scan_blocks(
        inner_n, 3, block_size
    )
    frames = (
        SWEEP_FRAMES_PER_INPUT * (outer_n + inner_n) + SWEEP_FRAMES_PER_PAIR * pairs
    )
    return JoinStrategyCost(
        strategy="sweep",
        logical_reads=float(scan_blocks),
        physical_reads=float(scan_blocks),
        frame_cost=frames,
    )


def average_transient_entries(
    backbone: VirtualBackbone,
    probes: Sequence[IntervalRecord],
    sample: int = TRANSIENT_SAMPLE,
) -> float:
    """Mean transient-entry count of a probe workload, by sampling.

    Walks the virtual backbone (pure arithmetic, Section 4.2: "causing no
    I/O effort") for up to ``sample`` evenly spaced probes.
    """
    if backbone.is_empty or not probes:
        return 0.0
    step = max(1, len(probes) // sample)
    chosen = probes[::step]
    total = sum(
        collect_query_nodes(backbone, lower, upper).total_entries
        for lower, upper, _ in chosen
    )
    return total / len(chosen)


@dataclass
class StoreGeometry:
    """Physical shape of one backend's indexes, as the planner sees it.

    The strategy cost formulas above are engine-generic in these inputs;
    a store's ANALYZE realises them either from the live B+-trees of
    the simulated engine or from sqlite's page counts, so the identical
    :class:`RITreeCostModel` plans over either backend.

    ``memory_resident`` is a fact the ANALYZE reads off the store, not
    an option: a store whose pages never leave memory (an in-memory
    sqlite database, a HINT store) has no physical reads to price, so
    :meth:`RITreeCostModel.estimate_join` prices zero on both strategies.
    """

    height: int
    leaf_capacity: int
    leaf_blocks: float
    internal_blocks: float
    cache_blocks: int
    block_size: int
    table_blocks: int
    memory_resident: bool = False


#: Cache size handed to fully memory-resident geometries: larger than
#: any block count the model will ever see, so the LRU terms stay in the
#: everything-fits regime.
MEMORY_CACHE_BLOCKS = 1 << 30


def memory_resident_geometry(
    count: int, partitions: int, block_size: int = DEFAULT_BLOCK_SIZE
) -> StoreGeometry:
    """The planner-side shape of a main-memory store (no real blocks).

    Partitions stand in for leaves (one "descent" reaches them -- there
    is no tree to walk), the cache is effectively unbounded, and the
    virtual table-block count only feeds relative refinement terms.  The
    geometry keeps the shared formulas well-defined and comparable; a
    store that prices zero physical reads sets ``memory_resident`` on it
    (see :class:`repro.core.hint.HintCostModel`).
    """
    per_partition = max(1, -(-max(count, 1) // max(1, partitions)))
    return StoreGeometry(
        height=1,
        leaf_capacity=per_partition,
        leaf_blocks=float(max(1, partitions)),
        internal_blocks=0.0,
        cache_blocks=MEMORY_CACHE_BLOCKS,
        block_size=block_size,
        table_blocks=heap_scan_blocks(count, 3, block_size),
    )


def analytic_geometry(
    count: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    cache_blocks: int = DEFAULT_CACHE_BLOCKS,
) -> StoreGeometry:
    """The shape an RI-tree *would* realise over ``count`` rows.

    Two composite indexes of three key columns each plus the four-column
    base relation, laid out analytically under ``block_size`` -- the
    engine-free planner's geometry, and the sqlite ANALYZE's where
    ``dbstat`` cannot report real page counts.
    """
    height, leaf_capacity = index_geometry(count, 3, block_size)
    _, internal_capacity = _page_capacities(3, block_size)
    return StoreGeometry(
        height=height,
        leaf_capacity=leaf_capacity,
        leaf_blocks=2.0 * math.ceil(max(count, 1) / leaf_capacity),
        internal_blocks=2.0
        * index_internal_blocks(count, leaf_capacity, internal_capacity),
        cache_blocks=cache_blocks,
        block_size=block_size,
        table_blocks=heap_scan_blocks(count, 4, block_size),
    )


@dataclass(frozen=True)
class StoreStatistics:
    """One store's ANALYZE snapshot: everything the cost model prices.

    ``summary`` holds the bound histograms, ``backbone`` the virtual
    backbone the transient-entry terms walk (pure arithmetic, no I/O) and
    ``geometry`` the physical shape of the store's indexes.  Each store
    that keeps statistics builds one in its ``analyze(buckets)`` method,
    reading its own backend, so the model never reads a backend itself.
    """

    summary: BoundSummary
    backbone: VirtualBackbone
    geometry: StoreGeometry


class RITreeCostModel:
    """Bound-histogram cost model over one store's ANALYZE snapshot.

    Parameters
    ----------
    statistics:
        The :class:`StoreStatistics` a store's ``analyze()`` returned.
        The model is a pure function of it: estimating reads no backend,
        and a changed store is priced anew from a fresh snapshot (the
        stores' ``cost_model(refresh=True)``).
    cache_residency:
        Fraction of non-leaf index reads expected to hit the buffer cache
        (0 = cold, 1 = fully cached upper levels).  The harness's
        batch-with-warm-cache protocol sits near 0.9.
    """

    def __init__(
        self, statistics: StoreStatistics, cache_residency: float = 0.9
    ) -> None:
        if not 0.0 <= cache_residency <= 1.0:
            raise ValueError(f"cache residency {cache_residency} not in [0,1]")
        self.statistics = statistics
        self.summary = statistics.summary
        self.cache_residency = cache_residency

    # ------------------------------------------------------------------
    # join estimation (the planner path)
    # ------------------------------------------------------------------
    def estimate_join(
        self, outer: Sequence[IntervalRecord], predicate=None
    ) -> JoinEstimate:
        """Predict the join of ``outer`` probes against the modelled tree.

        The tree's stored relation is the inner side; its histograms (and
        virtual backbone) are already in place, so only the outer side is
        summarised here.  Returns a :class:`JoinEstimate` whose
        :attr:`~JoinEstimate.choice` names the predicted-cheaper strategy.

        A join ``predicate`` prices the predicate join instead: the pair
        count comes from the per-relation marginals
        (:func:`expected_predicate_pairs`) and the index strategy is
        priced over the inverse relation's candidate ranges plus the
        refinement's table accesses (:func:`predicate_probe_statistics`).
        """
        pred = resolve_join_predicate(predicate)
        backbone, geometry = self.statistics.backbone, self.statistics.geometry
        if pred is None:
            outer_summary = BoundSummary.from_records(outer, self.summary.buckets)
            pairs = expected_join_pairs(outer_summary, self.summary)
            avg_transient = average_transient_entries(backbone, outer)
            index_cost = _index_join_cost(
                probes=len(outer),
                avg_transient=avg_transient,
                pairs=pairs,
                height=geometry.height,
                leaf_capacity=geometry.leaf_capacity,
                leaf_blocks=geometry.leaf_blocks,
                internal_blocks=geometry.internal_blocks,
                cache_blocks=geometry.cache_blocks,
                cache_residency=self.cache_residency,
            )
        else:
            inverse = pred.inverse
            pairs = expected_predicate_pairs(outer, self.summary, inverse)
            avg_transient, candidate_rows = predicate_probe_statistics(
                outer, self.summary, backbone, inverse
            )
            index_cost = _index_predicate_join_cost(
                probes=len(outer),
                avg_transient=avg_transient,
                candidate_rows=candidate_rows,
                height=geometry.height,
                leaf_capacity=geometry.leaf_capacity,
                leaf_blocks=geometry.leaf_blocks,
                internal_blocks=geometry.internal_blocks,
                cache_blocks=geometry.cache_blocks,
                cache_residency=self.cache_residency,
                table_blocks=geometry.table_blocks,
            )
        sweep_cost = _sweep_join_cost(
            outer_n=len(outer),
            inner_n=self.summary.count,
            pairs=pairs,
            block_size=geometry.block_size,
        )
        if geometry.memory_resident:
            # No page ever leaves memory: neither strategy reads a block
            # from disk, so the choice falls to interpreter work.
            index_cost.physical_reads = sweep_cost.physical_reads = 0.0
        return JoinEstimate(
            outer_n=len(outer),
            inner_n=self.summary.count,
            result_count=pairs,
            index=index_cost,
            sweep=sweep_cost,
        )


def choose_join_strategy(
    outer: Sequence[IntervalRecord],
    inner: Sequence[IntervalRecord],
    buckets: int = DEFAULT_BUCKETS,
    cache_residency: float = 0.9,
    block_size: int = DEFAULT_BLOCK_SIZE,
    cache_blocks: int = DEFAULT_CACHE_BLOCKS,
    predicate=None,
) -> JoinEstimate:
    """Plan an interval join from raw records, without touching an engine.

    The engine-free planner: a virtual backbone is populated by
    registering the inner records (pure arithmetic -- no relation, no
    I/O), and :meth:`RITreeCostModel.estimate_join` prices the join over
    a :class:`StoreStatistics` snapshot of ``inner`` with the
    :func:`analytic_geometry` an RI-tree *would* realise under the given
    block size.  Used by the ``auto`` join strategy before it decides
    whether building/probing an index is worth it at all.
    """
    for lower, upper, _ in outer:
        validate_interval(lower, upper)
    backbone = VirtualBackbone()
    for lower, upper, _ in inner:
        validate_interval(lower, upper)
        backbone.register(lower, upper)
    statistics = StoreStatistics(
        BoundSummary.from_records(inner, buckets),
        backbone,
        analytic_geometry(len(inner), block_size, cache_blocks),
    )
    model = RITreeCostModel(statistics, cache_residency)
    return model.estimate_join(outer, predicate=predicate)
