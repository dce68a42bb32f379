"""Join workloads: two interval relations with independent parameters.

The Section 6 experiments drive single-predicate intersection queries; the
join benchmark needs *two* datasets whose cardinality and mean duration
are controlled independently, so the index-vs-sweep trade-off can be
swept along both axes (many short probes against a large inner relation,
few long probes, symmetric sides, ...).  Both sides reuse the Table 1
distribution generators, with decorrelated derived seeds and disjoint id
spaces (outer ids are offset past the inner relation's), so a join pair
``(outer_id, inner_id)`` is unambiguous.

:func:`expected_pair_count` is an independent counting oracle -- two
``searchsorted`` passes instead of any join algorithm -- used by tests and
the benchmark's parity check as a fourth, structurally unrelated vote on
the correct result size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import IntervalRecord, Workload, make

#: Offset separating outer ids from inner ids in a generated join workload.
OUTER_ID_OFFSET = 1_000_000_000


@dataclass
class JoinWorkload:
    """Two generated interval relations plus their join parameters."""

    name: str
    outer: Workload
    inner: Workload
    seed: int

    @property
    def pair_domain(self) -> int:
        """Size of the cross product (the nested-loop oracle's work)."""
        return self.outer.n * self.inner.n

    def expected_pairs(self) -> int:
        """Join size by the counting oracle (no join algorithm involved)."""
        return expected_pair_count(self.outer.records, self.inner.records)

    def selectivity(self) -> float:
        """Join selectivity: result pairs over the cross-product size."""
        if self.pair_domain == 0:
            return 0.0
        return self.expected_pairs() / self.pair_domain


def join_workload(
    outer_n: int,
    inner_n: int,
    outer_d: int = 2000,
    inner_d: int = 2000,
    outer_dist: str = "D1",
    inner_dist: str = "D1",
    seed: int = 0,
) -> JoinWorkload:
    """Generate a join workload from two Table 1 distributions.

    Cardinality (``outer_n`` / ``inner_n``) and mean duration
    (``outer_d`` / ``inner_d``) are controlled per side; the two sides
    draw from decorrelated seeds so equal parameters still give
    independent relations.  Outer ids are shifted by
    :data:`OUTER_ID_OFFSET` to keep the id spaces disjoint.
    """
    outer = make(outer_dist, outer_n, outer_d, seed=seed * 2 + 1)
    inner = make(inner_dist, inner_n, inner_d, seed=seed * 2 + 2)
    if outer.records and inner.records and inner_n > OUTER_ID_OFFSET:
        raise ValueError(
            f"inner cardinality {inner_n} collides with the outer id "
            f"offset {OUTER_ID_OFFSET}"
        )
    shifted = [
        (lower, upper, interval_id + OUTER_ID_OFFSET)
        for lower, upper, interval_id in outer.records
    ]
    outer = Workload(
        name=outer.name,
        n=outer.n,
        duration_param=outer.duration_param,
        seed=outer.seed,
        records=shifted,
    )
    name = (
        f"{outer.name} JOIN {inner.name}"
        if outer_dist != inner_dist or (outer_n, outer_d) != (inner_n, inner_d)
        else f"{outer.name} self-shaped join"
    )
    return JoinWorkload(name=name, outer=outer, inner=inner, seed=seed)


def join_grid(
    outer_ns: Sequence[int],
    inner_ns: Sequence[int],
    inner_ds: Sequence[int],
    outer_d: int = 2000,
    outer_dist: str = "D1",
    inner_dist: str = "D1",
    seed: int = 0,
) -> list[JoinWorkload]:
    """The crossover grid: one workload per parameter combination.

    The cartesian product of outer cardinality, inner cardinality, and
    inner mean duration -- the three axes along which the index-vs-sweep
    trade-off moves (probe count scales index cost, inner size scales the
    sweep's input scan, duration scales the join selectivity).  Every
    grid point draws from its own derived seed, so neighbouring points
    are independent samples rather than nested subsets.
    """
    grid: list[JoinWorkload] = []
    for point, (outer_n, inner_n, inner_d) in enumerate(
        (o, i, d) for o in outer_ns for i in inner_ns for d in inner_ds
    ):
        grid.append(
            join_workload(
                outer_n=outer_n,
                inner_n=inner_n,
                outer_d=outer_d,
                inner_d=inner_d,
                outer_dist=outer_dist,
                inner_dist=inner_dist,
                seed=seed * 10_000 + point,
            )
        )
    return grid


def expected_pair_count(
    outer: Sequence[IntervalRecord], inner: Sequence[IntervalRecord]
) -> int:
    """Exact join size by order statistics, O((n + m) log m).

    For each outer ``[lo, hi]`` the overlap count over the inner relation
    is ``#{lower <= hi} - #{upper < lo}``: every inner interval starting
    by ``hi`` overlaps unless it ended before ``lo``.  Two sorted arrays
    and two ``searchsorted`` calls per probe -- no join algorithm, hence
    an independent oracle for the three strategies' parity checks.
    """
    if not outer or not inner:
        return 0
    lowers = np.sort(np.array([r[0] for r in inner], dtype=np.int64))
    uppers = np.sort(np.array([r[1] for r in inner], dtype=np.int64))
    q_lowers = np.array([r[0] for r in outer], dtype=np.int64)
    q_uppers = np.array([r[1] for r in outer], dtype=np.int64)
    starts_by = np.searchsorted(lowers, q_uppers, side="right")
    ended_before = np.searchsorted(uppers, q_lowers, side="left")
    return int(np.sum(starts_by - ended_before))


def brute_force_pairs(
    outer: Sequence[IntervalRecord], inner: Sequence[IntervalRecord]
) -> list[tuple[int, int]]:
    """Vectorised brute-force pair list (numpy inner loop).

    Nested-loop semantics -- every outer record is compared against every
    inner record -- with the inner loop as one boolean mask, so paper-size
    workloads stay feasible as oracles.  The pure-Python reference is the
    oracle store :class:`repro.methods.memory.BruteForceIntervals`
    (``join_pairs``); :class:`repro.core.join.NestedLoopJoin` is a join
    strategy checked against it.
    """
    if not outer or not inner:
        return []
    lowers = np.array([r[0] for r in inner], dtype=np.int64)
    uppers = np.array([r[1] for r in inner], dtype=np.int64)
    ids = np.array([r[2] for r in inner], dtype=np.int64)
    pairs: list[tuple[int, int]] = []
    for r_lower, r_upper, r_id in outer:
        mask = (lowers <= r_upper) & (uppers >= r_lower)
        pairs.extend((r_id, int(s_id)) for s_id in ids[mask])
    return pairs
