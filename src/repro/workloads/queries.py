"""Query workloads for the evaluation (paper Section 6.3).

"All query experiments ... have been performed with query intervals
following a distribution which is compatible to the respective interval
database."  Queries are therefore generated with the same starting-point
process as the data and a window length chosen for a *target selectivity*.

For a database of ``n`` intervals with mean length ``m`` over a domain of
size ``T``, a query window of length ``L`` placed uniformly intersects an
expected ``n * (L + m + 1) / T`` intervals, so the window for selectivity
``s`` is ``L = s * T - m - 1`` (clamped at 0: a point query).  The harness
additionally *measures* realised selectivity and reports it next to each
experiment, so the calibration never silently drifts.

:func:`sweeping_point_queries` reproduces Figure 17's protocol: "'sweeping'
a query point starting at the upper bound of the data space" toward lower
coordinates, which exposes the IST's degeneration.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .distributions import DOMAIN_MAX, Workload

QueryInterval = tuple[int, int]


def window_length_for_selectivity(
    selectivity: float, mean_length: float, domain_size: int = DOMAIN_MAX + 1
) -> int:
    """Window length giving the target selectivity in expectation."""
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError(f"selectivity {selectivity} outside [0, 1]")
    return max(0, int(round(selectivity * domain_size - mean_length - 1)))


def range_queries(
    workload: Workload, selectivity: float, count: int, seed: int = 1
) -> list[QueryInterval]:
    """Range queries compatible with ``workload`` at a target selectivity.

    Query starting points are drawn uniformly from the domain (matching the
    uniform / stationary-Poisson starting processes of Table 1) and windows
    are clamped to the domain.
    """
    if count <= 0:
        raise ValueError(f"query count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    length = window_length_for_selectivity(selectivity, workload.mean_length)
    max_start = max(0, DOMAIN_MAX - length)
    starts = rng.integers(0, max_start + 1, size=count, dtype=np.int64)
    return [(int(start), int(min(start + length, DOMAIN_MAX))) for start in starts]


def point_queries(count: int, seed: int = 1) -> list[QueryInterval]:
    """Uniform degenerate (point) queries over the domain."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, DOMAIN_MAX + 1, size=count, dtype=np.int64)
    return [(int(p), int(p)) for p in points]


def sweeping_point_queries(
    distances: Sequence[int], domain_max: int = DOMAIN_MAX
) -> list[QueryInterval]:
    """Figure 17's sweep: one point query per distance to the domain's
    upper bound."""
    queries = []
    for distance in distances:
        if distance < 0 or distance > domain_max:
            raise ValueError(f"distance {distance} outside [0, {domain_max}]")
        point = domain_max - distance
        queries.append((point, point))
    return queries


def measured_selectivity(result_sizes: Sequence[int], n: int) -> float:
    """Realised selectivity of a query batch: mean result fraction."""
    if n <= 0 or not result_sizes:
        return 0.0
    return float(np.mean(result_sizes)) / n
