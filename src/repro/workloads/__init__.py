"""Workload generators: Table 1 interval databases, query batches, join
workloads (two relations with independent parameters), and the genomic
chromosome-partitioned scenario for range-duration queries."""

from .distributions import (
    DISTRIBUTIONS,
    DOMAIN_BITS,
    DOMAIN_MAX,
    Workload,
    d1,
    d2,
    d3,
    d3_restricted,
    d4,
    make,
    table1_catalogue,
)
from .genomic import (
    CHROMOSOME_DENSITY,
    CHROMOSOME_SIZES,
    chromosome_cuts,
    chromosome_slices,
    duration_band,
    genomic,
)
from .joins import (
    OUTER_ID_OFFSET,
    JoinWorkload,
    brute_force_pairs,
    expected_pair_count,
    join_grid,
    join_workload,
)
from .queries import (
    measured_selectivity,
    point_queries,
    range_queries,
    sweeping_point_queries,
    window_length_for_selectivity,
)

__all__ = [
    "CHROMOSOME_DENSITY",
    "CHROMOSOME_SIZES",
    "DISTRIBUTIONS",
    "DOMAIN_BITS",
    "DOMAIN_MAX",
    "chromosome_cuts",
    "chromosome_slices",
    "duration_band",
    "genomic",
    "JoinWorkload",
    "OUTER_ID_OFFSET",
    "Workload",
    "brute_force_pairs",
    "d1",
    "d2",
    "d3",
    "d3_restricted",
    "d4",
    "expected_pair_count",
    "join_grid",
    "join_workload",
    "make",
    "measured_selectivity",
    "point_queries",
    "range_queries",
    "sweeping_point_queries",
    "table1_catalogue",
    "window_length_for_selectivity",
]
