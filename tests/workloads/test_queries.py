"""Tests for the query-workload generators."""

import pytest

from repro.methods.memory import BruteForceIntervals
from repro.workloads import (
    DOMAIN_MAX,
    d1,
    d4,
    measured_selectivity,
    point_queries,
    range_queries,
    sweeping_point_queries,
    window_length_for_selectivity,
)


def test_window_length_formula():
    assert window_length_for_selectivity(0.0, 0) == 0
    # s * T - m - 1 with T = 2^20.
    assert window_length_for_selectivity(0.01, 2000) == \
        round(0.01 * (DOMAIN_MAX + 1) - 2000 - 1)
    # Clamped at zero (point query) when the data is denser than the target.
    assert window_length_for_selectivity(0.001, 50_000) == 0


def test_window_length_validation():
    with pytest.raises(ValueError):
        window_length_for_selectivity(1.5, 0)
    with pytest.raises(ValueError):
        window_length_for_selectivity(-0.1, 0)


def test_range_queries_inside_domain():
    workload = d1(2000, 2000, seed=0)
    queries = range_queries(workload, 0.03, 50, seed=1)
    assert len(queries) == 50
    for lower, upper in queries:
        assert 0 <= lower <= upper <= DOMAIN_MAX


def test_range_query_count_validation():
    workload = d1(100, 100, seed=0)
    with pytest.raises(ValueError):
        range_queries(workload, 0.01, 0)


def test_selectivity_calibration_within_tolerance():
    """Realised selectivity lands within 25% of the target (paper protocol)."""
    workload = d4(20_000, 2000, seed=5)
    oracle = BruteForceIntervals(workload.records)
    for target in (0.005, 0.01, 0.03):
        queries = range_queries(workload, target, 60, seed=9)
        sizes = [oracle.intersection_count(*query) for query in queries]
        realised = measured_selectivity(sizes, workload.n)
        assert abs(realised - target) / target < 0.25, (target, realised)


def test_point_queries_are_points():
    for lower, upper in point_queries(30, seed=2):
        assert lower == upper
        assert 0 <= lower <= DOMAIN_MAX


def test_sweeping_point_queries():
    queries = sweeping_point_queries([0, 1000, DOMAIN_MAX])
    assert queries[0] == (DOMAIN_MAX, DOMAIN_MAX)
    assert queries[1] == (DOMAIN_MAX - 1000, DOMAIN_MAX - 1000)
    assert queries[2] == (0, 0)
    with pytest.raises(ValueError):
        sweeping_point_queries([-1])
    with pytest.raises(ValueError):
        sweeping_point_queries([DOMAIN_MAX + 1])


def test_measured_selectivity_empty_cases():
    assert measured_selectivity([], 100) == 0.0
    assert measured_selectivity([5], 0) == 0.0
