"""Join workload generation and the counting/brute-force oracles."""

import pytest

from repro.methods.memory import BruteForceIntervals
from repro.workloads import joins


def test_join_workload_is_deterministic():
    first = joins.join_workload(50, 80, seed=3)
    second = joins.join_workload(50, 80, seed=3)
    assert first.outer.records == second.outer.records
    assert first.inner.records == second.inner.records
    assert first.name == second.name


def test_sides_are_independent_despite_equal_parameters():
    workload = joins.join_workload(60, 60, outer_d=500, inner_d=500, seed=1)
    outer_shapes = [(lo, up) for lo, up, _ in workload.outer.records]
    inner_shapes = [(lo, up) for lo, up, _ in workload.inner.records]
    assert outer_shapes != inner_shapes


def test_id_spaces_are_disjoint():
    workload = joins.join_workload(40, 70, seed=2)
    outer_ids = {r[2] for r in workload.outer.records}
    inner_ids = {r[2] for r in workload.inner.records}
    assert not outer_ids & inner_ids
    assert min(outer_ids) >= joins.OUTER_ID_OFFSET
    assert max(inner_ids) < joins.OUTER_ID_OFFSET


def test_independent_cardinality_and_duration():
    workload = joins.join_workload(30, 200, outer_d=100, inner_d=4000, seed=5)
    assert workload.outer.n == 30
    assert workload.inner.n == 200
    assert workload.outer.mean_length < workload.inner.mean_length
    assert workload.pair_domain == 30 * 200


def test_distribution_mix():
    workload = joins.join_workload(25, 25, outer_dist="D2", inner_dist="D3", seed=4)
    assert workload.name.startswith("D2(")
    assert "D3(" in workload.name


def test_expected_pair_count_matches_pure_oracle():
    workload = joins.join_workload(45, 90, outer_d=3000, seed=7)
    pure = BruteForceIntervals(workload.inner.records).join_count(
        workload.outer.records
    )
    assert workload.expected_pairs() == pure
    assert workload.selectivity() == pytest.approx(pure / workload.pair_domain)


def test_brute_force_pairs_matches_pure_oracle():
    workload = joins.join_workload(35, 60, seed=9)
    outer, inner = workload.outer.records, workload.inner.records
    assert sorted(joins.brute_force_pairs(outer, inner)) == sorted(
        BruteForceIntervals(inner).join_pairs(outer)
    )


def test_oracles_on_empty_sides():
    workload = joins.join_workload(20, 30, seed=1)
    records = workload.inner.records
    assert joins.expected_pair_count([], records) == 0
    assert joins.expected_pair_count(records, []) == 0
    assert joins.brute_force_pairs([], records) == []
    assert workload.pair_domain == 600


def test_empty_workload_selectivity():
    workload = joins.join_workload(0, 0, seed=1)
    assert workload.pair_domain == 0
    assert workload.selectivity() == 0.0
    assert workload.expected_pairs() == 0


def test_join_grid_cartesian_product():
    grid = joins.join_grid(
        outer_ns=[10, 20], inner_ns=[50, 100], inner_ds=[500, 1000, 2000],
        seed=3,
    )
    assert len(grid) == 2 * 2 * 3
    shapes = [(w.outer.n, w.inner.n, w.inner.duration_param) for w in grid]
    assert shapes == [
        (o, i, d) for o in (10, 20) for i in (50, 100)
        for d in (500, 1000, 2000)
    ]


def test_join_grid_points_are_independent_samples():
    grid = joins.join_grid(
        outer_ns=[30], inner_ns=[30], inner_ds=[500, 500], seed=1)
    # Same parameters at two grid positions, different derived seeds.
    assert grid[0].inner.records != grid[1].inner.records


def test_join_grid_is_deterministic():
    kwargs = dict(outer_ns=[5, 10], inner_ns=[40], inner_ds=[800], seed=7)
    first = joins.join_grid(**kwargs)
    second = joins.join_grid(**kwargs)
    assert [w.outer.records for w in first] == \
        [w.outer.records for w in second]
    assert [w.inner.records for w in first] == \
        [w.inner.records for w in second]


def test_join_grid_respects_distribution_and_outer_duration():
    grid = joins.join_grid(
        outer_ns=[25], inner_ns=[25], inner_ds=[100], outer_d=4000,
        outer_dist="D2", inner_dist="D3", seed=2,
    )
    workload = grid[0]
    assert workload.outer.name.startswith("D2(")
    assert workload.inner.name.startswith("D3(")
    assert workload.outer.duration_param == 4000
    assert workload.inner.duration_param == 100
