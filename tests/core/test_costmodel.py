"""Tests for the optimizer cost model (paper Section 5)."""

import pytest

from repro.core import (
    PREDICATES,
    UPPER_INF,
    UPPER_NOW,
    RITree,
    RITreeCostModel,
)
from repro.core.costmodel import (
    BoundSummary,
    choose_join_strategy,
    expected_join_pairs,
    heap_scan_blocks,
    index_geometry,
)
from repro.workloads import d1, range_queries
from repro.workloads.joins import expected_pair_count, join_workload


@pytest.fixture(scope="module")
def modelled_tree():
    workload = d1(10_000, 2000, seed=3)
    tree = RITree()
    tree.bulk_load(workload.records)
    model = tree.cost_model()
    return workload, tree, model


def test_validation():
    tree = RITree()
    with pytest.raises(ValueError):
        tree.analyze(buckets=1)
    with pytest.raises(ValueError):
        RITreeCostModel(tree.analyze(), cache_residency=1.5)


def test_empty_tree_estimates_zero():
    model = RITree().cost_model()
    assert model.summary.intersecting(0, 100) == 0.0


def test_result_estimates_track_reality(modelled_tree):
    """Histogram estimates land within 30% + 20 of the true counts."""
    workload, tree, model = modelled_tree
    for selectivity in (0.005, 0.01, 0.03):
        for lower, upper in range_queries(workload, selectivity, 15, seed=7):
            true_count = len(tree.intersection(lower, upper))
            estimated = model.summary.intersecting(lower, upper)
            assert abs(estimated - true_count) <= 0.3 * true_count + 20, (
                selectivity,
                lower,
                upper,
                estimated,
                true_count,
            )


def test_estimates_are_monotone_in_query_width(modelled_tree):
    _, __, model = modelled_tree
    narrow = model.summary.intersecting(500_000, 510_000)
    wide = model.summary.intersecting(480_000, 540_000)
    assert wide >= narrow


def test_refresh_after_updates():
    tree = RITree()
    for i in range(200):
        tree.insert(i * 10, i * 10 + 5, i)
    model = RITreeCostModel(tree.analyze(buckets=16))
    before = model.summary.intersecting(0, 2000)
    for i in range(200, 400):
        tree.insert(i * 10, i * 10 + 5, i)
    model = RITreeCostModel(tree.analyze(buckets=16))
    after_refresh = model.summary.intersecting(0, 4000)
    assert after_refresh > before


# ----------------------------------------------------------------------
# ANALYZE snapshots and geometry helpers
# ----------------------------------------------------------------------
def test_index_statistics_pair_bounds_by_rowid():
    """ANALYZE over the composite indexes == a summary of the stored
    records, also when interval ids repeat (durations pair bounds by
    rowid, never by id)."""
    tree = RITree()
    for record in [(0, 10, 7), (100, 1000, 7), (50, 60, 8), (5, 5, 8)]:
        tree.insert(*record)
    summary = tree.cost_model().summary
    expected = BoundSummary.from_records(tree.stored_records())
    assert summary.count == expected.count == 4
    assert summary.lower_bounds == expected.lower_bounds
    assert summary.upper_bounds == expected.upper_bounds
    assert summary.duration_bounds == expected.duration_bounds == [0, 10, 10, 900]


def test_temporal_index_statistics_use_effective_bounds():
    """Now-relative rows enter both the upper and the duration histogram
    at the clock, as ``stored_records()`` reports them (and as the HINT
    and router statistics read them); infinite rows keep the sentinel."""
    tree = RITree(now=1_000)
    tree.bulk_load([(i * 7, i * 7 + 40, i) for i in range(60)])
    tree.append_batch(
        [(i * 11, UPPER_NOW, 100 + i) for i in range(20)] + [(500, UPPER_INF, 200)]
    )
    for clock in (1_000, 5_000):
        tree.advance_to(clock)
        summary = tree.cost_model(refresh=True).summary
        expected = BoundSummary.from_records(tree.stored_records())
        assert summary.count == expected.count == 81
        assert summary.lower_bounds == expected.lower_bounds
        assert summary.upper_bounds == expected.upper_bounds
        assert summary.duration_bounds == expected.duration_bounds
        assert UPPER_NOW not in summary.upper_bounds


def test_heap_scan_blocks_matches_engine(modelled_tree):
    """The sweep's input-scan price mirrors the real heap layout."""
    from repro.bench.harness import paper_database

    db = paper_database()
    table = db.create_table("R", ["lower", "upper", "id"])
    workload = d1(3000, 1500, seed=5)
    table.bulk_load(workload.records)
    assert heap_scan_blocks(3000, 3, db.disk.block_size) == table.heap.page_count


def test_index_geometry_matches_engine(modelled_tree):
    _, tree, _ = modelled_tree
    index = tree.table.index("lowerIndex").tree
    height, leaf_capacity = index_geometry(
        tree.interval_count, 3, tree.db.disk.block_size
    )
    assert leaf_capacity == index.leaf_capacity
    assert height == index.height


def test_heap_scan_blocks_empty_relation():
    assert heap_scan_blocks(0, 3) == 0


# ----------------------------------------------------------------------
# join estimation (the planner path)
# ----------------------------------------------------------------------
def test_expected_join_pairs_tracks_oracle():
    workload = join_workload(300, 2000, seed=11)
    outer, inner = workload.outer.records, workload.inner.records
    estimate = expected_join_pairs(
        BoundSummary.from_records(outer), BoundSummary.from_records(inner)
    )
    true_pairs = expected_pair_count(outer, inner)
    assert abs(estimate - true_pairs) <= 0.15 * true_pairs + 20


def test_join_estimate_fields_and_dict(modelled_tree):
    workload, tree, model = modelled_tree
    probes = join_workload(50, 10, seed=2).outer.records
    estimate = model.estimate_join(probes)
    assert estimate.outer_n == 50
    assert estimate.inner_n == tree.interval_count
    assert estimate.index.strategy == "index-nested-loop"
    assert estimate.sweep.strategy == "sweep"
    assert estimate.choice in ("index-nested-loop", "sweep")
    assert estimate.chosen.strategy == estimate.choice
    as_dict = estimate.as_dict()
    assert as_dict["choice"] == estimate.choice
    assert set(as_dict["index"]) == {
        "strategy",
        "logical_reads",
        "physical_reads",
        "frame_cost",
    }


def test_crossover_decision_index_favored():
    """A handful of probes against a big inner relation: probe the index.

    The sweep must scan all of the inner relation (hundreds of blocks);
    five selective probes touch a few dozen -- the planner must see it.
    """
    workload = join_workload(5, 8000, seed=3)
    estimate = choose_join_strategy(workload.outer.records, workload.inner.records)
    assert estimate.choice == "index-nested-loop"
    assert estimate.index.physical_reads < estimate.sweep.physical_reads


def test_crossover_decision_sweep_favored():
    """Probe count comparable to the inner relation: one merge pass wins.

    A thousand probes re-read index leaves over and over; two sequential
    input scans are bounded by the relations' sizes.
    """
    workload = join_workload(1000, 2000, seed=4)
    estimate = choose_join_strategy(workload.outer.records, workload.inner.records)
    assert estimate.choice == "sweep"
    assert estimate.sweep.physical_reads < estimate.index.physical_reads


def test_tree_model_and_engine_free_planner_agree(modelled_tree):
    """Both planner entry points pick the same strategy on one workload."""
    _, tree, model = modelled_tree
    inner = [(row[1], row[2], row[3]) for _rowid, row in tree.table.scan()]
    for outer_n, seed in ((10, 7), (800, 8)):
        probes = join_workload(outer_n, 10, seed=seed).outer.records
        via_tree = model.estimate_join(probes)
        via_records = choose_join_strategy(probes, inner)
        assert via_tree.choice == via_records.choice


def test_choose_join_strategy_empty_sides():
    estimate = choose_join_strategy([], [(0, 5, 1)])
    assert estimate.result_count == 0.0
    estimate = choose_join_strategy([(0, 5, 1)], [])
    assert estimate.result_count == 0.0
    assert estimate.choice in ("index-nested-loop", "sweep")


def test_choose_join_strategy_validates_bounds():
    with pytest.raises(ValueError):
        choose_join_strategy([(5, 3, 1)], [(0, 5, 1)])
    with pytest.raises(ValueError):
        choose_join_strategy([(0, 5, 1)], [(5, 3, 1)])


def test_bound_summary_validation():
    with pytest.raises(ValueError, match="buckets"):
        BoundSummary([], [], buckets=1)
    with pytest.raises(ValueError, match="equal lengths"):
        BoundSummary([1], [], buckets=4)


# ----------------------------------------------------------------------
# predicate selectivity (Section 4.5 meets the Section 5 cost model)
# ----------------------------------------------------------------------
def test_estimate_prefix_masses_track_exact_counts(modelled_tree):
    """before/after are CDF prefix masses: near-exact at histogram
    resolution on a generated workload."""
    workload, _tree, model = modelled_tree
    records = workload.records
    n = len(records)
    for lower, upper in [(50_000, 60_000), (200_000, 400_000), (700_000, 700_500)]:
        exact_before = sum(1 for s, e, _ in records if e < lower)
        exact_after = sum(1 for s, e, _ in records if s > upper)
        est_before = PREDICATES["before"].estimate(model.summary, lower, upper)
        est_after = PREDICATES["after"].estimate(model.summary, lower, upper)
        assert est_before == pytest.approx(exact_before, abs=0.03 * n)
        assert est_after == pytest.approx(exact_after, abs=0.03 * n)


def test_estimate_containment_clamped_by_candidates(modelled_tree):
    """Containment/overlap estimates never exceed their candidate sets."""
    _workload, _tree, model = modelled_tree
    summary = model.summary
    for lower, upper in [(100_000, 130_000), (0, 1_000_000)]:
        for name, window in [
            ("during", (lower, upper)),
            ("contains", (lower, lower)),
            ("overlaps", (lower, lower)),
            ("overlapped_by", (upper, upper)),
        ]:
            estimate = PREDICATES[name].estimate(summary, lower, upper)
            assert estimate <= summary.intersecting(*window)


def test_estimate_covers_every_predicate(modelled_tree):
    workload, _tree, model = modelled_tree
    for pred in PREDICATES.values():
        value = pred.estimate(model.summary, 100_000, 130_000)
        assert 0.0 <= value <= model.summary.count, pred.name
    records = workload.records
    during = PREDICATES["during"].estimate(model.summary, 100_000, 160_000)
    exact = sum(1 for s, e, _ in records if 100_000 < s and e < 160_000)
    assert during == pytest.approx(exact, abs=0.05 * len(records))


def test_predicate_join_estimates_track_truth():
    """The convolved predicate pair estimates land near the oracle for
    the prefix-mass relations and stay sane for the rest."""
    from repro.core.join import NestedLoopJoin

    workload = join_workload(120, 3000, seed=7)
    outer, inner = workload.outer.records, workload.inner.records
    for pred in ("before", "after"):
        estimate = choose_join_strategy(outer, inner, predicate=pred)
        truth = len(NestedLoopJoin(predicate=pred).pairs(outer, inner))
        assert estimate.result_count == pytest.approx(
            truth, rel=0.1, abs=0.02 * len(outer) * len(inner)
        ), pred
    for pred in ("during", "overlaps", "meets", "equals"):
        estimate = choose_join_strategy(outer, inner, predicate=pred)
        assert 0.0 <= estimate.result_count <= len(outer) * len(inner)
        assert estimate.index.physical_reads > 0
        assert estimate.sweep.physical_reads > 0


def test_predicate_join_decisions_pinned_regimes():
    """Few probes with narrow candidates -> index; bulk disjoint
    relations over a large inner side -> sweep."""
    few = join_workload(5, 8000, seed=2)
    estimate = choose_join_strategy(
        few.outer.records, few.inner.records, predicate="during"
    )
    assert estimate.choice == "index-nested-loop"
    many = join_workload(320, 4000, seed=2)
    estimate = choose_join_strategy(
        many.outer.records, many.inner.records, predicate="before"
    )
    assert estimate.choice == "sweep"


def test_tree_model_and_engine_free_predicate_planner_agree(modelled_tree):
    workload, _tree, model = modelled_tree
    inner = workload.records
    probes = join_workload(40, 10, seed=5).outer.records
    for pred in ("before", "during", "meets"):
        via_tree = model.estimate_join(probes, predicate=pred)
        via_records = choose_join_strategy(probes, inner, predicate=pred)
        assert via_tree.choice == via_records.choice, pred
