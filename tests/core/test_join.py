"""The interval equi-overlap join: three strategies, one pair set."""

import pytest

from repro.bench.harness import run_join_batch
from repro.core import UPPER_INF, UPPER_NOW, RITree
from repro.core.join import (
    JOIN_STRATEGIES,
    AutoJoin,
    IndexNestedLoopJoin,
    NestedLoopJoin,
    SweepJoin,
    interval_join,
)
from repro.methods import BruteForceIntervals, WindowList

from ..conftest import make_intervals

STRATEGIES = ["nested-loop", "sweep", "index", "auto"]

OUTER = [(0, 10, 100), (5, 5, 101), (20, 30, 102), (35, 60, 103)]
INNER = [(8, 25, 1), (10, 10, 2), (30, 35, 3), (70, 80, 4)]

#: Hand-checked: overlap over closed intervals, shared endpoints count.
EXPECTED = [
    (100, 1),
    (100, 2),
    (102, 1),
    (102, 3),
    (103, 3),
]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_hand_checked_join(strategy):
    assert sorted(interval_join(OUTER, INNER, strategy=strategy)) == EXPECTED


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_empty_sides(strategy):
    assert interval_join([], INNER, strategy=strategy) == []
    assert interval_join(OUTER, [], strategy=strategy) == []
    assert interval_join([], [], strategy=strategy) == []


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_point_and_touching_intervals(strategy):
    outer = [(5, 5, 1), (10, 20, 2)]
    inner = [(5, 5, 7), (0, 5, 8), (20, 20, 9), (6, 9, 10)]
    expected = [(1, 7), (1, 8), (2, 9)]
    assert sorted(interval_join(outer, inner, strategy=strategy)) == expected


def test_unknown_strategy_raises():
    with pytest.raises(ValueError, match="unknown join strategy"):
        interval_join(OUTER, INNER, strategy="hash")


def test_unknown_strategy_message_dedupes_aliases():
    """The 'index' alias must not masquerade as a distinct strategy."""
    from repro.core.join import STRATEGY_NAMES

    assert STRATEGY_NAMES == (
        "auto", "index-nested-loop", "nested-loop", "sweep",
    )
    with pytest.raises(ValueError) as exc:
        interval_join(OUTER, INNER, strategy="hash")
    message = str(exc.value)
    assert str(list(STRATEGY_NAMES)) in message
    assert "alias" in message


def test_strategy_registry_covers_all_names():
    assert set(JOIN_STRATEGIES) == {
        "nested-loop",
        "sweep",
        "index",
        "index-nested-loop",
        "auto",
    }


def test_random_parity_across_strategies(rng):
    outer = make_intervals(rng, 120, domain=20_000, mean_length=400)
    inner = [
        (lower, upper, 10_000 + i)
        for i, (lower, upper, _) in enumerate(
            make_intervals(rng, 150, domain=20_000, mean_length=700)
        )
    ]
    expected = sorted(BruteForceIntervals(inner).join_pairs(outer))
    assert sorted(NestedLoopJoin().pairs(outer, inner)) == expected
    assert sorted(SweepJoin().pairs(outer, inner)) == expected
    assert sorted(IndexNestedLoopJoin().pairs(outer, inner)) == expected


def test_sweep_count_matches_pairs(rng):
    outer = make_intervals(rng, 80, domain=5000, mean_length=300)
    inner = [
        (lo, up, 900 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 90, domain=5000, mean_length=300)
        )
    ]
    sweep = SweepJoin()
    assert sweep.count(outer, inner) == len(sweep.pairs(outer, inner))


def test_sweep_validates_inputs():
    with pytest.raises(ValueError):
        SweepJoin().pairs([(5, 3, 1)], INNER)
    with pytest.raises(ValueError):
        SweepJoin().pairs(OUTER, [(5, 3, 1)])
    with pytest.raises(ValueError):
        NestedLoopJoin().pairs([(5, 3, 1)], INNER)


def test_ritree_join_pairs_matches_base_loop(rng):
    inner = make_intervals(rng, 200, domain=50_000, mean_length=800)
    probes = [
        (lo, up, 5000 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 40, domain=50_000, mean_length=2000)
        )
    ]
    tree = RITree()
    tree.bulk_load(inner)
    via_batches = tree.join_pairs(probes)
    via_loop = []
    for lower, upper, probe_id in probes:
        via_loop.extend(
            (probe_id, interval_id)
            for interval_id in tree.intersection(lower, upper)
        )
    assert sorted(via_batches) == sorted(via_loop)
    assert tree.join_count(probes) == len(via_batches)


def test_ritree_join_io_matches_per_probe_queries(rng):
    """The acceptance criterion: join I/O goes through the same IoStats
    counters -- and adds up to exactly the per-probe Figure 13 scans."""
    inner = make_intervals(rng, 300, domain=60_000, mean_length=600)
    probes = [
        (lo, up, 9000 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 25, domain=60_000, mean_length=1500)
        )
    ]
    tree = RITree()
    tree.bulk_load(inner)
    tree.db.flush()

    tree.db.clear_cache()
    with tree.db.measure() as join_io:
        joined = tree.join_count(probes)

    tree.db.clear_cache()
    with tree.db.measure() as query_io:
        queried = sum(tree.intersection_count(lo, up) for lo, up, _ in probes)

    assert joined == queried
    assert join_io.logical_reads == query_io.logical_reads
    assert join_io.physical_reads == query_io.physical_reads
    assert join_io.logical_reads > 0


def test_join_pairs_against_prebuilt_temporal_tree():
    tree = RITree(now=100)
    tree.insert(10, 20, interval_id=1)
    tree.insert(50, UPPER_NOW, interval_id=2)  # effectively [50, 100]
    tree.insert(80, UPPER_INF, interval_id=3)   # [80, oo)
    probes = [(15, 60, 500), (90, 95, 501), (200, 300, 502)]
    join = IndexNestedLoopJoin(method=tree)
    pairs = sorted(join.pairs(probes, inner=[]))
    assert pairs == [(500, 1), (500, 2), (501, 2), (501, 3), (502, 3)]
    assert join.count(probes, inner=[]) == len(pairs)


def test_windowlist_count_and_join_adapter(rng):
    records = make_intervals(rng, 150, domain=30_000, mean_length=500)
    wl = WindowList()
    wl.bulk_load(records)
    # Post-build updates exercise the overflow and tombstone paths.
    wl.insert(1000, 4000, interval_id=7000)
    wl.delete(*records[3])
    probes = [
        (lo, up, 8000 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 20, domain=30_000, mean_length=1200)
        )
    ]
    for lower, upper, _ in probes:
        assert wl.intersection_count(lower, upper) == len(
            wl.intersection(lower, upper)
        )
    expected = []
    for lower, upper, probe_id in probes:
        expected.extend(
            (probe_id, interval_id)
            for interval_id in wl.intersection(lower, upper)
        )
    assert sorted(wl.join_pairs(probes)) == sorted(expected)
    assert wl.join_count(probes) == len(expected)


def test_auto_join_records_its_decision(rng):
    outer = make_intervals(rng, 30, domain=20_000, mean_length=500)
    inner = [
        (lo, up, 5000 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 60, domain=20_000, mean_length=500)
        )
    ]
    auto = AutoJoin()
    assert auto.last_decision is None
    pairs = auto.pairs(outer, inner)
    assert auto.last_decision is not None
    decision = auto.last_decision
    assert decision.choice in ("index-nested-loop", "sweep")
    assert sorted(pairs) == sorted(BruteForceIntervals(inner).join_pairs(outer))
    # Counting re-plans (inputs may have changed between calls).
    assert auto.count(outer, inner) == len(pairs)


def test_auto_join_with_prebuilt_method_consults_its_model(rng):
    inner = make_intervals(rng, 150, domain=30_000, mean_length=600)
    probes = [
        (lo, up, 7000 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 10, domain=30_000, mean_length=900)
        )
    ]
    tree = RITree()
    tree.bulk_load(inner)
    tree.db.flush()
    auto = AutoJoin(method=tree)
    pairs = auto.pairs(probes, inner=[])
    expected = []
    for lower, upper, probe_id in probes:
        expected.extend(
            (probe_id, interval_id)
            for interval_id in tree.intersection(lower, upper)
        )
    assert sorted(pairs) == sorted(expected)
    # The decision came from the tree's own (index-sourced) cost model.
    assert auto.last_decision.inner_n == len(inner)


class _OpaqueOverlapStore:
    """An IntervalStore that can answer probes but not enumerate itself."""

    def __new__(cls, records):
        from repro.core import IntervalStore

        class Opaque(IntervalStore):
            method_name = "opaque"

            def __init__(self):
                self._records = list(records)

            def insert(self, lower, upper, interval_id):
                self._records.append((lower, upper, interval_id))

            def delete(self, lower, upper, interval_id):
                self._records.remove((lower, upper, interval_id))

            def intersection(self, lower, upper):
                return [i for s, e, i in self._records
                        if s <= upper and e >= lower]

            @property
            def interval_count(self):
                return len(self._records)

            @property
            def index_entry_count(self):
                return len(self._records)

        return Opaque()


def test_auto_join_reports_dispatch_on_cannot_enumerate_fallback():
    """Satellite bugfix: when the planner picks sweep but the method
    cannot enumerate its records, the join degrades to index-nested-loop
    -- and last_dispatch must say so while last_decision keeps the
    planner's (sweep) verdict."""
    from repro.workloads import join_workload
    from repro.workloads.joins import expected_pair_count

    # The pinned sweep-favored crossover workload (cf. test_costmodel).
    workload = join_workload(1000, 2000, seed=4)
    outer, inner = workload.outer.records, workload.inner.records
    store = _OpaqueOverlapStore(inner)
    assert store.cost_model() is None
    assert store.stored_records() is None
    auto = AutoJoin(method=store)
    assert auto.last_dispatch is None
    count = auto.count(outer, inner)
    assert auto.last_decision.choice == "sweep"
    assert auto.last_dispatch == "index-nested-loop"
    assert count == expected_pair_count(outer, inner)


def test_auto_join_dispatch_matches_choice_when_enumerable(rng):
    """On every non-fallback path the two fields agree."""
    outer = make_intervals(rng, 40, domain=10_000, mean_length=300)
    inner = [
        (lo, up, 5000 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 60, domain=10_000, mean_length=300)
        )
    ]
    auto = AutoJoin()
    auto.pairs(outer, inner)
    assert auto.last_dispatch == auto.last_decision.choice
    tree = RITree()
    tree.bulk_load(inner)
    prebuilt = AutoJoin(method=tree)
    prebuilt.pairs(outer, inner=[])
    assert prebuilt.last_dispatch == prebuilt.last_decision.choice


def test_auto_join_sweep_choice_recovers_stored_records(rng):
    """A prebuilt inner index, planner picks sweep: records are recovered."""
    inner = make_intervals(rng, 80, domain=10_000, mean_length=400)
    probes = [
        (lo, up, 9000 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 40, domain=10_000, mean_length=400)
        )
    ]
    tree = RITree()
    tree.bulk_load(inner)
    auto = AutoJoin(method=tree)
    strategy, records = auto._plan(probes, inner=[])
    if auto.last_decision.choice == "sweep":
        assert isinstance(strategy, SweepJoin)
        assert sorted(records) == sorted(inner)
    else:
        assert isinstance(strategy, IndexNestedLoopJoin)
    # Either way the evaluated join is exact.
    assert sorted(auto.pairs(probes, inner=[])) == sorted(
        BruteForceIntervals(inner).join_pairs(probes)
    )


def test_auto_join_prebuilt_method_ignores_inner_argument(rng):
    """With a prebuilt method, the stored relation is the inner side for
    BOTH strategies -- a conflicting ``inner`` argument must not leak in."""
    inner = make_intervals(rng, 60, domain=8000, mean_length=300)
    decoy = [(0, 8000, 777)]  # would join with everything
    probes = [
        (lo, up, 9100 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 30, domain=8000, mean_length=300)
        )
    ]
    tree = RITree()
    tree.bulk_load(inner)
    auto = AutoJoin(method=tree)
    expected = sorted(BruteForceIntervals(inner).join_pairs(probes))
    assert sorted(auto.pairs(probes, inner=decoy)) == expected
    assert auto.count(probes, inner=decoy) == len(expected)


def test_ritree_stored_records_roundtrip(rng):
    records = make_intervals(rng, 50, domain=5000, mean_length=200)
    tree = RITree()
    tree.bulk_load(records)
    assert sorted(tree.stored_records()) == sorted(records)


def test_cost_model_is_cached_and_refreshable():
    tree = RITree()
    tree.bulk_load([(0, 10, 1), (5, 20, 2)])
    model = tree.cost_model()
    assert model is tree.cost_model()
    assert model.summary.count == 2
    tree.insert(30, 40, 3)
    assert tree.cost_model().summary.count == 2  # stale until refreshed
    assert tree.cost_model(refresh=True).summary.count == 3


def test_run_join_batch_reports_join_measurements(rng):
    inner = make_intervals(rng, 250, domain=40_000, mean_length=500)
    probes = [
        (lo, up, 3000 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 15, domain=40_000, mean_length=1000)
        )
    ]
    tree = RITree()
    tree.bulk_load(inner)
    tree.db.flush()
    batch = run_join_batch(tree, probes)
    assert batch.method == "RI-tree"
    assert batch.probes == len(probes)
    assert batch.pairs == BruteForceIntervals(inner).join_count(probes)
    assert batch.logical_io > 0
    assert batch.physical_io >= 0
    assert batch.decision is None
    row = batch.as_row()
    assert row["pairs"] == batch.pairs
    assert row["I/O per pair"] == round(batch.io_per_pair, 4)
    assert "planner choice" not in row


def test_run_join_batch_with_planner_decision(rng):
    """plan=True rides the cost model's prediction along on the row."""
    inner = make_intervals(rng, 200, domain=30_000, mean_length=500)
    probes = [
        (lo, up, 4000 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 12, domain=30_000, mean_length=800)
        )
    ]
    tree = RITree()
    tree.bulk_load(inner)
    tree.db.flush()
    batch = run_join_batch(tree, probes, plan=True)
    assert batch.decision is not None
    assert batch.decision["choice"] in ("index-nested-loop", "sweep")
    assert batch.decision["outer_n"] == len(probes)
    row = batch.as_row()
    assert row["planner choice"] == batch.decision["choice"]
    assert row["predicted physical I/O"] > 0
    # Planning must not change the measurement itself.
    unplanned = run_join_batch(tree, probes)
    assert unplanned.pairs == batch.pairs
    assert unplanned.logical_io == batch.logical_io
    assert unplanned.physical_io == batch.physical_io


def test_run_join_batch_plan_without_model_is_noop(rng):
    """Methods without a cost model run planless (decision stays None)."""
    from repro.methods import BruteForceIntervals, WindowList

    records = make_intervals(rng, 100, domain=20_000, mean_length=400)
    wl = WindowList()
    wl.bulk_load(records)
    probes = [(100, 5000, 1), (8000, 9000, 2)]
    batch = run_join_batch(wl, probes, plan=True)
    assert batch.decision is None


def test_run_join_batch_runs_predicate_joins(rng):
    """The harness drives predicate joins and surfaces plan + dispatch."""
    inner = make_intervals(rng, 200, domain=30_000, mean_length=500)
    probes = [
        (lo, up, 6000 + i)
        for i, (lo, up, _) in enumerate(
            make_intervals(rng, 15, domain=30_000, mean_length=800)
        )
    ]
    tree = RITree()
    tree.bulk_load(inner)
    tree.db.flush()
    batch = run_join_batch(tree, probes, predicate="during", plan=True)
    assert batch.pairs == BruteForceIntervals(inner).join_count(
        probes, predicate="during"
    )
    assert batch.predicate == "during"
    assert batch.logical_io > 0
    assert batch.decision["choice"] in ("index-nested-loop", "sweep")
    row = batch.as_row()
    assert row["predicate"] == "during"
    # The harness always measures the store's own (index) join path;
    # the row says so next to the planner's choice.
    assert row["dispatched"] == "index-nested-loop"
    assert row["planner choice"] == batch.decision["choice"]
    # Pair path agrees with count path under a predicate.
    pairs_batch = run_join_batch(
        tree, probes, predicate="during", count_only=False
    )
    assert pairs_batch.pairs == batch.pairs
    assert pairs_batch.logical_io == batch.logical_io
