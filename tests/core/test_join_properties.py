"""Property tests: every join strategy always matches the brute oracle.

Random workloads include degenerate (point) intervals, empty sides, and
-- through :class:`~repro.core.ritree.RITree` -- the Section
4.6 ``now``/``infinity`` intervals, joined via the index strategy against
a :class:`~repro.methods.memory.BruteForceIntervals` oracle fed the same
temporal rows.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import UPPER_INF, UPPER_NOW, RITree
from repro.core.costmodel import DEFAULT_BUCKETS, choose_join_strategy
from repro.core.join import (
    AutoJoin,
    IndexNestedLoopJoin,
    NestedLoopJoin,
    SweepJoin,
)
from repro.core.predicates import JOIN_PREDICATES
from repro.methods.memory import BruteForceIntervals
from repro.workloads.joins import expected_pair_count, join_workload

DOMAIN_MAX = 2**20 - 1

#: Small shared-endpoint records: point intervals and shared bounds
#: arise with real probability, the degenerate cases Allen inverses are
#: most sensitive to.
dense_record = st.tuples(
    st.integers(0, 40),
    st.integers(0, 10),
).map(lambda t: (t[0], t[0] + t[1]))

#: Finite records: points (length 0) arise with real probability.
record = st.tuples(
    st.integers(0, DOMAIN_MAX),
    st.integers(0, 5000),
).map(lambda t: (t[0], min(t[0] + t[1], DOMAIN_MAX)))


def _with_ids(intervals, offset):
    return [
        (lower, upper, offset + i)
        for i, (lower, upper) in enumerate(intervals)
    ]


def _temporal_pair(inner_raw, infinite_lowers, now_lowers, now):
    """An RITree and the oracle, fed the same finite, ``[s, oo)``
    and ``[s, now]`` rows at clock ``now``."""
    tree = RITree(now=now)
    oracle = BruteForceIntervals()
    oracle.advance_to(now)
    rows = list(inner_raw)
    rows += [(lower, UPPER_INF) for lower in infinite_lowers]
    rows += [(lower, UPPER_NOW) for lower in now_lowers]
    for interval_id, (lower, upper) in enumerate(rows, start=9000):
        for store in (tree, oracle):
            store.insert(lower, upper, interval_id)
    return tree, oracle


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(record, max_size=60), st.lists(record, max_size=60))
def test_index_and_sweep_match_oracle(outer_raw, inner_raw):
    outer = _with_ids(outer_raw, 1000)
    inner = _with_ids(inner_raw, 9000)
    expected = sorted(BruteForceIntervals(inner).join_pairs(outer))
    assert sorted(NestedLoopJoin().pairs(outer, inner)) == expected
    assert sorted(SweepJoin().pairs(outer, inner)) == expected
    assert sorted(IndexNestedLoopJoin().pairs(outer, inner)) == expected
    assert SweepJoin().count(outer, inner) == len(expected)
    assert IndexNestedLoopJoin().count(outer, inner) == len(expected)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(record, max_size=40),
    st.lists(st.integers(0, DOMAIN_MAX), max_size=10),
    st.lists(st.integers(0, 60_000), max_size=10),
    st.lists(record, max_size=25),
    st.integers(60_000, DOMAIN_MAX),
)
def test_temporal_join_matches_oracle_on_effective_bounds(
    inner_raw, infinite_lowers, now_lowers, outer_raw, now
):
    """now/infinity intervals join correctly through the reserved nodes.

    The inner side is an RITree holding finite, ``[s, oo)`` and
    ``[s, now]`` intervals; the oracle holds the same rows, and the
    nested loop and the sweep run on its effective-bound relation.  All
    must agree.
    """
    tree, oracle = _temporal_pair(inner_raw, infinite_lowers, now_lowers, now)

    outer = _with_ids(outer_raw, 1000)
    effective = oracle.stored_records()
    expected = sorted(oracle.join_pairs(outer))
    assert sorted(NestedLoopJoin().pairs(outer, effective)) == expected
    assert sorted(SweepJoin().pairs(outer, effective)) == expected
    index_join = IndexNestedLoopJoin(method=tree)
    assert sorted(index_join.pairs(outer, inner=[])) == expected
    assert index_join.count(outer, inner=[]) == len(expected)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(dense_record, max_size=25), st.lists(dense_record, max_size=25))
def test_all_strategies_match_oracle_on_every_join_predicate(
    outer_raw, inner_raw
):
    """Tentpole property: 4 strategies x 14 predicates, identical sets.

    Random workloads with point intervals and shared endpoints; the
    oracle (direct formula, outer subject) is ground truth.  One RI-tree
    serves every predicate's index probes; auto plans with the tree's
    own cost model.
    """
    outer = _with_ids(outer_raw, 1000)
    inner = _with_ids(inner_raw, 9000)
    oracle = BruteForceIntervals(inner)
    tree = RITree()
    tree.bulk_load(inner)
    for name in JOIN_PREDICATES:
        expected = sorted(oracle.join_pairs(outer, predicate=name))
        assert sorted(NestedLoopJoin(predicate=name).pairs(outer, inner)) == \
            expected, name
        assert sorted(SweepJoin(predicate=name).pairs(outer, inner)) == \
            expected, name
        assert sorted(tree.join_pairs(outer, predicate=name)) == \
            expected, name
        assert tree.join_count(outer, predicate=name) == len(expected), name
        auto = AutoJoin(method=tree, predicate=name)
        assert sorted(auto.pairs(outer, inner=[])) == expected, name
        assert auto.last_dispatch == auto.last_decision.choice


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(dense_record, max_size=20),
    st.lists(st.integers(0, 40), max_size=6),
    st.lists(st.integers(0, 30), max_size=6),
    st.lists(dense_record, max_size=15),
    st.integers(30, 60),
)
def test_predicate_joins_handle_temporal_sentinels(
    inner_raw, infinite_lowers, now_lowers, outer_raw, now
):
    """now/infinity rows join correctly under every predicate.

    The inner side is an RITree holding finite, ``[s, oo)`` and
    ``[s, now]`` intervals; the oracle holds the same rows (``now``
    materialised to the clock, infinity as the ``UPPER_INF`` sentinel in
    ``stored_records``).  The index path must agree through the
    reserved-node scans and the leaf-slice refinement.
    """
    tree, oracle = _temporal_pair(inner_raw, infinite_lowers, now_lowers, now)

    outer = _with_ids(outer_raw, 1000)
    assert sorted(tree.stored_records()) == sorted(oracle.stored_records())
    for name in JOIN_PREDICATES:
        expected = sorted(oracle.join_pairs(outer, predicate=name))
        assert sorted(
            SweepJoin(predicate=name).pairs(outer, tree.stored_records())
        ) == expected, name
        assert sorted(tree.join_pairs(outer, predicate=name)) == \
            expected, name
        assert tree.join_count(outer, predicate=name) == len(expected), name


def _estimate_error_bound(outer_n, inner_n, buckets):
    """The stated accuracy of the convolved pair-count estimate.

    Each CDF lookup is off by at most ~2 quantile-bucket masses (one for
    the boundary rank convention, one for in-bucket interpolation), and
    the join estimate sums two lookups over the cross product:

        |estimate - truth| <= 4 * n_R * n_S / resolution + 2

    where ``resolution`` is the effective bucket count
    ``min(inner_n, buckets) - 1`` (small relations keep every value).
    """
    resolution = max(1, min(inner_n, buckets) - 1)
    return 4.0 * outer_n * inner_n / resolution + 2.0


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(record, max_size=60), st.lists(record, max_size=60))
def test_join_estimate_within_stated_bound(outer_raw, inner_raw):
    """JoinEstimate.result_count lands within the documented error bound."""
    outer = _with_ids(outer_raw, 1000)
    inner = _with_ids(inner_raw, 9000)
    estimate = choose_join_strategy(outer, inner)
    truth = expected_pair_count(outer, inner)
    bound = _estimate_error_bound(len(outer), len(inner), DEFAULT_BUCKETS)
    assert abs(estimate.result_count - truth) <= bound
    assert 0.0 <= estimate.result_count <= len(outer) * len(inner)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(20, 150),
    st.integers(200, 500),
    st.integers(100, 4000),
    st.integers(0, 50),
)
def test_join_estimate_bound_on_generated_workloads(
    outer_n, inner_n, inner_d, seed
):
    """The bound also holds in the quantile regime (buckets < inner_n)."""
    workload = join_workload(outer_n, inner_n, inner_d=inner_d, seed=seed)
    outer, inner = workload.outer.records, workload.inner.records
    buckets = 16
    estimate = choose_join_strategy(outer, inner, buckets=buckets)
    truth = expected_pair_count(outer, inner)
    assert abs(estimate.result_count - truth) <= \
        _estimate_error_bound(outer_n, inner_n, buckets)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(record, max_size=40), st.lists(record, max_size=40))
def test_auto_join_matches_oracle(outer_raw, inner_raw):
    """Whatever the planner picks, auto returns the exact pair set."""
    outer = _with_ids(outer_raw, 1000)
    inner = _with_ids(inner_raw, 9000)
    expected = sorted(BruteForceIntervals(inner).join_pairs(outer))
    auto = AutoJoin()
    assert sorted(auto.pairs(outer, inner)) == expected
    assert auto.count(outer, inner) == len(expected)
    assert auto.last_decision is not None
    assert auto.last_decision.choice in ("index-nested-loop", "sweep")
