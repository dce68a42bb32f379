"""Domain-sharding router: cut handling, dedup invariants, and the
sharded-vs-unsharded parity suite.

The load-bearing invariant is the first-occurrence convention: a record
replicated across a cut must be reported exactly once and counted
exactly once by every query form, whatever the window's position
relative to the cuts -- including the adversarial geometries (point
intervals on a cut, windows starting exactly at a slice boundary,
sentinel uppers that cross every cut by definition).
"""

import pytest

from repro.core import ShardedStore, create_store
from repro.core.costmodel import BoundSummary
from repro.core.predicates import JOIN_PREDICATES, range_duration
from repro.core.router import derive_cuts
from repro.core.temporal import UPPER_INF, UPPER_NOW

from ..conftest import make_intervals


def twin_stores(records, cuts, backend="hint", now=0):
    """The same records in a router and in a single-store oracle."""
    opts = {"now": now} if now else {}
    single = create_store(backend, **opts)
    sharded = create_store("sharded", backend=backend, cuts=cuts, now=now)
    single.bulk_load(records)
    sharded.bulk_load(records)
    return single, sharded


# ----------------------------------------------------------------------
# derive_cuts
# ----------------------------------------------------------------------
def test_derive_cuts_balances_lower_bounds(rng):
    records = make_intervals(rng, 2_000, domain=50_000)
    summary = BoundSummary.from_records(records, buckets=64)
    cuts = derive_cuts(summary, 4)
    assert len(cuts) == 3
    assert cuts == sorted(cuts)
    shares = []
    edges = [None, *cuts, None]
    for lo, hi in zip(edges, edges[1:]):
        shares.append(sum(
            1 for lower, _, _ in records
            if (lo is None or lower > lo) and (hi is None or lower <= hi)))
    assert min(shares) > len(records) / 16, shares


def test_derive_cuts_edge_cases(rng):
    records = make_intervals(rng, 200, domain=10_000)
    summary = BoundSummary.from_records(records, buckets=16)
    assert derive_cuts(summary, 1) == []
    with pytest.raises(ValueError, match="shard_count"):
        derive_cuts(summary, 0)
    empty = BoundSummary.from_records([], buckets=16)
    with pytest.raises(ValueError, match="empty summary"):
        derive_cuts(empty, 2)
    # Fully skewed data collapses to fewer (here: zero) usable cuts.
    flat = BoundSummary.from_records([(5, 9, i) for i in range(50)],
                                     buckets=8)
    assert derive_cuts(flat, 4) == []


def test_router_construction_guards():
    with pytest.raises(ValueError, match="strictly increasing"):
        create_store("sharded", backend="hint", cuts=[10, 10])
    with pytest.raises(ValueError, match="needs records"):
        ShardedStore.create(backend="hint", shard_count=3)


# ----------------------------------------------------------------------
# the cut-straddling regression: nothing double-counts, ever
# ----------------------------------------------------------------------
CUT = 1_000


def straddling_records(now):
    """Every replication geometry around a cut at ``CUT``."""
    return [
        (CUT - 50, CUT + 50, 1),      # plain cut-crosser
        (CUT, CUT, 2),                # point interval ON the cut
        (CUT, CUT + 1, 3),            # starts on the cut, crosses it
        (CUT - 1, CUT, 4),            # ends exactly on the cut
        (CUT + 1, CUT + 80, 5),       # first value of the right slice
        (100, 200, 6),                # left-only
        (CUT + 500, CUT + 600, 7),    # right-only
        (CUT - 10, UPPER_INF, 8),     # sentinel: crosses by definition
        (CUT + 10, UPPER_INF, 9),
        (now - 5, UPPER_NOW, 10),     # now-row, clock left of the cut
    ]


@pytest.fixture
def straddle():
    now = 500
    records = straddling_records(now)
    single, sharded = twin_stores(records, [CUT], now=now)
    return single, sharded, records


WINDOWS = [
    (0, 5_000),            # spans the cut
    (CUT, CUT),            # point query on the cut
    (CUT - 50, CUT),       # ends on the cut
    (CUT, CUT + 50),       # starts on the cut
    (CUT + 1, CUT + 80),   # exactly the right slice's first stretch
    (0, CUT - 1), (CUT + 100, 4_000),
]


def test_intersection_never_reports_a_replica_twice(straddle):
    single, sharded, _ = straddle
    for window in WINDOWS:
        got = sharded.intersection(*window)
        assert sorted(got) == sorted(single.intersection(*window)), window
        assert len(got) == len(set(got)), window


def test_intersection_count_subtracts_replicas_exactly(straddle):
    single, sharded, _ = straddle
    for window in WINDOWS:
        assert sharded.intersection_count(*window) == (
            single.intersection_count(*window)), window


def test_now_replicas_count_once_after_the_clock_crosses_the_cut(straddle):
    single, sharded, _ = straddle
    for store in (single, sharded):
        store.advance_to(CUT + 40)  # [495, now] now crosses the cut
    for window in WINDOWS:
        assert sharded.intersection_count(*window) == (
            single.intersection_count(*window)), window
        assert sorted(sharded.intersection(*window)) == sorted(
            single.intersection(*window)), window


def test_join_paths_do_not_double_count(straddle):
    single, sharded, _ = straddle
    probes = [(lo, hi, 100 + i) for i, (lo, hi) in enumerate(WINDOWS)]
    assert sorted(sharded.join_pairs(probes)) == sorted(
        single.join_pairs(probes))
    assert sharded.join_count(probes) == single.join_count(probes)


def test_deleting_a_crosser_cleans_every_replica(straddle):
    single, sharded, records = straddle
    for lower, upper, interval_id in records:
        single.delete(lower, upper, interval_id)
        sharded.delete(lower, upper, interval_id)
    assert sharded.interval_count == 0
    assert sharded.replica_count == 0
    assert sharded.index_entry_count == 0
    assert sharded.intersection(0, 5_000) == []


def test_stored_records_deduplicate_replicas(straddle):
    single, sharded, records = straddle
    assert sorted(sharded.stored_records()) == sorted(
        single.stored_records())
    assert sharded.interval_count == len(records)
    assert sharded.replica_count > 0


def test_insert_refused_by_the_statistics_backbone_writes_no_shard():
    """The router's planner backbone refuses a record outside its data
    space before any shard stores it."""
    store = create_store("sharded", backend="hint", cuts=[100])
    store.insert(0, 10, 1)
    with pytest.raises(ValueError):
        store.insert(2**49, 2**49 + 5, 2)
    assert store.interval_count == 1
    assert [shard.interval_count for shard in store.shards] == [1, 0]
    assert store.verify().ok


def test_verify_flags_router_level_corruption(straddle):
    _, sharded, _ = straddle
    assert sharded.verify().ok
    # A record smuggled into one shard behind the router's back breaks
    # the physical = logical + replicas accounting.
    sharded.shards[1].insert(CUT + 5, CUT + 6, 999)
    report = sharded.verify()
    assert not report.ok
    assert any("shard-accounting" in issue.code for issue in report.issues)


# ----------------------------------------------------------------------
# sharded-vs-unsharded parity: every backend, every predicate
# ----------------------------------------------------------------------
DOMAIN = 20_000
PARITY_CUTS = {1: [], 2: [9_000], 4: [5_000, 9_000, 14_000]}


@pytest.mark.parametrize("backend", ["ritree", "sql-ritree", "hint"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_full_predicate_family_parity(rng, backend, shards):
    records = make_intervals(rng, 300, domain=DOMAIN, mean_length=800)
    single, sharded = twin_stores(records, PARITY_CUTS[shards],
                                  backend=backend)
    assert sharded.shard_count == shards
    windows = [(q * 1_700, q * 1_700 + 2_500) for q in range(8)]
    for window in windows:
        assert sorted(sharded.intersection(*window)) == sorted(
            single.intersection(*window))
        assert sharded.intersection_count(*window) == (
            single.intersection_count(*window))
        assert sorted(sharded.stab(window[0])) == sorted(
            single.stab(window[0]))
    for predicate in JOIN_PREDICATES:
        for window in windows[:4]:
            assert sorted(
                sharded.query(*window, predicate=predicate)) == sorted(
                single.query(*window, predicate=predicate)), predicate
    probes = [(lo, hi, i) for i, (lo, hi) in enumerate(windows)]
    assert sorted(sharded.join_pairs(probes)) == sorted(
        single.join_pairs(probes))
    assert sharded.join_count(probes) == single.join_count(probes)
    for predicate in ("during", "overlaps", "before"):
        assert sorted(
            sharded.join_pairs(probes, predicate=predicate)) == sorted(
            single.join_pairs(probes, predicate=predicate))
    assert sorted(sharded.stored_records()) == sorted(
        single.stored_records())
    assert sharded.verify().ok


@pytest.mark.parametrize("shards", [2, 4])
def test_temporal_parity_across_clock_advances(rng, shards):
    records = make_intervals(rng, 150, domain=DOMAIN, mean_length=600)
    now = 2_000
    sentinels = [(rng.randrange(0, DOMAIN), UPPER_INF, 10_000 + i)
                 for i in range(20)]
    sentinels += [(rng.randrange(0, now), UPPER_NOW, 20_000 + i)
                  for i in range(20)]
    single, sharded = twin_stores(records + sentinels, PARITY_CUTS[shards],
                                  now=now)
    for clock in (now, 6_000, 15_000, 30_000):
        if clock != now:
            single.advance_to(clock)
            sharded.advance_to(clock)
        for q in range(6):
            window = (q * 3_000, q * 3_000 + 4_000)
            assert sorted(sharded.intersection(*window)) == sorted(
                single.intersection(*window)), (clock, window)
            assert sharded.intersection_count(*window) == (
                single.intersection_count(*window)), (clock, window)


def test_routing_stats_shape(straddle):
    _, sharded, records = straddle
    sharded.intersection(0, 5_000)
    stats = sharded.routing_stats()
    assert stats["shard_count"] == 2
    assert stats["cuts"] == [CUT]
    assert stats["records"] == len(records)
    assert stats["replicas"] == sharded.replica_count
    assert len(stats["shards"]) == 2
    assert stats["shards"][0]["slice"] == [None, CUT]
    assert stats["shards"][1]["slice"] == [CUT + 1, None]
    assert all(s["queries"] >= 1 for s in stats["shards"])


def test_cost_model_covers_the_logical_population(straddle):
    _, sharded, records = straddle
    model = sharded.cost_model()
    assert sharded.replica_count > 0
    assert model.summary.count == sharded.interval_count == len(records)


def test_routing_stats_count_family_queries(straddle):
    _, sharded, _ = straddle
    before = [
        s["predicate_queries"] for s in sharded.routing_stats()["shards"]
    ]
    # Relation and family queries fan out to every shard (relations such
    # as before/after reach outside the window), so each query bumps
    # every shard's counter exactly once.
    sharded.query(0, 500, predicate=range_duration(0, 10_000))
    sharded.query(0, 5_000, predicate="during")
    after = [
        s["predicate_queries"] for s in sharded.routing_stats()["shards"]
    ]
    assert after == [n + 2 for n in before]
    # Plain intersections stay in the dedicated queries counter.
    sharded.intersection(0, 5_000)
    stats = sharded.routing_stats()
    assert [
        s["predicate_queries"] for s in stats["shards"]
    ] == after
    assert all(
        s["queries"] > s["predicate_queries"] for s in stats["shards"]
    )
