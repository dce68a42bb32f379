"""Load-driver units: seeded generation, canonical forms, aggregates."""

import pytest

from repro.core.stores import create_store
from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.service.loadgen import (
    DEFAULT_MIX,
    ClassStats,
    LoadResult,
    build_dataset,
    build_ops,
    canonical,
    evaluate_ops,
    percentile,
)


def test_build_dataset_is_deterministic():
    assert build_dataset(seed=3, n=500) == build_dataset(seed=3, n=500)
    assert build_dataset(seed=3, n=500) != build_dataset(seed=4, n=500)


def test_build_dataset_mixes_temporal_sentinels():
    records, now = build_dataset(seed=1, n=1_000, temporal_fraction=0.2)
    uppers = [upper for _, upper, _ in records]
    assert uppers.count(UPPER_INF) == 100
    assert uppers.count(UPPER_NOW) == 100
    assert len(records) == 1_000
    assert len({interval_id for _, _, interval_id in records}) == 1_000
    assert all(lower <= now for lower, upper, _ in records
               if upper == UPPER_NOW)


def test_build_ops_is_deterministic_and_covers_the_mix():
    ops = build_ops(seed=9, count=2_000)
    assert ops == build_ops(seed=9, count=2_000)
    seen = {op["cls"] for op in ops}
    assert seen == set(DEFAULT_MIX)


def test_build_ops_respects_a_custom_mix():
    ops = build_ops(seed=2, count=50, mix={"stab": 1.0})
    assert all(op["op"] == "stab" for op in ops)
    with pytest.raises(ValueError, match="unknown op class"):
        build_ops(seed=2, count=5, mix={"nope": 1.0})


def test_now_ops_straddle_the_clock():
    ops = build_ops(seed=4, count=400, now=7_000,
                    mix={"now": 1.0})
    for op in ops:
        assert op["op"] == "intersection"
        assert op["lower"] <= 7_000 <= op["upper"]


def test_canonical_forms():
    assert canonical("count", 7) == 7
    assert canonical("intersection", [3, 1, 2]) == [1, 2, 3]
    assert canonical("join_pairs", [(2, 9), (1, 5), (2, 3)]) == [
        (1, 5), (2, 3), (2, 9)]


def test_evaluate_ops_matches_store_answers():
    store = create_store("hint")
    store.bulk_load([(0, 10, 1), (5, 15, 2), (20, 30, 3)])
    ops = [
        {"op": "stab", "value": 7, "cls": "stab"},
        {"op": "intersection_count", "lower": 0, "upper": 50,
         "cls": "count"},
        {"op": "query", "lower": 4, "upper": 16, "predicate": "during",
         "cls": "query"},
        {"op": "join_pairs", "probes": [[8, 22, 1]], "cls": "join_pairs"},
    ]
    assert evaluate_ops(store, ops) == [
        [1, 2], 3, [2], [(1, 1), (1, 2), (1, 3)]]
    with pytest.raises(ValueError, match="unknown op"):
        evaluate_ops(store, [{"op": "nope", "cls": "nope"}])


def test_percentile_nearest_rank():
    assert percentile([], 50) == 0.0
    assert percentile([5.0], 99) == 5.0
    values = list(range(1, 101))
    assert percentile(values, 0) == 1
    assert percentile(values, 50) == 51
    assert percentile(values, 100) == 100


def test_load_result_serialisation():
    result = LoadResult(
        concurrency=4, ops=10, wall_s=2.0, results=[],
        classes={"stab": ClassStats(count=10, p50_ms=1.0, p99_ms=2.0,
                                    mean_ms=1.2)})
    data = result.as_dict()
    assert data["throughput_ops_s"] == 5.0
    assert data["classes"]["stab"]["p99_ms"] == 2.0
    empty = LoadResult(concurrency=1, ops=0, wall_s=0.0, results=[])
    assert empty.throughput == 0.0
