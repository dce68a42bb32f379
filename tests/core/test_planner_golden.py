"""Exact planner numbers, pinned by a golden fixture.

Every cost-model entry point (the engine-free planner, the engine
RI-tree, the sqlite RI-tree, HINT and a 2-shard router) prices a fixed
grid of joins; the test asserts every float field
equals ``planner_golden.json`` bit for bit.  Refactors of the cost model
must leave the fixture untouched.  To regenerate it after an
*intentional* change to planner numbers, run

    PYTHONPATH=src python tests/core/test_planner_golden.py --write
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.core import RITree
from repro.core.costmodel import choose_join_strategy
from repro.core.hint import HintStore
from repro.core.predicates import range_duration
from repro.core.stores import create_store
from repro.workloads.joins import join_workload

GOLDEN = Path(__file__).with_name("planner_golden.json")

PROBE_SIZES = (12, 600)
INNER_N = 3000
BAND = (500, 2500)


def _predicates():
    return {
        "none": None,
        "during": "during",
        "before": "before",
        "range_duration": range_duration(*BAND),
    }


def _stores(inner):
    tree = RITree()
    tree.bulk_load(inner)
    sql_tree = create_store("sql-ritree")
    sql_tree.bulk_load(inner)
    hint = HintStore()
    hint.bulk_load(inner)
    sharded = create_store("sharded", backend="hint", shard_count=2, records=inner)
    return {
        "ritree": tree,
        "sql-ritree": sql_tree,
        "hint": hint,
        "sharded-2": sharded,
    }


def _join(estimate) -> dict:
    return {
        "outer_n": estimate.outer_n,
        "inner_n": estimate.inner_n,
        "result_count": estimate.result_count,
        "index": asdict(estimate.index),
        "sweep": asdict(estimate.sweep),
    }


def compute_grid() -> dict:
    """Every planner number the fixture pins, keyed by backend."""
    workload = join_workload(max(PROBE_SIZES), INNER_N, seed=13)
    outer, inner = workload.outer.records, workload.inner.records
    predicates = _predicates()
    grid: dict = {"engine-free": {}}
    for size in PROBE_SIZES:
        for label, pred in predicates.items():
            grid["engine-free"][f"join/{size}/{label}"] = _join(
                choose_join_strategy(outer[:size], inner, predicate=pred)
            )
    for name, store in _stores(inner).items():
        model = store.cost_model()
        rows: dict = {}
        for size in PROBE_SIZES:
            for label, pred in predicates.items():
                rows[f"join/{size}/{label}"] = _join(
                    model.estimate_join(outer[:size], predicate=pred)
                )
        grid[name] = rows
    return grid


def test_planner_numbers_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = json.loads(json.dumps(compute_grid()))
    assert actual.keys() == expected.keys()
    for backend, rows in expected.items():
        assert actual[backend].keys() == rows.keys(), backend
        for key, row in rows.items():
            assert actual[backend][key] == row, (backend, key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_planner_golden.py --write")
    GOLDEN.write_text(json.dumps(compute_grid(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
