"""Cross-module integration tests.

Each test exercises a realistic end-to-end flow that touches several
subsystems at once -- the scenarios a downstream adopter would run.
"""

import random

from repro.core import (
    RITree,
    UPPER_INF,
    UPPER_NOW,
)
from repro.engine import Database
from repro.methods import BruteForceIntervals
from repro.sql import SQLRITree
from repro.workloads import d2, d4, range_queries


def test_temporal_plus_topology_flow():
    """A valid-time table queried with Allen relations as time advances."""
    table = RITree(now=100)
    table.insert(0, 50, 1)
    table.insert(30, UPPER_NOW, 2)
    table.insert(60, UPPER_INF, 3)
    # `during` the period [20, 200]: interval 2's effective upper is 100.
    assert table.query(20, 200, predicate="during") == [2]
    table.advance_to(300)
    # Now interval 2 spans [30, 300], no longer strictly inside [20, 200];
    # both it and the open-ended interval 3 overlap the period from the
    # right instead.
    assert table.query(20, 200, predicate="during") == []
    assert sorted(table.query(20, 200, predicate="overlapped_by")) == [2, 3]


def test_workload_to_ritree_to_costmodel_pipeline():
    """The full benchmark pipeline on one D4 workload, with the optimizer
    model agreeing with measured selectivities."""
    workload = d4(5000, 2000, seed=11)
    tree = RITree()
    tree.bulk_load(workload.records)
    model = tree.cost_model()
    queries = range_queries(workload, 0.01, 10, seed=5)
    for lower, upper in queries:
        measured = len(tree.intersection(lower, upper))
        estimated = model.summary.intersecting(lower, upper)
        assert abs(estimated - measured) <= 0.4 * measured + 25


def test_engine_and_sql_backends_on_same_workload():
    workload = d2(2000, 1500, seed=9)
    engine_tree = RITree()
    engine_tree.bulk_load(workload.records)
    sql_tree = SQLRITree()
    sql_tree.bulk_load(workload.records)
    for lower, upper in range_queries(workload, 0.02, 15, seed=2):
        assert sorted(engine_tree.intersection(lower, upper)) == \
            sorted(sql_tree.intersection(lower, upper))


def test_mixed_dynamic_workload_long_run():
    """A long interleaving of inserts, deletes and queries stays correct
    and keeps both indexes structurally sound."""
    rng = random.Random(77)
    tree = RITree()
    brute = BruteForceIntervals()
    alive: dict[int, tuple[int, int]] = {}
    next_id = 0
    for step in range(4000):
        action = rng.random()
        if action < 0.5 or not alive:
            lower = rng.randrange(-10_000, 10_000)
            upper = lower + int(rng.expovariate(1 / 300))
            tree.insert(lower, upper, next_id)
            brute.insert(lower, upper, next_id)
            alive[next_id] = (lower, upper)
            next_id += 1
        elif action < 0.75:
            victim = rng.choice(sorted(alive))
            lower, upper = alive.pop(victim)
            tree.delete(lower, upper, victim)
            brute.delete(lower, upper, victim)
        else:
            lower = rng.randrange(-11_000, 11_000)
            upper = lower + rng.randrange(0, 2000)
            assert sorted(tree.intersection(lower, upper)) == \
                sorted(brute.intersection(lower, upper))
    for index in tree.table.indexes.values():
        index.tree.check_invariants()


def test_multiple_structures_share_one_database():
    """Catalog isolation: an RI-tree and a plain table coexist in one
    engine instance."""
    db = Database()
    tree = RITree(db, name="Intervals")
    extra = db.create_table("Audit", ["ts", "what"])
    tree.insert(1, 10, 1)
    extra.insert((123, 1))
    assert tree.intersection(5, 6) == [1]
    assert extra.row_count == 1


def test_io_accounting_is_consistent_across_structures():
    """physical <= logical holds for any mix of operations."""
    db = Database(block_size=512, cache_blocks=16)
    tree = RITree(db)
    for i in range(2000):
        tree.insert(i * 3, i * 3 + 10, i)
    for k in range(50):
        tree.intersection(k * 100, k * 100 + 500)
    assert db.stats.physical_reads <= db.stats.logical_reads
    db.flush()
    assert db.blocks_in_use > 0
