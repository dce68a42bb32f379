"""Interval joins: which reservations overlap which maintenance windows?

Joins two interval relations through the strategies of
``repro.core.join`` -- the RI-tree index-nested-loop join, the
Piatov-style plane sweep, a pure-Python nested loop, and the cost-model
``auto`` planner -- and shows that the identical pair set comes back from
both engines (the simulated storage engine and the sqlite3 backend,
where the join runs as ONE set-at-a-time SQL statement) and under
Allen-relation join predicates.

Run:  PYTHONPATH=src python examples/interval_join.py
"""

from repro.bench.harness import run_join_batch
from repro.core import RITree
from repro.core.join import AutoJoin, interval_join
from repro.sql import SQLRITree
from repro.workloads import join_workload


def main() -> None:
    # Two relations with independently controlled cardinality/duration:
    # few long "maintenance windows" probing many short "reservations".
    workload = join_workload(
        outer_n=60, inner_n=600, outer_d=5000, inner_d=800, seed=42
    )
    outer = workload.outer.records
    inner = workload.inner.records
    print(f"workload: {workload.name}")
    print(
        f"outer={workload.outer.n} inner={workload.inner.n} "
        f"cross product={workload.pair_domain}"
    )

    results = {
        strategy: sorted(interval_join(outer, inner, strategy=strategy))
        for strategy in ("nested-loop", "sweep", "index", "auto")
    }
    sizes = {name: len(pairs) for name, pairs in results.items()}
    print(f"pairs per strategy: {sizes}")
    for name, pairs in results.items():
        assert pairs == results["nested-loop"], name
    assert len(results["sweep"]) == workload.expected_pairs()

    # The same join on the sqlite3 backend: the probe relation goes into
    # a TEMP table and the literal Figure 9 form answers the whole batch
    # in one statement -- identical pair set, real SQL optimizer.
    sql_tree = SQLRITree()
    sql_tree.bulk_load(inner)
    sql_pairs = sorted(sql_tree.join_pairs(outer))
    assert sql_pairs == results["nested-loop"]
    auto = AutoJoin(method=sql_tree)
    assert sorted(auto.pairs(outer, inner)) == sql_pairs
    print(
        f"sqlite backend: {len(sql_pairs)} pairs from one set-at-a-time "
        f"statement; auto planner chose {auto.last_decision.choice!r}"
    )

    # Allen-relation join predicates ride on the same API -- on every
    # strategy: the index path probes the predicate's inverse relation
    # (stored-subject question) and the auto planner prices the
    # relation's selectivity before dispatching.
    before = interval_join(outer, inner, strategy="sweep", predicate="before")
    during = interval_join(outer, inner, strategy="sweep", predicate="during")
    assert sorted(before) == sorted(
        interval_join(outer, inner, strategy="nested-loop", predicate="before")
    )
    assert sorted(before) == sorted(
        interval_join(outer, inner, strategy="index", predicate="before")
    )
    auto_pred = AutoJoin(predicate="during")
    assert sorted(auto_pred.pairs(outer, inner)) == sorted(during)
    print(
        f"predicate joins: {len(before)} 'before' pairs, "
        f"{len(during)} 'during' pairs (auto dispatched 'during' to "
        f"{auto_pred.last_dispatch!r})"
    )
    assert sorted(sql_tree.join_pairs(outer, predicate="during")) == \
        sorted(during)

    # The index join's I/O is accounted like any Figure 13 query batch.
    tree = RITree()
    tree.bulk_load(inner)
    tree.db.flush()
    batch = run_join_batch(tree, outer)
    print(
        f"index-nested-loop join: {batch.pairs} pairs, "
        f"{batch.physical_io} physical / {batch.logical_io} logical "
        f"block reads ({batch.io_per_pair:.3f} physical I/O per pair)"
    )

    print("OK")


if __name__ == "__main__":
    main()
