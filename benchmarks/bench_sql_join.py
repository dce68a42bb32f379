"""SQL-backend interval-join benchmark: the Figure 9 join on sqlite3.

Runs the interval equi-overlap join ``R JOIN S`` with the inner relation
stored in the sqlite3-backed :class:`~repro.sql.SQLRITree` and verifies
that the *set-at-a-time* SQL evaluation -- the probe relation loaded into
a TEMP table and joined against the Figure 9 form in one
statement -- reproduces, pair for pair, every other evaluation of the
same join:

* the simulated-engine RI-tree's batched index-nested-loop join,
* the Piatov-style plane sweep over the SQL tree's ``stored_records``,
* the ``auto`` strategy planning on the store's ``analyze()``
  statistics (its dispatch must match the planner's published choice),
* the independent ``searchsorted`` counting oracle.

The benchmark also asserts that sqlite's own optimizer drives the join's
nested-loop plan through both Figure 2 indexes (``EXPLAIN QUERY PLAN``
must SEARCH lowerIndex and seek upperIndex on ``(node, upper)``), and
aborts on any parity or planner-consistency failure.  Its gate: the
in-memory database is priced memory-resident, zero physical reads on both
strategies.

The ``sql-join`` entry of ``benchmarks/bench_trajectory.py``, which
runs it and checks its gates.
"""

from __future__ import annotations

import time

from benchlib import figure10_plan
from repro.bench.experiments import get_scale
from repro.bench.harness import paper_database, run_join_batch
from repro.core.join import AutoJoin, SweepJoin
from repro.core.ritree import RITree
from repro.sql import SQLRITree
from repro.workloads import joins as join_gen


def run(scale_name, seed):
    scale = get_scale(scale_name)
    workload = join_gen.join_workload(
        outer_n=scale["join_outer_n"],
        inner_n=scale["join_inner_n"],
        outer_d=scale["join_outer_d"],
        inner_d=scale["join_inner_d"],
        seed=seed,
    )
    outer, inner = workload.outer.records, workload.inner.records

    report = {
        "workload": workload.name,
        "scale": scale["name"],
        "seed": seed,
        "outer_n": workload.outer.n,
        "inner_n": workload.inner.n,
        "rows": [],
    }

    sql_tree = SQLRITree()
    sql_tree.bulk_load(inner)

    # The planner's view of the workload, from SQL-aggregated statistics.
    planner = sql_tree.cost_model().estimate_join(outer)
    report["planner"] = planner.as_dict()

    # The set-at-a-time SQL join, driven through the shared harness entry
    # point (count path first -- no pair list crosses the DB-API boundary
    # -- then the pair path, which must agree).
    count_batch = run_join_batch(sql_tree, outer, count_only=True, plan=True)
    started = time.perf_counter()
    sql_pairs = sql_tree.join_pairs(outer)
    pairs_elapsed = time.perf_counter() - started
    if count_batch.pairs != len(sql_pairs):
        raise SystemExit(
            f"SQL join paths diverge: join_count {count_batch.pairs} != "
            f"join_pairs {len(sql_pairs)}"
        )
    report["rows"].append(
        {
            "strategy": "sql-batch",
            "pairs": count_batch.pairs,
            "count_time_s": count_batch.response_time,
            "pairs_time_s": pairs_elapsed,
            "predicted": count_batch.decision,
        }
    )

    # Plane sweep over the SQL tree's enumerated relation.
    started = time.perf_counter()
    sweep_pairs = SweepJoin().pairs(outer, sql_tree.stored_records())
    sweep_elapsed = time.perf_counter() - started
    report["rows"].append(
        {
            "strategy": "sweep",
            "pairs": len(sweep_pairs),
            "pairs_time_s": sweep_elapsed,
        }
    )

    # Auto strategy planning (and dispatching) on the sqlite backend.
    auto = AutoJoin(method=sql_tree)
    started = time.perf_counter()
    auto_pairs = auto.pairs(outer, inner)
    auto_elapsed = time.perf_counter() - started
    # The dispatch must match the planner's published choice AND the
    # dispatched_to field now reports what actually ran (last_dispatch),
    # not merely what the planner picked.
    decision_consistent = auto.last_dispatch == planner.choice
    report["rows"].append(
        {
            "strategy": "auto",
            "pairs": len(auto_pairs),
            "pairs_time_s": auto_elapsed,
            "dispatched_to": auto.last_dispatch,
            "predicted": auto.last_decision.as_dict(),
        }
    )

    # The simulated-engine index join over the same inner relation.
    engine_tree = RITree(paper_database())
    engine_tree.bulk_load(inner)
    engine_tree.db.flush()
    engine_batch = run_join_batch(engine_tree, outer, count_only=False)
    engine_pairs = engine_tree.join_pairs(outer)
    report["rows"].append(
        {
            "strategy": "engine-index",
            "pairs": engine_batch.pairs,
            "physical_reads": engine_batch.physical_io,
            "logical_reads": engine_batch.logical_io,
            "pairs_time_s": engine_batch.response_time,
        }
    )

    # Cross-backend parity: identical pair SETS everywhere, and the
    # independent counting oracle agrees on the size.
    counting_oracle = workload.expected_pairs()
    reference = sorted(sql_pairs)
    for label, pairs in (
        ("sweep", sweep_pairs),
        ("auto", auto_pairs),
        ("engine-index", engine_pairs),
    ):
        if sorted(pairs) != reference:
            raise SystemExit(f"pair-set parity failure: sql-batch vs {label}")
    if len(reference) != counting_oracle:
        raise SystemExit(
            f"counting oracle disagrees: {len(reference)} != {counting_oracle}"
        )
    if not decision_consistent:
        raise SystemExit(
            f"auto dispatched to {auto.last_decision.choice!r} but the "
            f"planner chose {planner.choice!r}"
        )
    report["parity"] = {
        "status": "identical",
        "pairs": counting_oracle,
        "strategies_compared": ["sql-batch", "sweep", "auto", "engine-index"],
    }

    # The optimizer must drive the batch statement through both indexes,
    # seeking (node, upper) for single left nodes as Figure 10 does.
    plan_lines = sql_tree.explain_join(outer[: min(len(outer), 16)])
    uses_both = figure10_plan(plan_lines)
    if not uses_both:
        raise SystemExit(f"batch join plan is not Figure 10's: {plan_lines}")
    report["query_plan"] = plan_lines

    report["summary"] = {
        "pairs": counting_oracle,
        "join_selectivity": workload.selectivity(),
        "planner_choice": planner.choice,
        "decision_consistent": decision_consistent,
        "plan_uses_both_indexes": uses_both,
        "sql_count_time_s": count_batch.response_time,
        "sql_pairs_time_s": pairs_elapsed,
        "sweep_time_s": sweep_elapsed,
    }
    report["metrics"] = {
        "pairs": counting_oracle,
        "planner_choice": planner.choice,
        "decision_consistent": int(decision_consistent),
        "plan_uses_both_indexes": int(uses_both),
    }
    report["gates"] = {
        "planner_memory_resident": all(
            report["planner"][strategy]["physical_reads"] == 0
            for strategy in ("index", "sweep")
        ),
    }
    return report
