"""Predicate-join benchmark: every Allen relation, every strategy, graded.

The acceptance gate of the predicate-join tentpole, in three legs:

* **Parity** -- on one two-sided workload, all four strategies (sweep,
  index via a prebuilt RI-tree, auto planning on the tree's cost model,
  and the nested-loop oracle) must emit the identical pair set for every
  one of the 14 join predicates (``intersects`` + Allen's 13).
* **SQL one-statement** -- the sqlite backend must answer a predicate
  probe batch with ONE statement joining the probe relation (verified by
  the trace hook), pair-set-identical to the engine, with ``EXPLAIN``
  SEARCHing both Figure 2 indexes and building no AUTOMATIC index.
* **Planner grading** -- on a crossover grid (probe count x relation),
  the ``auto`` strategy must pick the measured-cheaper side (by physical
  reads, ties count as correct) on at least :data:`ACCURACY_FLOOR` of
  the grid -- the predicate analogue of ``bench_join_crossover.py``,
  and the calibration record for ``PREDICATE_SCAN_LEAF_DISTINCT`` and
  the heap-fetch Yao term in ``repro.core.costmodel``.

A parity or plan-shape failure aborts the run; the plan shape and the
planner accuracy are also gates of the ``predicate-join`` entry of
``benchmarks/bench_trajectory.py``, which runs it.
"""

from __future__ import annotations

import time

from repro.bench.experiments import get_scale
from repro.bench.harness import paper_database, run_join_batch
from repro.core.join import AutoJoin, NestedLoopJoin, SweepJoin
from repro.core.predicates import JOIN_PREDICATES
from repro.core.ritree import RITree
from repro.sql import SQLRITree
from repro.workloads import joins as join_gen

#: Minimum fraction of grid points where auto must pick the strategy
#: that measured cheaper (by physical reads).  The acceptance gate.
ACCURACY_FLOOR = 0.9

#: Relations whose candidate ranges need the stored extent, and
#: therefore issue one extra MIN/MAX aggregate on the sqlite backend.
EXTENT_RELATIONS = ("before", "after")


def _parity_leg(workload):
    """All four strategies x all 14 predicates, one pair set each."""
    outer, inner = workload.outer.records, workload.inner.records
    tree = RITree(paper_database())
    tree.bulk_load(inner)
    tree.db.flush()
    rows = []
    for name in JOIN_PREDICATES:
        started = time.perf_counter()
        expected = sorted(NestedLoopJoin(predicate=name).pairs(outer, inner))
        oracle_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        sweep_pairs = sorted(SweepJoin(predicate=name).pairs(outer, inner))
        sweep_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        index_pairs = sorted(tree.join_pairs(outer, predicate=name))
        index_elapsed = time.perf_counter() - started

        auto = AutoJoin(method=tree, predicate=name)
        auto_pairs = sorted(auto.pairs(outer, inner=[]))
        for label, pairs in (("sweep", sweep_pairs),
                             ("index", index_pairs),
                             ("auto", auto_pairs)):
            if pairs != expected:
                raise SystemExit(
                    f"predicate-join parity failure: {label} vs oracle on "
                    f"{name!r} ({len(pairs)} vs {len(expected)} pairs)"
                )
        if tree.join_count(outer, predicate=name) != len(expected):
            raise SystemExit(f"join_count diverges from join_pairs on {name!r}")
        if auto.last_dispatch != auto.last_decision.choice:
            raise SystemExit(
                f"auto dispatch {auto.last_dispatch!r} diverges from its "
                f"choice {auto.last_decision.choice!r} on {name!r}"
            )
        rows.append(
            {
                "predicate": name,
                "pairs": len(expected),
                "auto_dispatched_to": auto.last_dispatch,
                "oracle_time_s": oracle_elapsed,
                "sweep_time_s": sweep_elapsed,
                "index_time_s": index_elapsed,
            }
        )
    return rows


def _sql_leg(workload):
    """One-statement sqlite evaluation, EXPLAIN-verified, engine parity."""
    outer, inner = workload.outer.records, workload.inner.records
    sql_tree = SQLRITree()
    sql_tree.bulk_load(inner)
    engine_tree = RITree(paper_database())
    engine_tree.bulk_load(inner)
    engine_tree.db.flush()
    one_statement = True
    plans_clean = True
    for name in JOIN_PREDICATES:
        if name == "intersects":
            continue
        statements = []
        sql_tree.conn.set_trace_callback(statements.append)
        sql_pairs = sorted(sql_tree.join_pairs(outer, predicate=name))
        sql_tree.conn.set_trace_callback(None)
        if sql_pairs != sorted(engine_tree.join_pairs(outer, predicate=name)):
            raise SystemExit(f"sqlite vs engine pair sets diverge on {name!r}")
        batch_selects = [
            s for s in statements
            if s.lstrip().startswith("SELECT") and "batchProbes" in s
        ]
        extra_allowed = 1 if name in EXTENT_RELATIONS else 0
        selects = [s for s in statements if s.lstrip().startswith("SELECT")]
        if len(batch_selects) != 1 or len(selects) > 1 + extra_allowed:
            one_statement = False
        plan = "\n".join(sql_tree.explain_join(outer[:16], predicate=name))
        if ("lowerIndex" not in plan or "upperIndex" not in plan
                or "AUTOMATIC" in plan):
            plans_clean = False
    if not one_statement:
        raise SystemExit("sqlite predicate join issued more than ONE "
                         "probe-batch statement")
    if not plans_clean:
        raise SystemExit("sqlite predicate-join plan skips a Figure 2 index "
                         "or builds an automatic index")
    return {"one_statement": one_statement, "plans_clean": plans_clean}


def _measure_sweep_io(workload):
    """Cold-cache physical reads of the sweep's two input scans."""
    db = paper_database()
    outer_table = db.create_table("R", ["lower", "upper", "id"])
    inner_table = db.create_table("S", ["lower", "upper", "id"])
    outer_table.bulk_load(workload.outer.records)
    inner_table.bulk_load(workload.inner.records)
    db.flush()
    db.clear_cache()
    with db.measure() as delta:
        for _rowid, _row in outer_table.scan():
            pass
        for _rowid, _row in inner_table.scan():
            pass
    return delta.logical_reads, delta.physical_reads


def _grading_leg(scale, seed):
    """Measure both strategies per (probe count x relation) grid point."""
    rows = []
    for point, outer_n in enumerate(scale["predicate_grid_outer_ns"]):
        workload = join_gen.join_workload(
            outer_n=outer_n,
            inner_n=scale["predicate_grid_inner_n"],
            seed=seed * 10_000 + point,
        )
        outer, inner = workload.outer.records, workload.inner.records
        tree = RITree(paper_database())
        tree.bulk_load(inner)
        tree.db.flush()
        sweep_logical, sweep_physical = _measure_sweep_io(workload)
        for relation in scale["predicate_grid_relations"]:
            index_batch = run_join_batch(tree, outer, predicate=relation)
            expected = len(
                SweepJoin(predicate=relation).pairs(outer, inner))
            if index_batch.pairs != expected:
                raise SystemExit(
                    f"grid parity failure at outer={outer_n}, "
                    f"{relation!r}: index {index_batch.pairs}, "
                    f"sweep {expected}"
                )
            decision = AutoJoin(predicate=relation).decide(outer, inner)
            index_physical = index_batch.physical_io
            if index_physical < sweep_physical:
                measured_cheaper = "index-nested-loop"
            elif sweep_physical < index_physical:
                measured_cheaper = "sweep"
            else:
                measured_cheaper = "tie"
            rows.append(
                {
                    "outer_n": outer_n,
                    "inner_n": workload.inner.n,
                    "predicate": relation,
                    "pairs": expected,
                    "predicted_pairs": round(decision.result_count, 1),
                    "predicted": {
                        "index-nested-loop": decision.index.as_dict(),
                        "sweep": decision.sweep.as_dict(),
                    },
                    "measured": {
                        "index-nested-loop": {
                            "logical_reads": index_batch.logical_io,
                            "physical_reads": index_physical,
                        },
                        "sweep": {
                            "logical_reads": sweep_logical,
                            "physical_reads": sweep_physical,
                        },
                    },
                    "choice": decision.choice,
                    "measured_cheaper": measured_cheaper,
                    "correct": measured_cheaper in (decision.choice, "tie"),
                }
            )
    return rows


def run(scale_name, seed):
    scale = get_scale(scale_name)
    workload = join_gen.join_workload(
        outer_n=scale["predicate_outer_n"],
        inner_n=scale["predicate_inner_n"],
        seed=seed,
    )
    parity_rows = _parity_leg(workload)
    sql_summary = _sql_leg(workload)
    grid_rows = _grading_leg(scale, seed)
    correct = sum(1 for row in grid_rows if row["correct"])
    by_choice = {}
    for row in grid_rows:
        by_choice[row["choice"]] = by_choice.get(row["choice"], 0) + 1
    accuracy = correct / max(len(grid_rows), 1)
    metrics = {
        "predicates": len(JOIN_PREDICATES),
        "pairs_total": sum(row["pairs"] for row in parity_rows),
        "grid_points": len(grid_rows),
        "correct_choices": correct,
        "auto_accuracy": round(accuracy, 3),
        "index_physical_reads": sum(
            r["measured"]["index-nested-loop"]["physical_reads"] for r in grid_rows
        ),
        "sweep_physical_reads": sum(
            r["measured"]["sweep"]["physical_reads"] for r in grid_rows
        ),
        "sql_one_statement": int(sql_summary["one_statement"]),
    }
    return {
        "workload": workload.name,
        "scale": scale["name"],
        "seed": seed,
        "parity_rows": parity_rows,
        "grid_rows": grid_rows,
        "summary": {
            "strategies_compared": ["sweep", "index", "auto", "nested-loop"],
            "auto_accuracy": accuracy,
            "accuracy_floor": ACCURACY_FLOOR,
            "choices": by_choice,
            "sql_plans_clean": sql_summary["plans_clean"],
        },
        "metrics": metrics,
        "gates": {
            "fourteen_predicates": metrics["predicates"] == 14,
            "fourteen_parity_rows": len(parity_rows) == 14,
            "sql_one_statement": sql_summary["one_statement"] is True,
            "sql_plans_clean": sql_summary["plans_clean"] is True,
            "auto_accuracy_at_floor": accuracy >= ACCURACY_FLOOR,
            "auto_dispatch_valid": all(
                row["auto_dispatched_to"] in ("index-nested-loop", "sweep")
                for row in parity_rows
            ),
        },
    }
