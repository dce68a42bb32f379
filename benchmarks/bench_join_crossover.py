"""Join-planner crossover benchmark: predicted vs measured, graded.

Sweeps the crossover region of the index-nested-loop vs plane-sweep
trade-off -- per-side cardinality and inner duration, the knobs of
:func:`repro.workloads.joins.join_grid` -- and at every grid point:

* builds an RI-tree over the inner relation and measures the index join's
  cold-cache physical/logical I/O through the harness counters;
* loads both relations into heap tables and measures the sweep's input
  scans on the same counters;
* runs the ``auto`` strategy as shipped and records the estimate it
  dispatched on (the engine-free
  :func:`~repro.core.costmodel.choose_join_strategy` path) -- its
  per-strategy predictions and its choice;
* records predicted-vs-measured cost for both strategies, plus which
  strategy was *empirically* cheaper by measured physical reads.

The gate fails unless ``auto`` picks the measured-cheaper
strategy on at least :data:`ACCURACY_FLOOR` of the grid (ties count as
correct -- either pick is right when the measurements agree), or if the
``auto`` dispatch disagrees with the counting oracle's pair count
anywhere.  The JSON report doubles as the planner's calibration record:
per-point prediction errors are the data the cost-model constants
(``LEAF_MISS_LOCALITY``, ``SCAN_LEAF_DISTINCT``) were fitted against.

The ``join-crossover`` entry of ``benchmarks/bench_trajectory.py``,
which runs it and checks its gates.
"""

from __future__ import annotations

from repro.bench.experiments import get_scale
from repro.bench.harness import paper_database, run_join_batch
from repro.core.join import AutoJoin
from repro.core.ritree import RITree
from repro.workloads import joins as join_gen

#: Minimum fraction of grid points where auto must pick the strategy that
#: measured cheaper (by physical reads).  The acceptance gate.
ACCURACY_FLOOR = 0.9


def _measure_sweep_io(workload):
    """Cold-cache physical/logical I/O of the sweep's two input scans."""
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


def run_grid_point(workload):
    """Measure both strategies and the planner's verdict at one point."""
    outer, inner = workload.outer.records, workload.inner.records

    tree = RITree(paper_database())
    tree.bulk_load(inner)
    tree.db.flush()
    index_batch = run_join_batch(tree, outer)

    sweep_logical, sweep_physical = _measure_sweep_io(workload)

    # The auto strategy must agree with the counting oracle wherever it
    # dispatches -- a per-point parity check on top of the grading.
    auto = AutoJoin()
    auto_pairs = auto.count(outer, inner)
    expected = workload.expected_pairs()
    if auto_pairs != expected or index_batch.pairs != expected:
        raise SystemExit(
            f"auto-join parity failure at {workload.name}: auto "
            f"{auto_pairs}, index {index_batch.pairs}, oracle {expected}"
        )

    index_physical = index_batch.physical_io
    if index_physical < sweep_physical:
        measured_cheaper = "index-nested-loop"
    elif sweep_physical < index_physical:
        measured_cheaper = "sweep"
    else:
        measured_cheaper = "tie"
    # The estimate auto dispatched on -- predicted and measured cost of
    # both strategies sit side by side in every row.
    decision = auto.last_decision.as_dict()
    choice = decision["choice"]
    correct = measured_cheaper in (choice, "tie")
    return {
        "outer_n": workload.outer.n,
        "inner_n": workload.inner.n,
        "outer_d": workload.outer.duration_param,
        "inner_d": workload.inner.duration_param,
        "pairs": expected,
        "predicted_pairs": decision["result_count"],
        "predicted": {
            "index-nested-loop": decision["index"],
            "sweep": decision["sweep"],
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
        "choice": choice,
        "measured_cheaper": measured_cheaper,
        "correct": correct,
    }


def run(scale_name, seed):
    scale = get_scale(scale_name)
    grid = join_gen.join_grid(
        outer_ns=scale["crossover_outer_ns"],
        inner_ns=scale["crossover_inner_ns"],
        inner_ds=scale["crossover_inner_ds"],
        seed=seed,
    )
    rows = [run_grid_point(workload) for workload in grid]
    correct = sum(1 for row in rows if row["correct"])
    by_choice = {}
    for row in rows:
        by_choice[row["choice"]] = by_choice.get(row["choice"], 0) + 1
    index_err = [
        row["predicted"]["index-nested-loop"]["physical_reads"]
        / max(row["measured"]["index-nested-loop"]["physical_reads"], 1)
        for row in rows
    ]
    accuracy = correct / max(len(rows), 1)
    return {
        "workload": "join-crossover",
        "scale": scale["name"],
        "seed": seed,
        "grid_points": len(rows),
        "rows": rows,
        "summary": {
            "grid_points": len(rows),
            "correct_choices": correct,
            "auto_accuracy": accuracy,
            "accuracy_floor": ACCURACY_FLOOR,
            "choices": by_choice,
            "index_prediction_ratio_min": round(min(index_err), 3),
            "index_prediction_ratio_max": round(max(index_err), 3),
        },
        "metrics": {
            "grid_points": len(rows),
            "correct_choices": correct,
            "auto_accuracy": round(accuracy, 3),
            "index_physical_reads": sum(
                r["measured"]["index-nested-loop"]["physical_reads"] for r in rows
            ),
            "sweep_physical_reads": sum(
                r["measured"]["sweep"]["physical_reads"] for r in rows
            ),
        },
        "gates": {"auto_accuracy_at_floor": accuracy >= ACCURACY_FLOOR},
    }
