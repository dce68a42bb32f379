"""Interval-join benchmark: index-nested-loop vs plane sweep vs oracle.

Runs the interval equi-overlap join ``R JOIN S`` on a two-sided workload
(cardinality and duration controlled per side by the scale preset)
through the three strategies of :mod:`repro.core.join` and emits a JSON
report:

* ``index-nested-loop`` -- an RI-tree over the inner relation, one
  batched intersection probe per outer tuple.  Logical and physical I/O
  are observed through the same :class:`~repro.engine.stats.IoStats`
  counters as the Figure 13 queries, and the report includes an
  in-process cross-check that ``join_count`` reproduces, bit for bit,
  the I/O of the equivalent per-probe ``intersection_count`` loop.
* ``sweep`` -- the Piatov-style endpoint-sorted merge join with gapless
  active lists.  Its only engine I/O is one sequential heap scan of each
  input relation, measured on the same counters.
* ``nested-loop`` -- the brute-force oracle (pure Python up to a
  cross-product cap, numpy-vectorised beyond it), run once for parity.
* ``auto`` -- the cost-model planner: its decision (with the predicted
  per-strategy costs) is recorded, and its row carries the measured cost
  of the strategy it dispatched to.

The benchmark fails loudly unless all four strategies -- plus the
independent ``searchsorted`` counting oracle -- agree on the pair count,
and unless the index and sweep *pair sets* are identical.  Python-level
work is measured as profile-hook frame activations per emitted pair.

The ``interval-join`` entry of ``benchmarks/bench_trajectory.py``,
which runs it and checks its gates.
"""

from __future__ import annotations

import time

from benchlib import best_of, count_frame_activations
from repro.bench.experiments import get_scale
from repro.bench.harness import paper_database, run_join_batch
from repro.core.join import AutoJoin, NestedLoopJoin, SweepJoin
from repro.core.ritree import RITree
from repro.workloads import joins as join_gen

#: Cross-product size up to which the pure-Python oracle runs; beyond it
#: the numpy-vectorised brute force (same nested-loop semantics) is used.
PURE_ORACLE_LIMIT = 30_000_000

#: Cold-cache repetitions per measured strategy (best time kept).
REPEAT = 3

#: Counter keys that must reproduce exactly across repeated runs.
DETERMINISTIC_KEYS = ("pairs", "logical_reads", "physical_reads")


def _measure_index_join(tree, probes):
    """Cold-cache ``join_count`` runs via the harness, plus one
    ``join_pairs`` run to check the two paths' I/O parity."""

    def run_count():
        batch = run_join_batch(tree, probes, count_only=True)
        return {
            "pairs": batch.pairs,
            "logical_reads": batch.logical_io,
            "physical_reads": batch.physical_io,
            "time_s": batch.response_time,
        }

    count_row = best_of(REPEAT, run_count, keys=DETERMINISTIC_KEYS)
    pairs_batch = run_join_batch(tree, probes, count_only=False)
    for key, got in (
        ("pairs", pairs_batch.pairs),
        ("logical_reads", pairs_batch.logical_io),
        ("physical_reads", pairs_batch.physical_io),
    ):
        if got != count_row[key]:
            raise SystemExit(
                f"index join paths diverge: join_pairs {key} {got} != "
                f"join_count {count_row[key]}"
            )
    return count_row


def _check_figure13_accounting(tree, probes, count_row):
    """The acceptance cross-check: the join's I/O is exactly the sum of
    the per-probe Figure 13 intersection queries, on the same counters."""
    tree.db.clear_cache()
    with tree.db.measure() as delta:
        total = 0
        for lower, upper, _probe_id in probes:
            total += tree.intersection_count(lower, upper)
    reference = {
        "pairs": total,
        "logical_reads": delta.logical_reads,
        "physical_reads": delta.physical_reads,
    }
    for key, expected in reference.items():
        if count_row[key] != expected:
            raise SystemExit(
                f"join I/O accounting diverges from per-probe "
                f"intersection_count: {key} {count_row[key]} != {expected}"
            )
    return {"status": "bit-identical", **reference}


def _measure_sweep(workload):
    """Sweep runs reading both inputs from heap tables on the engine.

    The sweep's engine I/O is one sequential scan per relation -- the
    index-free competitor pays full input consumption, measured on the
    same counters as the index join.
    """
    db = paper_database()
    outer_table = db.create_table("R", ["lower", "upper", "id"])
    inner_table = db.create_table("S", ["lower", "upper", "id"])
    outer_table.bulk_load(workload.outer.records)
    inner_table.bulk_load(workload.inner.records)
    db.flush()
    sweep = SweepJoin()

    def run_once():
        db.clear_cache()
        started = time.perf_counter()
        with db.measure() as delta:
            outer = [row for _rowid, row in outer_table.scan()]
            inner = [row for _rowid, row in inner_table.scan()]
        count = sweep.count(outer, inner)
        elapsed = time.perf_counter() - started
        return {
            "pairs": count,
            "logical_reads": delta.logical_reads,
            "physical_reads": delta.physical_reads,
            "time_s": elapsed,
        }

    return best_of(REPEAT, run_once, keys=DETERMINISTIC_KEYS)


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
        "outer_d": workload.outer.duration_param,
        "inner_d": workload.inner.duration_param,
        "rows": [],
    }

    # Index-nested-loop join: RI-tree over the inner relation.
    tree = RITree(paper_database())
    tree.bulk_load(inner)
    tree.db.flush()
    # The planner's view of this workload (the estimate the auto strategy
    # dispatches on), recorded before any measurement.
    planner = tree.cost_model().estimate_join(outer).as_dict()
    report["planner"] = planner
    index_row = _measure_index_join(tree, outer)
    report["figure13_accounting"] = _check_figure13_accounting(
        tree, outer, index_row
    )
    index_frames, _ = count_frame_activations(lambda: tree.join_count(outer))
    report["rows"].append(
        {
            "strategy": "index-nested-loop",
            **index_row,
            "frame_activations": index_frames,
            "frames_per_pair": index_frames / max(index_row["pairs"], 1),
        }
    )

    # Sweep join: inputs scanned from heap tables, merge in memory.
    sweep_row = _measure_sweep(workload)
    sweep = SweepJoin()
    sweep_frames, _ = count_frame_activations(lambda: sweep.count(outer, inner))
    report["rows"].append(
        {
            "strategy": "sweep",
            **sweep_row,
            "frame_activations": sweep_frames,
            "frames_per_pair": sweep_frames / max(sweep_row["pairs"], 1),
        }
    )

    # Auto strategy: the planner's dispatch, with the measured cost of
    # whichever strategy it picked (the decision itself is O(statistics),
    # so the dispatched strategy's measurements *are* auto's).  The row's
    # prediction is the estimate auto actually dispatched on (the
    # engine-free planner), not the tree model recorded above -- the two
    # estimators may legitimately disagree right at the crossover.
    auto = AutoJoin()
    auto_pairs = auto.count(outer, inner)
    dispatched = auto.last_dispatch
    dispatched_row = index_row if dispatched == "index-nested-loop" \
        else sweep_row
    report["rows"].append(
        {
            "strategy": "auto",
            "pairs": auto_pairs,
            "logical_reads": dispatched_row["logical_reads"],
            "physical_reads": dispatched_row["physical_reads"],
            "time_s": dispatched_row["time_s"],
            "dispatched_to": dispatched,
            "predicted": auto.last_decision.as_dict(),
        }
    )

    # Brute-force oracle (once; it exists to falsify the other two).
    started = time.perf_counter()
    if workload.pair_domain <= PURE_ORACLE_LIMIT:
        oracle_pairs = NestedLoopJoin().pairs(outer, inner)
        oracle_impl = "pure-python"
    else:
        oracle_pairs = join_gen.brute_force_pairs(outer, inner)
        oracle_impl = "numpy"
    oracle_elapsed = time.perf_counter() - started
    report["rows"].append(
        {
            "strategy": "nested-loop",
            "pairs": len(oracle_pairs),
            "logical_reads": 0,
            "physical_reads": 0,
            "time_s": oracle_elapsed,
            "oracle_impl": oracle_impl,
        }
    )

    # Parity: all three strategies plus the independent counting oracle.
    counting_oracle = workload.expected_pairs()
    counts = {row["strategy"]: row["pairs"] for row in report["rows"]}
    if len(set(counts.values()) | {counting_oracle}) != 1:
        raise SystemExit(
            f"join parity failure: {counts}, counting oracle "
            f"{counting_oracle}"
        )
    index_pairs = sorted(tree.join_pairs(outer))
    if index_pairs != sorted(SweepJoin().pairs(outer, inner)):
        raise SystemExit("index and sweep pair SETS diverge")
    if index_pairs != sorted(oracle_pairs):
        raise SystemExit("index and nested-loop pair SETS diverge")
    report["parity"] = {
        "status": "identical",
        "pairs": counting_oracle,
        "strategies_compared": sorted(counts),
        "pair_sets_compared": ["index-nested-loop", "sweep", "nested-loop"],
    }

    index_io = index_row["physical_reads"]
    sweep_io = sweep_row["physical_reads"]
    report["summary"] = {
        "pairs": counting_oracle,
        "join_selectivity": workload.selectivity(),
        "index_physical_io": index_io,
        "sweep_physical_io": sweep_io,
        "index_over_sweep_io": index_io / max(sweep_io, 1),
        "index_time_s": index_row["time_s"],
        "sweep_time_s": sweep_row["time_s"],
    }

    rows = {row["strategy"]: row for row in report["rows"]}
    auto_row = rows["auto"]
    strategies = ("index-nested-loop", "sweep")
    report["metrics"] = {
        "pairs": counting_oracle,
        "index_physical_reads": index_io,
        "index_logical_reads": index_row["logical_reads"],
        "sweep_physical_reads": sweep_io,
        "sweep_logical_reads": sweep_row["logical_reads"],
        "auto_physical_reads": auto_row["physical_reads"],
    }
    report["gates"] = {
        "four_strategies_reported": len(rows) == 4,
        "auto_row_reported": "auto" in rows,
        "strategy_pair_counts_agree": len({r["pairs"] for r in rows.values()}) == 1,
        "pair_sets_identical": report["parity"]["status"] == "identical",
        "auto_dispatch_valid": auto_row["dispatched_to"] in strategies,
        "auto_follows_its_estimate": (
            auto_row["predicted"]["choice"] == auto_row["dispatched_to"]
        ),
        "planner_choice_valid": planner["choice"] in strategies,
    }
    return report
