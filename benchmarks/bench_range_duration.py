"""Range-duration benchmark: one query family, five backends, graded.

The acceptance gate of the query-family tentpole, on the genomic
workload (chromosome-partitioned domains, heavily right-skewed feature
lengths -- the shape that makes duration bands selective at all).  Four
legs:

* **Parity** -- on one genomic database, every ``range_duration`` band
  must return the identical sorted id set on all five registered
  backends (simulated-disk RI-tree, temporal RI-tree, sqlite RI-tree,
  HINT, and the sharded router at every configured shard count over
  chromosome-edge cuts), matched against a brute-force oracle; a join
  leg must produce the oracle's exact pair set and ``join_count`` must
  agree with ``join_pairs`` everywhere.
* **Temporal** -- the three temporal-capable backends load now-relative
  and open-ended rows on top of the finite records; every band must
  match the oracle evaluated on *effective* bounds (now-rows at the
  clock, infinite rows only inside unbounded bands).
* **SQL one-statement** -- the sqlite backend must answer each family
  query with ONE rewritten Figure 9 statement (verified by the trace
  hook) whose ``EXPLAIN`` SEARCHes both Figure 2 indexes and builds no
  AUTOMATIC index.
* **Planner grading** -- on a (probe count x duration band) grid,
  ``AutoJoin(predicate=range_duration(...))`` must pick the
  measured-cheaper strategy (by physical reads, ties correct) on at
  least :data:`ACCURACY_FLOOR` of the grid -- the calibration record for
  the duration histogram of ``repro.core.costmodel.BoundSummary``.

A parity or plan-shape failure aborts the run; the plan shape, the
leg sizes and the planner accuracy are also gates of the
``range-duration`` entry of ``benchmarks/bench_trajectory.py``, which
runs it.
"""

from __future__ import annotations

import time

from repro.bench.experiments import get_scale
from repro.bench.harness import paper_database, run_join_batch
from repro.core import HintStore, RITree, TemporalRITree
from repro.core.join import AutoJoin, NestedLoopJoin, SweepJoin
from repro.core.predicates import range_duration
from repro.core.router import ShardedStore
from repro.core.temporal import UPPER_INF
from repro.sql import SQLRITree
from repro.workloads import (
    OUTER_ID_OFFSET,
    chromosome_cuts,
    duration_band,
    genomic,
)
from repro.workloads import queries as query_gen

#: Minimum fraction of grid points where auto must pick the strategy
#: that measured cheaper (by physical reads).  The acceptance gate.
ACCURACY_FLOOR = 0.9

#: The clock used by the temporal leg, chosen mid-domain so now-relative
#: rows get a spread of effective durations.
TEMPORAL_NOW = 500_000


def _oracle(records, pred, lower, upper):
    """Sorted ids of records standing in ``pred`` to ``[lower, upper]``."""
    holds = pred.holds
    return sorted(
        interval_id
        for s, e, interval_id in records
        if holds(s, e, lower, upper)
    )


def _band_predicates(records, fractions):
    """One compiled ``range_duration`` query per configured band."""
    bands = []
    for lo_fraction, hi_fraction in fractions:
        dmin, dmax = duration_band(records, lo_fraction, hi_fraction)
        bands.append(
            {
                "fractions": [lo_fraction, hi_fraction],
                "dmin": dmin,
                "dmax": dmax,
                "query": range_duration(dmin, dmax),
            }
        )
    return bands


def _build_stores(records, shard_counts):
    """All five backends plus the sharded router per shard count."""
    stores = {
        "ritree": RITree(paper_database()),
        "temporal-ritree": TemporalRITree(paper_database()),
        "sql-ritree": SQLRITree(),
        "hint": HintStore(),
    }
    for shard_count in shard_counts:
        stores[f"sharded-{shard_count}"] = ShardedStore.create(
            backend="hint", cuts=chromosome_cuts(shard_count)
        )
    for store in stores.values():
        store.bulk_load(records)
    return stores


def _parity_leg(workload, bands, scale, seed):
    """Every band on every backend against the brute-force oracle."""
    records = workload.records
    stores = _build_stores(records, scale["range_duration_shard_counts"])
    windows = query_gen.range_queries(
        workload, 0.01, scale["range_duration_queries"], seed=seed + 7
    )
    rows = []
    for band in bands:
        pred = band["query"]
        expected = [_oracle(records, pred, lo, up) for lo, up in windows]
        for label, store in stores.items():
            started = time.perf_counter()
            answers = [
                sorted(store.query(lo, up, predicate=pred))
                for lo, up in windows
            ]
            elapsed = time.perf_counter() - started
            if answers != expected:
                raise SystemExit(
                    f"range-duration parity failure: {label} diverges "
                    f"from the oracle on band {band['fractions']}"
                )
            rows.append(
                {
                    "backend": label,
                    "band": band["fractions"],
                    "dmin": band["dmin"],
                    "dmax": band["dmax"],
                    "queries": len(windows),
                    "results_total": sum(len(ids) for ids in expected),
                    "time_s": elapsed,
                }
            )
    # Join leg: an independent genomic probe relation, oracle pair set.
    probes = [
        (lower, upper, OUTER_ID_OFFSET + interval_id)
        for lower, upper, interval_id in genomic(
            scale["range_duration_probe_n"], seed=seed + 13
        ).records
    ]
    pairs_total = 0
    for band in bands:
        pred = band["query"]
        expected_pairs = sorted(
            NestedLoopJoin(predicate=pred).pairs(probes, records)
        )
        pairs_total += len(expected_pairs)
        for label, store in stores.items():
            pairs = sorted(store.join_pairs(probes, predicate=pred))
            if pairs != expected_pairs:
                raise SystemExit(
                    f"range-duration join parity failure: {label} on "
                    f"band {band['fractions']} ({len(pairs)} vs "
                    f"{len(expected_pairs)} pairs)"
                )
            if store.join_count(probes, predicate=pred) != len(expected_pairs):
                raise SystemExit(
                    f"join_count diverges from join_pairs on {label}"
                )
    return rows, len(probes), pairs_total


def _temporal_leg(workload, bands, scale, seed):
    """Sentinel rows on the temporal backends, oracle on effective bounds."""
    records = workload.records
    temporal_n = scale["range_duration_temporal_rows"]
    sentinel_source = genomic(2 * temporal_n, seed=seed + 29).records
    now_rows = [
        (lower % TEMPORAL_NOW, interval_id + len(records))
        for lower, _upper, interval_id in sentinel_source[:temporal_n]
    ]
    infinite_rows = [
        (lower, interval_id + len(records))
        for lower, _upper, interval_id in sentinel_source[temporal_n:]
    ]
    stores = {
        "temporal-ritree": TemporalRITree(paper_database()),
        "sql-ritree": SQLRITree(),
        "hint": HintStore(),
    }
    effective = list(records)
    for store in stores.values():
        store.bulk_load(records)
        store.advance_to(TEMPORAL_NOW)
        for lower, interval_id in now_rows:
            store.insert_until_now(lower, interval_id)
        for lower, interval_id in infinite_rows:
            store.insert_infinite(lower, interval_id)
    effective.extend(
        (lower, TEMPORAL_NOW, interval_id) for lower, interval_id in now_rows
    )
    effective.extend(
        (lower, UPPER_INF, interval_id) for lower, interval_id in infinite_rows
    )
    windows = query_gen.range_queries(
        workload, 0.01, scale["range_duration_queries"], seed=seed + 31
    )
    results_total = 0
    for band in bands:
        pred = band["query"]
        expected = [_oracle(effective, pred, lo, up) for lo, up in windows]
        results_total += sum(len(ids) for ids in expected)
        for label, store in stores.items():
            answers = [
                sorted(store.query(lo, up, predicate=pred))
                for lo, up in windows
            ]
            if answers != expected:
                raise SystemExit(
                    f"temporal range-duration parity failure: {label} "
                    f"diverges on band {band['fractions']}"
                )
    return {
        "now_rows": len(now_rows),
        "infinite_rows": len(infinite_rows),
        "results_total": results_total,
    }


def _sql_leg(workload, bands, scale, seed):
    """One-statement sqlite evaluation per family query, EXPLAIN-verified."""
    sql_tree = SQLRITree()
    sql_tree.bulk_load(workload.records)
    windows = query_gen.range_queries(
        workload, 0.01, scale["range_duration_queries"], seed=seed + 7
    )
    one_statement = True
    plans_clean = True
    for band in bands:
        pred = band["query"]
        for lower, upper in windows:
            statements = []
            sql_tree.conn.set_trace_callback(statements.append)
            sql_tree.query(lower, upper, predicate=pred)
            sql_tree.conn.set_trace_callback(None)
            selects = [
                s for s in statements if s.lstrip().startswith("SELECT")
            ]
            if len(selects) != 1:
                one_statement = False
            plan = "\n".join(
                sql_tree.explain_query(lower, upper, predicate=pred)
            )
            if ("lowerIndex" not in plan or "upperIndex" not in plan
                    or "AUTOMATIC" in plan):
                plans_clean = False
    if not one_statement:
        raise SystemExit(
            "sqlite range-duration query issued more than ONE statement"
        )
    if not plans_clean:
        raise SystemExit(
            "sqlite range-duration plan skips a Figure 2 index or builds "
            "an automatic index"
        )
    return {"one_statement": one_statement, "plans_clean": plans_clean}


def _measure_sweep_io(outer, inner):
    """Cold-cache physical reads of the sweep's two input scans."""
    db = paper_database()
    outer_table = db.create_table("R", ["lower", "upper", "id"])
    inner_table = db.create_table("S", ["lower", "upper", "id"])
    outer_table.bulk_load(outer)
    inner_table.bulk_load(inner)
    db.flush()
    db.clear_cache()
    with db.measure() as delta:
        for _rowid, _row in outer_table.scan():
            pass
        for _rowid, _row in inner_table.scan():
            pass
    return delta.logical_reads, delta.physical_reads


def _grading_leg(scale, seed):
    """Measure both strategies per (probe count x duration band) point."""
    inner = genomic(scale["range_duration_grid_inner_n"], seed=seed + 41).records
    grid_bands = _band_predicates(inner, scale["range_duration_grid_bands"])
    rows = []
    for point, outer_n in enumerate(scale["range_duration_grid_outer_ns"]):
        outer = [
            (lower, upper, OUTER_ID_OFFSET + interval_id)
            for lower, upper, interval_id in genomic(
                outer_n, seed=seed * 10_000 + point + 43
            ).records
        ]
        tree = RITree(paper_database())
        tree.bulk_load(inner)
        tree.db.flush()
        sweep_logical, sweep_physical = _measure_sweep_io(outer, inner)
        for band in grid_bands:
            pred = band["query"]
            index_batch = run_join_batch(tree, outer, predicate=pred)
            expected = len(SweepJoin(predicate=pred).pairs(outer, inner))
            if index_batch.pairs != expected:
                raise SystemExit(
                    f"grid parity failure at outer={outer_n}, band "
                    f"{band['fractions']}: index {index_batch.pairs}, "
                    f"sweep {expected}"
                )
            decision = AutoJoin(predicate=pred).decide(outer, inner)
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
                    "inner_n": len(inner),
                    "band": band["fractions"],
                    "dmin": band["dmin"],
                    "dmax": band["dmax"],
                    "pairs": expected,
                    "predicted_pairs": round(decision.result_count, 1),
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
    workload = genomic(scale["range_duration_n"], seed=seed)
    bands = _band_predicates(workload.records, scale["range_duration_bands"])
    parity_rows, probe_n, pairs_total = _parity_leg(
        workload, bands, scale, seed
    )
    temporal_summary = _temporal_leg(workload, bands, scale, seed)
    sql_summary = _sql_leg(workload, bands, scale, seed)
    grid_rows = _grading_leg(scale, seed)
    correct = sum(1 for row in grid_rows if row["correct"])
    by_choice = {}
    for row in grid_rows:
        by_choice[row["choice"]] = by_choice.get(row["choice"], 0) + 1
    backends = sorted({row["backend"] for row in parity_rows})
    accuracy = correct / max(len(grid_rows), 1)
    temporal_rows = temporal_summary["now_rows"] + temporal_summary["infinite_rows"]
    metrics = {
        "bands": len(bands),
        "backends": len(backends),
        "parity_queries": sum(row["queries"] for row in parity_rows),
        "results_total": sum(
            row["results_total"]
            for row in parity_rows
            if row["backend"] == "ritree"
        ),
        "pairs_total": pairs_total,
        "temporal_rows": temporal_rows,
        "temporal_results": temporal_summary["results_total"],
        "grid_points": len(grid_rows),
        "correct_choices": correct,
        "auto_accuracy": round(accuracy, 3),
        "index_physical_reads": sum(
            r["measured"]["index-nested-loop"]["physical_reads"]
            for r in grid_rows
        ),
        "sweep_physical_reads": sum(
            r["measured"]["sweep"]["physical_reads"] for r in grid_rows
        ),
        "sql_one_statement": int(sql_summary["one_statement"]),
        "sql_plans_clean": int(sql_summary["plans_clean"]),
    }
    return {
        "workload": workload.name,
        "scale": scale["name"],
        "seed": seed,
        "parity_rows": parity_rows,
        "grid_rows": grid_rows,
        "summary": {
            "backends": backends,
            "join_probes": probe_n,
            "auto_accuracy": accuracy,
            "accuracy_floor": ACCURACY_FLOOR,
            "choices": by_choice,
        },
        "metrics": metrics,
        "gates": {
            "at_least_three_bands": len(bands) >= 3,
            "at_least_five_backends": len(backends) >= 5,
            "sql_one_statement": sql_summary["one_statement"] is True,
            "sql_plans_clean": sql_summary["plans_clean"] is True,
            "temporal_rows_loaded": temporal_rows > 0,
            "auto_accuracy_at_floor": accuracy >= ACCURACY_FLOOR,
        },
    }
