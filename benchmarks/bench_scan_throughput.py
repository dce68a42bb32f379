"""Scan-throughput benchmark for the batched query pipeline.

Runs the Figure 13 intersection workload (D1 distribution, the paper's
selectivity sweep) through three execution paths and emits a JSON report:

* ``per_entry`` -- the pre-batching reference execution (one generator
  hop and one comparison per returned entry), retained on the RI-tree as
  ``intersection_per_entry``.  This is what ``run_query_batch`` measured
  before the pipeline landed; its numbers are the committed baseline.
* ``materialise`` -- the batched ``intersection`` (id lists built from
  leaf slices).
* ``count`` -- the batched ``intersection_count`` (what the harness runs
  now: leaf-slice lengths summed, no id lists).

For every path the report records wall time plus *exact* logical and
physical I/O totals, and the benchmark fails loudly unless all paths --
and, at the scale and seed it was recorded at, the committed baseline in
``benchmarks/baselines/fig13_scan_throughput_seed.json`` -- agree
bit-for-bit on I/O.  Python-level work is measured with a profile hook
counting frame activations (function calls and generator resumes), the
operations the batching removes.

The ``scan-throughput`` entry of ``benchmarks/bench_trajectory.py``,
which runs it and checks its gates.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchlib import best_of, count_frame_activations
from repro.bench.experiments import (
    get_scale,
    ist_factory,
    ritree_factory,
    tindex_factory,
    tuned_level_for,
)
from repro.bench.harness import build_method
from repro.workloads import distributions
from repro.workloads import queries as query_gen

BASELINE_PATH = Path(__file__).parent / "baselines" \
    / "fig13_scan_throughput_seed.json"

#: Target from the tracking issue: >= 3x fewer Python-level operations
#: per returned id for the harness path vs the per-entry reference.
#: It holds at small/full scale; at tiny scale the handful of results per
#: query is dominated by fixed per-query work (plan build, two B+-tree
#: descents), so the tiny-scale gate only demands that batching never lose.
OPS_RATIO_TARGET = 3.0
OPS_RATIO_TARGETS_BY_SCALE = {"tiny": 1.0}


def _measure(method, queries, runner, repeat: int = 3) -> dict:
    """Cold-cache runs of ``runner`` over ``queries``; exact I/O totals.

    Each repetition starts from a cleared cache, must reproduce the same
    I/O totals (they are deterministic), and the best wall time is kept.
    """
    def run_once() -> dict:
        method.db.clear_cache()
        stats = method.db.stats
        before = stats.snapshot()
        started = time.perf_counter()
        total = 0
        for lower, upper in queries:
            total += runner(lower, upper)
        elapsed = time.perf_counter() - started
        delta = stats.snapshot() - before
        return {
            "results_total": total,
            "logical_reads": delta.logical_reads,
            "physical_reads": delta.physical_reads,
            "time_s": elapsed,
        }

    return best_of(repeat, run_once,
                   keys=("results_total", "logical_reads", "physical_reads"))


def _paths_for(method) -> dict:
    paths = {
        "materialise": lambda lo, up: len(method.intersection(lo, up)),
        "count": method.intersection_count,
    }
    if hasattr(method, "intersection_per_entry"):
        paths["per_entry"] = \
            lambda lo, up: len(method.intersection_per_entry(lo, up))
    return paths


def run(scale_name: str | None, seed: int) -> dict:
    scale = get_scale(scale_name)
    n = scale["fig13_n"]
    workload = distributions.d1(n, 2000, seed=seed)
    level = tuned_level_for(workload, scale, selectivity=0.01)
    ops_target = OPS_RATIO_TARGETS_BY_SCALE.get(scale["name"],
                                                OPS_RATIO_TARGET)
    methods = {
        "T-index": build_method(tindex_factory(level), workload.records),
        "IST": build_method(ist_factory, workload.records),
        "RI-tree": build_method(ritree_factory, workload.records),
    }
    report = {
        "workload": "fig13",
        "scale": scale["name"],
        "seed": seed,
        "n": n,
        "tindex_level": level,
        "ops_ratio_target": ops_target,
        "rows": [],
        "ops": [],
    }

    for selectivity in scale["fig13_selectivities"]:
        queries = query_gen.range_queries(
            workload, selectivity, scale["fig13_queries"], seed=seed + 7)
        for label, method in methods.items():
            measured = {name: _measure(method, queries, runner)
                        for name, runner in _paths_for(method).items()}
            reference = measured["count"]
            for name, row in measured.items():
                for key in ("results_total", "logical_reads",
                            "physical_reads"):
                    if row[key] != reference[key]:
                        raise SystemExit(
                            f"I/O divergence: {label} {name} {key} "
                            f"{row[key]} != {reference[key]} at "
                            f"selectivity {selectivity}")
                report["rows"].append({
                    "method": label, "path": name,
                    "selectivity": selectivity, "queries": len(queries),
                    **row,
                })

        # Python-level operations per id, profiled on the RI-tree (the
        # paper's protagonist and the harness's hot path).
        ritree = methods["RI-tree"]
        results = sum(ritree.intersection_count(lo, up)
                      for lo, up in queries)
        ops_legacy, _ = count_frame_activations(
            lambda: [ritree.intersection_per_entry(lo, up)
                     for lo, up in queries])
        ops_batched, _ = count_frame_activations(
            lambda: [ritree.intersection_count(lo, up)
                     for lo, up in queries])
        report["ops"].append({
            "selectivity": selectivity,
            "results_total": results,
            "frame_activations_per_entry_path": ops_legacy,
            "frame_activations_count_path": ops_batched,
            "per_id_legacy": ops_legacy / max(results, 1),
            "per_id_batched": ops_batched / max(results, 1),
            "ops_ratio": ops_legacy / max(ops_batched, 1),
        })

    # Aggregate speedups (per-entry reference vs the harness count path).
    legacy_time = sum(r["time_s"] for r in report["rows"]
                      if r["method"] == "RI-tree" and r["path"] == "per_entry")
    count_time = sum(r["time_s"] for r in report["rows"]
                     if r["method"] == "RI-tree" and r["path"] == "count")
    worst_ops_ratio = min(o["ops_ratio"] for o in report["ops"])
    report["summary"] = {
        "ritree_time_speedup": legacy_time / max(count_time, 1e-12),
        "ritree_worst_ops_ratio": worst_ops_ratio,
    }
    report["baseline_check"] = _check_baseline(report)

    count_rows = [r for r in report["rows"] if r["path"] == "count"]
    report["metrics"] = {
        key: sum(r[key] for r in count_rows)
        for key in ("results_total", "logical_reads", "physical_reads")
    }
    report["metrics"]["worst_ops_ratio"] = round(worst_ops_ratio, 3)
    report["gates"] = {"ops_ratio_target_met": worst_ops_ratio >= ops_target}
    return report


def _check_baseline(report: dict) -> dict:
    """Compare I/O totals against the committed pre-change baseline."""
    if not BASELINE_PATH.exists():
        return {"status": "missing", "path": str(BASELINE_PATH)}
    baseline = json.loads(BASELINE_PATH.read_text())
    if (baseline["scale"] != report["scale"]
            or baseline["seed"] != report["seed"]):
        return {"status": "skipped (scale/seed mismatch)",
                "baseline_scale": baseline["scale"]}
    if baseline["tindex_level"] != report["tindex_level"]:
        raise SystemExit(
            f"T-index tuning drifted: baseline level "
            f"{baseline['tindex_level']} vs {report['tindex_level']}")
    current = {(r["method"], r["selectivity"]): r
               for r in report["rows"] if r["path"] == "count"}
    compared = 0
    for row in baseline["rows"]:
        now = current[(row["method"], row["selectivity"])]
        for key in ("results_total", "logical_reads", "physical_reads"):
            if now[key] != row[key]:
                raise SystemExit(
                    f"baseline divergence: {row['method']} at selectivity "
                    f"{row['selectivity']}: {key} {now[key]} != {row[key]}")
        compared += 1
    return {"status": "bit-identical", "rows_compared": compared,
            "baseline": "benchmarks/baselines/" + BASELINE_PATH.name}
