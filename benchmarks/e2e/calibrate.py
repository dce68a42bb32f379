"""Derive the end-to-end bounds of ``BENCHMARK.json`` from calibration runs.

Usage::

    python benchmarks/e2e/calibrate.py --same-seed r0.json ... r4.json \\
        --seeds s1.json ... s10.json --other-seed o.json [--write]

``--same-seed`` takes untraced ``run.py --output`` results of one seed
(the run-to-run noise), ``--seeds`` results on distinct seeds (the
spread the benchmark's acceptance measures), ``--other-seed`` one result
on another seed.  A metric's bound is the largest, over workloads, of
5 %, twice the same-seed spread and three times the across-seed spread
(spread: quartile distance over median), rounded up to a whole percent
and capped at 25 %; ``setup_s`` takes 25 %, the largest bound.  The
report gives each metric's margin, its bound over its widest spread: a
margin below 3 means a workload should measure more work, below 1 that
the bound would be refused.  With ``--write`` the record goes to
``calibration.json`` beside this file; copy the bounds into
``BENCHMARK.json`` by hand.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
MAX_BOUND = 0.25
RULE = (
    "bound = max(5%, 2 x same-seed spread, 3 x across-seed spread) over "
    "workloads, rounded up to a whole percent, at most 25%; spread = quartile "
    "distance over median; setup_s takes 25%; margin = bound / widest spread"
)


def spread(values: list) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def summarize(runs: list, metrics: list) -> dict:
    table = {}
    for workload in runs[0]["workloads"]:
        table[workload] = {}
        for metric in metrics:
            values = [
                run["workloads"][workload]["metrics"][metric]["value"] for run in runs
            ]
            table[workload][metric] = {
                "values": values,
                "median": statistics.median(values),
                "spread": spread(values),
            }
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--same-seed", nargs="+", type=Path, required=True)
    parser.add_argument("--seeds", nargs="+", type=Path, required=True)
    parser.add_argument("--other-seed", type=Path, required=True)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    same = [json.loads(p.read_text()) for p in args.same_seed]
    seeds = [json.loads(p.read_text()) for p in args.seeds]
    other = json.loads(args.other_seed.read_text())
    same_table, seed_table = summarize(same, metrics), summarize(seeds, metrics)

    bounds, margins = {}, {}
    for metric in metrics:
        rows = [(w, same_table[w][metric], seed_table[w][metric]) for w in same_table]
        need = max(max(2 * one["spread"], 3 * many["spread"]) for _, one, many in rows)
        if metric == "setup_s":
            bound = MAX_BOUND
        else:
            bound = min(MAX_BOUND, max(0.05, math.ceil(need * 100) / 100))
        widest = max(max(one["spread"], many["spread"]) for _, one, many in rows)
        bounds[metric] = bound
        margins[metric] = bound / widest if widest else math.inf
        print(f"{metric}: bound {bound:.2f}, margin {margins[metric]:.1f}")
        for workload, one, many in rows:
            print(
                f"  {workload}: median {one['median']:.4g}, spread "
                f"same seed {one['spread']:.3f}, across seeds {many['spread']:.3f}"
            )
    exact = {w: same[0]["workloads"][w]["exact"] for w in same_table}
    repeats = all(
        run["workloads"][w]["exact"] == exact[w] for run in same for w in exact
    )
    print(f"exact counters identical across the same-seed runs: {repeats}")
    if args.write:
        record = {
            "rule": RULE,
            "run_seconds": same[0]["seconds"],
            "same_seed": {"seed": same[0]["seed"], "metrics": same_table},
            "across_seeds": {
                "seeds": [r["seed"] for r in seeds],
                "metrics": seed_table,
            },
            "bounds": bounds,
            "margins": margins,
            "exact": {
                "identical_across_same_seed_runs": repeats,
                f"seed_{same[0]['seed']}": exact,
                f"seed_{other['seed']}": {
                    w: other["workloads"][w]["exact"] for w in other["workloads"]
                },
            },
        }
        (HERE / "calibration.json").write_text(json.dumps(record, indent=1) + "\n")
    refused = [m for m, margin in margins.items() if margin < 1 and m != "setup_s"]
    return 1 if refused or not repeats else 0


if __name__ == "__main__":
    raise SystemExit(main())
