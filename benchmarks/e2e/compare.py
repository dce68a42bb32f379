"""Compare a change against its parent commit on the end-to-end metrics.

Usage::

    python benchmarks/e2e/compare.py --parent p0.json ... p9.json \\
        --change c0.json ... c9.json

Each file is one ``run.py --output`` result.  The i-th parent file and
the i-th change file are a pair: the same seed, run back to back, with
the side that runs first alternating from pair to pair.  For each
workload and each end-to-end metric of ``BENCHMARK.json`` the verdict is

* ``better``: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the distance between
  the parent's quartiles; it takes at least 10 pairs;
* ``unresolved``: the parent's own spread (quartile distance over
  median) exceeds the metric's bound, and not every change run reads
  better than every parent run;
* ``WORSE``: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
* ``ok``: no worse than the bound.

It also checks that the share of failed ops did not rise.  It prints one
row per workload, then each side's median and quartiles, and exits 1 if
any metric is ``WORSE`` or failures rose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """``(verdict, wins, change of the median as a share of the parent's)``."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    shift = (c_med - p_med) / abs(p_med) if p_med else 0.0
    if sign > 0:
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    pairs = min(len(parent), len(change))
    if (
        pairs >= MIN_PAIRS
        and wins >= WIN_SHARE * pairs
        and sign * (c_med - p_med) > q3 - q1
    ):
        return "better", wins, shift
    if q3 - q1 > bound * abs(p_med) and not every_run_better:
        return "unresolved", wins, shift
    if -sign * shift > bound:
        return "WORSE", wins, shift
    return "ok", wins, shift


def order_notes(parents: list, changes: list) -> list:
    notes = []
    firsts = []
    for index, (p, c) in enumerate(zip(parents, changes)):
        if p["seed"] != c["seed"]:
            notes.append(f"pair {index}: seeds differ ({p['seed']} vs {c['seed']})")
        firsts.append(p["started"] < c["started"])
    if any(a == b for a, b in zip(firsts, firsts[1:])):
        notes.append("pairs do not alternate which side runs first")
    if len(firsts) < MIN_PAIRS:
        notes.append(f"{len(firsts)} pairs: a gain needs at least {MIN_PAIRS}")
    return notes


def metrics_of(run: dict, workload: str) -> dict:
    return run["workloads"][workload]["metrics"]


def failed_share(runs: list, workload: str) -> float:
    attempted = sum(run["workloads"][workload]["attempted"] for run in runs)
    failed = sum(run["workloads"][workload]["failed"] for run in runs)
    return failed / attempted if attempted else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change) or len(args.parent) < 2:
        parser.error("give the same number (at least 2) of parent and change files")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parents = [json.loads(path.read_text()) for path in args.parent]
    changes = [json.loads(path.read_text()) for path in args.change]
    for note in order_notes(parents, changes):
        print(f"note: {note}")
    workloads = [
        w["name"]
        for w in spec["workloads"]
        if all(w["name"] in run["workloads"] for run in parents + changes)
    ]
    bad = False
    details = []
    for workload in workloads:
        cells = []
        p_fail = failed_share(parents, workload)
        c_fail = failed_share(changes, workload)
        if c_fail > p_fail:
            bad = True
            cells.append(f"failed ROSE {p_fail:.2%}->{c_fail:.2%}")
        else:
            cells.append(f"failed ok {c_fail:.2%}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [metrics_of(run, workload)[name]["value"] for run in parents]
            c = [metrics_of(run, workload)[name]["value"] for run in changes]
            result, wins, shift = verdict(p, c, metric["better"], metric["bound"])
            bad = bad or result == "WORSE"
            cells.append(f"{name} {result} {shift:+.1%}")
            pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
            details.append(
                f"  {workload} {name}: parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
                f"  change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {metric['unit']}"
                f"  wins {wins}/{len(p)}  bound {metric['bound']:.0%}"
            )
        print(f"{workload}: " + " | ".join(cells))
    print("medians [quartiles]:")
    print("\n".join(details))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
