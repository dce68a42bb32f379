"""Run the JSON-report benchmarks, check their gates, diff the baseline.

The one CLI of the benchmark registry.  Every module in :data:`BENCHES`
exposes ``run(scale, seed) -> report``, where ``report["metrics"]`` is
its trajectory row and ``report["gates"]`` maps the name of each check
to whether it held.  This script runs the named benchmarks (default:
all) in one process, then

* prints every gate and fails if any is false,
* merges the rows into one ``BENCH_PR.json`` (rows of ``{bench, scale,
  metrics, git_sha}``, full reports under ``reports``), and
* diffs the rows against the committed baseline under
  ``benchmarks/baselines/`` via :mod:`repro.bench.trajectory`, failing
  with a readable delta table when a deterministic metric drifts or a
  quality ratio regresses.  A missing baseline file is a failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_trajectory.py
    PYTHONPATH=src python benchmarks/bench_trajectory.py recovery

    # refresh the committed baseline after a deliberate change
    # (every benchmark; a subset is refused):
    PYTHONPATH=src python benchmarks/bench_trajectory.py --scale tiny \\
        --write-baseline benchmarks/baselines/bench_trajectory_tiny.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import time
from pathlib import Path

import bench_hint
import bench_interval_join
import bench_join_crossover
import bench_predicate_join
import bench_range_duration
import bench_recovery
import bench_scan_throughput
import bench_section6
import bench_service
import bench_sql_join
import bench_streaming_ingest
from repro.bench import trajectory

#: Benchmark name -> module exposing ``run(scale, seed) -> report``.
BENCHES = {
    "scan-throughput": bench_scan_throughput,
    "interval-join": bench_interval_join,
    "join-crossover": bench_join_crossover,
    "sql-join": bench_sql_join,
    "predicate-join": bench_predicate_join,
    "range-duration": bench_range_duration,
    "recovery": bench_recovery,
    "hint": bench_hint,
    "service": bench_service,
    "ingest": bench_streaming_ingest,
    "section6": bench_section6,
}

DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "bench_trajectory_tiny.json"


def resolve_sha(explicit: str | None) -> str:
    """The commit the trajectory row is attributed to."""
    if explicit:
        return explicit
    env = os.environ.get("GITHUB_SHA")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_benches(names, scale, seed) -> dict:
    """Run each named benchmark in-process, printing its gates."""
    reports = {}
    for name in names:
        started = time.perf_counter()
        reports[name] = BENCHES[name].run(scale, seed)
        print(f"{name} ({time.perf_counter() - started:.1f}s)")
        for gate, held in reports[name]["gates"].items():
            print(f"  {'ok  ' if held else 'FAIL'} {gate}")
    return reports


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the benchmark registry, check gates, diff the baseline"
    )
    parser.add_argument(
        "benches",
        nargs="*",
        metavar="BENCH",
        help=f"benchmarks to run (default: all of {', '.join(BENCHES)})",
    )
    parser.add_argument(
        "--scale",
        default="tiny",
        help="scale preset (default: tiny, the scale of the committed baseline)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        default="BENCH_PR.json",
        help="merged report path (default: BENCH_PR.json)",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="committed baseline to diff against",
    )
    parser.add_argument(
        "--sha", default=None, help="commit sha (default: GITHUB_SHA or git HEAD)"
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write the merged rows of every benchmark as a new baseline "
        "instead of diffing",
    )
    args = parser.parse_args(argv)

    unknown = [name for name in args.benches if name not in BENCHES]
    if unknown:
        parser.error(f"unknown benchmark(s) {unknown}; expected {list(BENCHES)}")
    names = args.benches or list(BENCHES)
    if args.write_baseline and set(names) != set(BENCHES):
        parser.error("--write-baseline needs every benchmark; drop the BENCH names")

    reports = run_benches(names, args.scale, args.seed)
    merged = trajectory.merge_reports(reports, git_sha=resolve_sha(args.sha))
    Path(args.out).write_text(
        json.dumps({**merged, "reports": reports}, indent=1) + "\n"
    )
    print(
        f"merged trajectory written to {args.out} "
        f"({len(merged['rows'])} rows, sha {merged['git_sha'][:12]})"
    )

    failed = [
        f"{name}.{gate}"
        for name, report in reports.items()
        for gate, held in report["gates"].items()
        if not held
    ]
    if failed:
        print(f"\nFAIL: {len(failed)} gate(s) false: {', '.join(failed)}")
        return 1

    if args.write_baseline:
        baseline = trajectory.strip_baseline(merged)
        Path(args.write_baseline).write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"baseline written to {args.write_baseline}")
        return 0

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(
            f"\nFAIL: no baseline at {baseline_path} "
            "(commit one with --write-baseline)"
        )
        return 1
    baseline = json.loads(baseline_path.read_text())
    if args.benches:
        baseline["rows"] = [r for r in baseline["rows"] if r["bench"] in names]
    deltas = trajectory.compare_to_baseline(merged, baseline)
    print()
    print(trajectory.render_delta_table(deltas))
    regressed = trajectory.regressions(deltas)
    if regressed:
        print(f"\nFAIL: {len(regressed)} metric(s) regressed against {baseline_path}")
        print(
            "update the baseline deliberately with --write-baseline "
            "if the change is intended"
        )
        return 1
    print(f"\nbaseline check OK against {baseline_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
