"""End-to-end benchmark: four workloads, metrics checked against a reference.

Usage::

    python benchmarks/e2e/run.py --seed 0                       # every workload
    python benchmarks/e2e/run.py --workload engine-scan --seed 3 --seconds 12
    python benchmarks/e2e/run.py --seed 0 --trace 1             # per-layer run
    python benchmarks/e2e/run.py --seed 0 --output result.json  # for compare.py

Each workload runs in a fresh process (``worker.py``) that generates its
inputs from the seed, builds the system, measures a closed loop with one
caller over about ``--seconds`` of work at nominal machine speed, and
checks every result against a reference store.  Untraced runs report
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs report
its per-layer metrics (a layer a workload does not use reads 0).  Every
metric is printed as ``workload metric value
unit``; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (metric names are prefixed with
``workload/`` when more than one workload ran).  Exit status: 0 when
every result matched, 1 on a mismatch or a failed run, 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: A run must end within 180 s; a worker gets the rest after start-up.
WORKER_TIMEOUT_S = 170


def run_worker(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh process group; killed whole on timeout."""
    workdir = ROOT / ".bench_build" / "e2e" / f"{name}-seed{seed}-trace{trace}"
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        "--workdir",
        str(workdir),
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return {"correct": False, "error": f"{name}: worker exited {proc.returncode}"}
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="seconds of work per run")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument("--output", type=Path, help="write the results as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    selected = [args.workload] if args.workload else names
    seconds = args.seconds or spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in spec[kind]}

    started = time.time()
    results = {}
    for name in selected:
        result = run_worker(name, args.seed, seconds, args.trace)
        if result.get("error"):
            print(result["error"], file=sys.stderr)
        metrics = result.get("metrics", {})
        unknown = sorted(set(metrics) - set(declared))
        if args.trace:
            # A layer the workload does not exercise did no work.
            metrics = {metric: metrics.get(metric, 0.0) for metric in declared}
        missing = sorted(set(declared) - set(metrics))
        if result.get("correct") and (unknown or missing):
            result["correct"] = False
            print(
                f"{name}: metrics differ from BENCHMARK.json: "
                f"missing {missing}, undeclared {unknown}",
                file=sys.stderr,
            )
        result["metrics"] = {
            metric: {"value": value, "unit": declared[metric]}
            for metric, value in metrics.items()
            if metric in declared
        }
        results[name] = result
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")

    if args.output is not None:
        report = {
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "started": started,
            "workloads": results,
        }
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    correct = all(result.get("correct") for result in results.values())
    single = len(results) == 1
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r.get("attempted", 0) for r in results.values()),
                "failed": sum(r.get("failed", 0) for r in results.values()),
                "metrics": {
                    (metric if single else f"{name}/{metric}"): entry
                    for name, result in results.items()
                    for metric, entry in result["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
