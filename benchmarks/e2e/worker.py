"""One workload run in a fresh process; ``run.py`` spawns it.

Prints one JSON object as its last stdout line: ``correct``,
``attempted``, ``failed``, the run's ``metrics`` (end-to-end, or
per-layer with ``--trace 1``), the ``exact`` counters and the traced
run's span cross-checks.  Exit status 1 when a result differs from the
reference or a cross-check fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Workload name -> (module, class) in this directory.
WORKLOADS = {
    "engine-scan": ("engine_scan", "EngineScan"),
    "service-sharded": ("service_sharded", "ServiceSharded"),
    "ingest-temporal": ("ingest_temporal", "IngestTemporal"),
    "join-planner": ("join_planner", "JoinPlanner"),
}


def trace_metrics(window, tracer) -> dict:
    """Tracing overhead (traced against untraced blocks of the same run)
    and the share of op time no layer span covers."""
    from common import mean, ratio

    traced = mean(window.latencies(traced=True))
    untraced = mean(window.latencies())
    roots = [name for name in tracer.calls if name.startswith("op.")]
    uncovered = sum(tracer.self_ns[name] for name in roots)
    op_time = sum(tracer.total_ns[name] for name in roots)
    return {
        "trace.overhead_frac": ratio(traced, untraced) - 1.0,
        "trace.residual_frac": ratio(uncovered, op_time),
    }


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from common import (
        SETUP_REPEATS,
        check_results,
        class_metrics,
        end_to_end,
        run_window,
    )
    from tracing import Patches, Tracer

    module, cls = WORKLOADS[name]
    workload = getattr(importlib.import_module(module), cls)(seed, seconds, workdir)
    tracer = Tracer() if trace else None
    patches = Patches()
    try:
        if tracer is not None:
            patches.install(tracer, workload.trace_points(tracer))
        setup_times = []
        for repeat in range(1 if trace else SETUP_REPEATS):
            if repeat:
                workload.teardown()
                gc.collect()
            setup_times.append(workload.speed.timed(workload.setup))
        workload.warmup()
        workload.begin_window()
        window = run_window(workload, tracer)
        workload.end_window()
        rss_mb = workload.peak_rss_mb()
    finally:
        workload.teardown()
        patches.restore()
    gc.collect()
    error = check_results(workload, window)
    exact = workload.exact_metrics(window)
    checks = {}
    if tracer is None:
        metrics = end_to_end(window, setup_times, rss_mb)
    else:
        pairs = workload.trace_checks(tracer, window.traced_totals)
        checks = {
            label: {"spans": spans, "counter": counter}
            for label, (spans, counter) in pairs.items()
        }
        metrics = {
            **class_metrics(window),
            **exact,
            **workload.layer_metrics(window, tracer),
            **trace_metrics(window, tracer),
        }
        tracer.write_spans(workdir / "spans.jsonl")
    for label, check in checks.items():
        if check["spans"] != check["counter"]:
            error = error or f"{name}: trace cross-check failed: {label}: {check}"
    return {
        "correct": error is None,
        "attempted": len(window.ops),
        "failed": window.failed,
        "metrics": metrics,
        "exact": exact,
        "checks": checks,
        # The machine's mean speed factor over the window (1: nominal).
        "speed": window.scale,
        "error": error,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Processes a workload starts (the service topology) import it too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    )
    args.workdir.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    if result["error"]:
        print(result["error"], file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
