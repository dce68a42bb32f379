"""Command-line runner regenerating the paper's tables and figures.

Usage::

    python -m repro.bench.run                  # every experiment, default scale
    python -m repro.bench.run fig13 fig14      # a subset
    python -m repro.bench.run --scale tiny     # CI-size quick pass
    python -m repro.bench.run --scale full     # paper-size runs
    python -m repro.bench.run --list           # available experiment ids

Each experiment prints a markdown table with the same rows/series the paper
reports, plus notes comparing the measured shape with the paper's claims.
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import ALL_EXPERIMENTS, SCALES


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.bench.run``."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation tables/figures."
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (default: all)")
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="size preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in ALL_EXPERIMENTS:
            print(experiment_id)
        return 0

    chosen = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [e for e in chosen if e not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        print(f"available: {list(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2

    for experiment_id in chosen:
        started = time.perf_counter()
        result = ALL_EXPERIMENTS[experiment_id](args.scale, seed=args.seed)
        elapsed = time.perf_counter() - started
        result.print()
        print(f"[{experiment_id} completed in {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
