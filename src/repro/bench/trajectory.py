"""The bench-trajectory pipeline: merge reports, diff committed baselines.

``benchmarks/bench_trajectory.py`` runs the benchmark registry at tiny
scale in one process and hands the reports to this module, which

* merges each benchmark's *deterministic* metrics (I/O counters, result
  sizes, decision accuracy -- never wall time, which CI runners cannot
  reproduce; each report carries its row as ``report["metrics"]``) into
  one ``BENCH_PR.json`` whose rows follow the schema
  ``{bench, scale, metrics, git_sha}`` -- the perf-trajectory record a
  PR leaves behind as an artifact, and
* diffs the rows against the committed baselines under
  ``benchmarks/baselines/`` so a regression fails the job with a
  readable delta table.

Three comparison rules cover every metric:

* ``exact`` -- deterministic counters (physical/logical reads, pair
  counts, grid sizes) must reproduce bit for bit; any drift means the
  change altered measured behaviour and the baseline must be updated
  *deliberately* (with the diff in the PR).
* ``at-least`` -- quality ratios (ops ratio, planner accuracy) may only
  improve; dropping below the recorded value is a regression.
* ``informational`` -- wall-clock-derived observations (the service
  bench's latency percentiles and throughput) that CI runners cannot
  reproduce bit for bit.  They ride in the trajectory rows for trend
  reading but never fail the diff; their *gates* live in each report's
  ``gates``, which the CLI checks before the diff.  Names ending in
  ``_ms`` or ``_ops_s`` (and ``scaling_ratio``) get this rule
  implicitly.
"""

from __future__ import annotations

from typing import Iterable, Optional

#: Comparison rules.
EXACT = "exact"
AT_LEAST = "at-least"
INFO = "informational"

#: Metric name -> comparison rule; anything unlisted defaults through
#: :func:`metric_rule` (wall-clock suffixes to INFO, the rest to EXACT).
METRIC_RULES: dict[str, str] = {
    "worst_ops_ratio": AT_LEAST,
    "count_worst_ops_ratio": AT_LEAST,
    "auto_accuracy": AT_LEAST,
    "correct_choices": AT_LEAST,
}


def metric_rule(name: str) -> str:
    """The comparison rule for one metric name."""
    rule = METRIC_RULES.get(name)
    if rule is not None:
        return rule
    if name.endswith(("_ms", "_ops_s")) or name == "scaling_ratio":
        return INFO
    return EXACT


#: Tolerance for AT_LEAST comparisons (floating-point guard only).
AT_LEAST_SLACK = 1e-9


def merge_reports(named_reports: dict[str, dict], git_sha: str = "unknown") -> dict:
    """Merge benchmark reports into the BENCH_PR row schema.

    Each report carries its own trajectory row as ``report["metrics"]``.
    """
    rows = [
        {
            "bench": bench,
            "scale": report.get("scale", "unknown"),
            "metrics": report["metrics"],
            "git_sha": git_sha,
        }
        for bench, report in sorted(named_reports.items())
    ]
    return {"schema": "bench-trajectory/v1", "git_sha": git_sha, "rows": rows}


def strip_baseline(merged: dict) -> dict:
    """The committable form of a merged report: rows minus the sha."""
    return {
        "schema": merged["schema"],
        "rows": [
            {"bench": r["bench"], "scale": r["scale"], "metrics": r["metrics"]}
            for r in merged["rows"]
        ],
    }


def compare_to_baseline(merged: dict, baseline: dict) -> list[dict]:
    """Per-metric deltas of a merged report against a committed baseline.

    Returns one dict per comparison: ``bench``, ``scale``, ``metric``,
    ``baseline``, ``current``, ``status`` (``ok`` / ``regression`` /
    ``new`` / ``missing``).  Baseline rows are matched on
    ``(bench, scale)``; benches without a baseline row pass with a
    ``new`` marker so freshly added benchmarks do not need a same-PR
    baseline to land.  The converse is a failure: a baseline row with no
    matching merged row means a benchmark vanished from the pipeline
    (dropped report, renamed bench), which must not pass silently.
    """
    base_rows = {
        (r["bench"], r["scale"]): r["metrics"] for r in baseline.get("rows", [])
    }
    merged_keys = {(r["bench"], r["scale"]) for r in merged["rows"]}
    deltas: list[dict] = []
    for (bench, scale), metrics in base_rows.items():
        if (bench, scale) not in merged_keys:
            deltas.append(
                {
                    "bench": bench,
                    "scale": scale,
                    "metric": "*",
                    "baseline": len(metrics),
                    "current": None,
                    "status": "missing",
                }
            )
    for row in merged["rows"]:
        key = (row["bench"], row["scale"])
        base_metrics = base_rows.get(key)
        if base_metrics is None:
            deltas.append(
                {
                    "bench": row["bench"],
                    "scale": row["scale"],
                    "metric": "*",
                    "baseline": None,
                    "current": None,
                    "status": "new",
                }
            )
            continue
        for metric, current in sorted(row["metrics"].items()):
            recorded = base_metrics.get(metric)
            entry = {
                "bench": row["bench"],
                "scale": row["scale"],
                "metric": metric,
                "baseline": recorded,
                "current": current,
            }
            rule = metric_rule(metric)
            if recorded is None:
                entry["status"] = "new"
            elif rule == INFO:
                entry["status"] = "ok"
            elif rule == AT_LEAST:
                entry["status"] = (
                    "ok" if current >= recorded - AT_LEAST_SLACK else "regression"
                )
            else:
                entry["status"] = "ok" if current == recorded else "regression"
            deltas.append(entry)
        for metric in sorted(set(base_metrics) - set(row["metrics"])):
            deltas.append(
                {
                    "bench": row["bench"],
                    "scale": row["scale"],
                    "metric": metric,
                    "baseline": base_metrics[metric],
                    "current": None,
                    "status": "missing",
                }
            )
    return deltas


def regressions(deltas: Iterable[dict]) -> list[dict]:
    """The failing subset: regressed or vanished metrics."""
    return [d for d in deltas if d["status"] in ("regression", "missing")]


def render_delta_table(deltas: list[dict]) -> str:
    """Markdown-style delta table, readable straight from the CI log."""
    headers = ["bench", "scale", "metric", "baseline", "current", "status"]
    body = [
        [
            str(d["bench"]),
            str(d["scale"]),
            str(d["metric"]),
            _fmt(d["baseline"]),
            _fmt(d["current"]),
            d["status"],
        ]
        for d in deltas
    ]
    widths = [
        max(len(h), *(len(r[i]) for r in body)) if body else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        " | ".join("-" * w for w in widths),
    ]
    lines.extend(" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in body)
    return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
