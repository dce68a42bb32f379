"""The bench-trajectory pipeline: registry CLI, merge, baseline diff."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench import trajectory

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench_trajectory  # noqa: E402

BASELINE = json.loads(bench_trajectory.DEFAULT_BASELINE.read_text())
BASELINE_ROWS = {row["bench"]: row for row in BASELINE["rows"]}

SCAN_REPORT = {
    "scale": "tiny",
    "metrics": {
        "results_total": 15,
        "logical_reads": 150,
        "physical_reads": 60,
        "worst_ops_ratio": 2.5,
    },
}

JOIN_REPORT = {
    "scale": "tiny",
    "metrics": {
        "pairs": 7,
        "index_physical_reads": 12,
        "index_logical_reads": 30,
        "sweep_physical_reads": 8,
        "sweep_logical_reads": 8,
        "auto_physical_reads": 8,
    },
}

CROSSOVER_REPORT = {
    "scale": "tiny",
    "metrics": {
        "grid_points": 2,
        "correct_choices": 2,
        "auto_accuracy": 1.0,
        "index_physical_reads": 55,
        "sweep_physical_reads": 18,
    },
}

ALL_REPORTS = {
    "scan-throughput": SCAN_REPORT,
    "interval-join": JOIN_REPORT,
    "join-crossover": CROSSOVER_REPORT,
}

SERVICE_REPORT = {
    "scale": "tiny",
    "metrics": {
        "parity_ok": 1,
        "parity_runs": 4,
        "ops": 500,
        "records": 1500,
        "shards": 2,
        "replicas": 162,
        "scaling_target_met": 1,
        "throughput_c1_ops_s": 777.5,
        "throughput_cmax_ops_s": 930.0,
        "scaling_ratio": 1.196,
        "stab_p50_ms": 8.7,
        "stab_p99_ms": 22.2,
        "intersection_p50_ms": 8.8,
        "intersection_p99_ms": 38.9,
    },
}


def test_info_rule_covers_wall_clock_names():
    assert trajectory.metric_rule("stab_p50_ms") == trajectory.INFO
    assert trajectory.metric_rule("throughput_c1_ops_s") == trajectory.INFO
    assert trajectory.metric_rule("scaling_ratio") == trajectory.INFO
    assert trajectory.metric_rule("parity_runs") == trajectory.EXACT
    assert trajectory.metric_rule("replicas") == trajectory.EXACT
    assert trajectory.metric_rule("auto_accuracy") == trajectory.AT_LEAST
    assert trajectory.metric_rule("worst_ops_ratio") == trajectory.AT_LEAST
    assert trajectory.metric_rule("count_worst_ops_ratio") == trajectory.AT_LEAST


def test_info_metrics_never_fail_the_diff():
    merged = trajectory.merge_reports(
        {"service": SERVICE_REPORT}, git_sha="abc")
    baseline = trajectory.strip_baseline(merged)
    current = trajectory.merge_reports(
        {"service": SERVICE_REPORT}, git_sha="def")
    row = current["rows"][0]
    row["metrics"] = dict(row["metrics"])
    # Wall-clock drift (either direction) rides along without failing...
    row["metrics"]["stab_p50_ms"] = 99.9
    row["metrics"]["throughput_cmax_ops_s"] = 1.0
    row["metrics"]["scaling_ratio"] = 0.01
    deltas = trajectory.compare_to_baseline(current, baseline)
    assert trajectory.regressions(deltas) == []
    drifted = next(d for d in deltas if d["metric"] == "stab_p50_ms")
    assert drifted["status"] == "ok" and drifted["current"] == 99.9
    # ...while the deterministic routing facts stay EXACT-gated.
    row["metrics"]["replicas"] = 163
    failures = trajectory.regressions(
        trajectory.compare_to_baseline(current, baseline))
    assert [f["metric"] for f in failures] == ["replicas"]


def test_merge_reports_schema():
    merged = trajectory.merge_reports(ALL_REPORTS, git_sha="abc123")
    assert merged["schema"] == "bench-trajectory/v1"
    assert [r["bench"] for r in merged["rows"]] == sorted(ALL_REPORTS)
    for row in merged["rows"]:
        assert set(row) == {"bench", "scale", "metrics", "git_sha"}
        assert row["git_sha"] == "abc123"
        assert row["scale"] == "tiny"


def test_baseline_roundtrip_is_clean():
    merged = trajectory.merge_reports(ALL_REPORTS, git_sha="abc123")
    baseline = trajectory.strip_baseline(merged)
    assert all("git_sha" not in row for row in baseline["rows"])
    deltas = trajectory.compare_to_baseline(merged, baseline)
    assert deltas
    assert trajectory.regressions(deltas) == []
    assert all(d["status"] == "ok" for d in deltas)


def test_exact_metric_drift_is_a_regression_in_both_directions():
    merged = trajectory.merge_reports(ALL_REPORTS, git_sha="abc")
    baseline = trajectory.strip_baseline(merged)
    for drift in (+1, -1):
        current = trajectory.merge_reports(ALL_REPORTS, git_sha="def")
        row = next(r for r in current["rows"]
                   if r["bench"] == "interval-join")
        row["metrics"] = dict(row["metrics"])
        row["metrics"]["pairs"] += drift
        failures = trajectory.regressions(
            trajectory.compare_to_baseline(current, baseline))
        assert [f["metric"] for f in failures] == ["pairs"]


def test_at_least_metric_may_only_improve():
    merged = trajectory.merge_reports(ALL_REPORTS, git_sha="abc")
    baseline = trajectory.strip_baseline(merged)
    current = trajectory.merge_reports(ALL_REPORTS, git_sha="def")
    row = next(r for r in current["rows"] if r["bench"] == "join-crossover")
    row["metrics"] = dict(row["metrics"], auto_accuracy=0.5)
    failures = trajectory.regressions(
        trajectory.compare_to_baseline(current, baseline))
    assert [f["metric"] for f in failures] == ["auto_accuracy"]
    # Improvement passes.
    row["metrics"]["auto_accuracy"] = 1.0
    row["metrics"]["correct_choices"] = 3
    assert trajectory.regressions(
        trajectory.compare_to_baseline(current, baseline)) == []


def test_missing_baseline_row_is_not_a_failure():
    merged = trajectory.merge_reports(ALL_REPORTS, git_sha="abc")
    baseline = {"rows": []}
    deltas = trajectory.compare_to_baseline(merged, baseline)
    assert all(d["status"] == "new" for d in deltas)
    assert trajectory.regressions(deltas) == []


def test_vanished_benchmark_is_a_failure():
    """Dropping a whole bench from the pipeline must not pass the gate."""
    merged = trajectory.merge_reports(ALL_REPORTS, git_sha="abc")
    baseline = trajectory.strip_baseline(merged)
    partial = trajectory.merge_reports(
        {"scan-throughput": SCAN_REPORT}, git_sha="def")
    failures = trajectory.regressions(
        trajectory.compare_to_baseline(partial, baseline))
    assert sorted(f["bench"] for f in failures) == \
        ["interval-join", "join-crossover"]
    assert all(f["metric"] == "*" and f["status"] == "missing"
               for f in failures)


def test_vanished_metric_is_a_failure():
    merged = trajectory.merge_reports(ALL_REPORTS, git_sha="abc")
    baseline = trajectory.strip_baseline(merged)
    current = trajectory.merge_reports(ALL_REPORTS, git_sha="def")
    row = next(r for r in current["rows"] if r["bench"] == "scan-throughput")
    row["metrics"] = {k: v for k, v in row["metrics"].items()
                      if k != "physical_reads"}
    failures = trajectory.regressions(
        trajectory.compare_to_baseline(current, baseline))
    assert [(f["metric"], f["status"]) for f in failures] == \
        [("physical_reads", "missing")]


def test_render_delta_table_is_readable():
    merged = trajectory.merge_reports(ALL_REPORTS, git_sha="abc")
    baseline = trajectory.strip_baseline(merged)
    table = trajectory.render_delta_table(
        trajectory.compare_to_baseline(merged, baseline))
    lines = table.splitlines()
    assert lines[0].split("|")[0].strip() == "bench"
    assert set(lines[1]) <= {"-", " ", "|"}
    assert any("auto_accuracy" in line for line in lines)
    assert all(len(line) == len(lines[0]) for line in lines[1:])

def test_registry_rows_match_baseline():
    """Two cheap benches run through the registry reproduce their rows."""
    names = ["recovery", "sql-join"]
    reports = bench_trajectory.run_benches(names, "tiny", 0)
    merged = trajectory.merge_reports(reports)
    assert trajectory.strip_baseline(merged)["rows"] == [
        BASELINE_ROWS[name] for name in sorted(names)
    ]
    assert all(all(report["gates"].values()) for report in reports.values())


def test_registry_names_exactly_the_baseline_benches():
    assert sorted(bench_trajectory.BENCHES) == sorted(BASELINE_ROWS)
    for module in bench_trajectory.BENCHES.values():
        assert callable(module.run)


def fake_bench(name, **gates):
    """A registry entry replaying ``name``'s baseline row with ``gates``."""
    row = BASELINE_ROWS[name]
    report = {"scale": row["scale"], "metrics": row["metrics"], "gates": gates}
    return SimpleNamespace(run=lambda scale, seed: report)


def run_cli(tmp_path, *args):
    return bench_trajectory.main(
        [*args, "--out", str(tmp_path / "BENCH_PR.json"), "--sha", "abc"]
    )


def test_false_gate_fails_the_cli_and_names_the_gate(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        bench_trajectory.BENCHES,
        "recovery",
        fake_bench("recovery", all_recovered=False, crash_points_found=True),
    )
    assert run_cli(tmp_path, "recovery") == 1
    out = capsys.readouterr().out
    assert "FAIL all_recovered" in out
    assert "ok   crash_points_found" in out
    assert "gate(s) false: recovery.all_recovered" in out
    written = json.loads((tmp_path / "BENCH_PR.json").read_text())
    assert written["reports"]["recovery"]["gates"]["all_recovered"] is False


def test_missing_baseline_file_is_a_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        bench_trajectory.BENCHES, "recovery", fake_bench("recovery", ok=True)
    )
    assert run_cli(tmp_path, "recovery") == 0
    missing = str(tmp_path / "no_such_baseline.json")
    assert run_cli(tmp_path, "recovery", "--baseline", missing) == 1
    assert f"no baseline at {missing}" in capsys.readouterr().out


def test_write_baseline_refuses_a_subset(tmp_path, monkeypatch):
    for name in bench_trajectory.BENCHES:
        monkeypatch.setitem(bench_trajectory.BENCHES, name, fake_bench(name, ok=True))
    target = tmp_path / "baseline.json"
    with pytest.raises(SystemExit) as refused:
        run_cli(tmp_path, "recovery", "--write-baseline", str(target))
    assert refused.value.code == 2
    assert not target.exists()
    assert run_cli(tmp_path, "--write-baseline", str(target)) == 0
    assert json.loads(target.read_text()) == BASELINE


def test_unknown_bench_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as rejected:
        run_cli(tmp_path, "frisbee")
    assert rejected.value.code == 2
    assert "unknown benchmark(s) ['frisbee']" in capsys.readouterr().err
