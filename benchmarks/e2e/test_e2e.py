"""Self-test of the end-to-end benchmark; not part of the tier-1 suite.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Every
workload runs for one measured second (the exact prefix still runs in
full), untraced twice and traced once.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def units(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def bench(workload: str, trace: int, output: Path) -> tuple[dict, dict]:
    """One ``run.py`` run: its last stdout line and its ``--output`` record."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--output",
            str(output),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last, json.loads(output.read_text())["workloads"][workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(workload: str, tmp_path: Path) -> None:
    result, record = bench(workload, 0, tmp_path / "first.json")
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == units("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    _, again = bench(workload, 0, tmp_path / "again.json")
    assert again["exact"] == record["exact"]

    traced, traced_record = bench(workload, 1, tmp_path / "traced.json")
    assert traced["correct"]
    emitted = {name: entry["unit"] for name, entry in traced["metrics"].items()}
    assert emitted == units("per_layer")
    assert traced_record["exact"] == record["exact"]
    assert traced_record["checks"] or workload == "join-planner"
    for label, check in traced_record["checks"].items():
        assert check["spans"] == check["counter"], label


def test_cross_check_catches_a_missed_cached_reference(monkeypatch) -> None:
    """``BufferPool.make_reader`` keeps ``DiskManager.read`` when the engine
    is built; a wrapper installed after that misses every read through
    the cached reference, which is what the engine cross-check detects."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from engine_scan import engine_read_points
    from repro.bench.harness import paper_database
    from repro.core.ritree import RITree
    from tracing import Patches, Tracer

    def traced_reads(install_first: bool) -> tuple[int, int]:
        tracer, patches = Tracer(), Patches()
        try:
            if install_first:
                patches.install(tracer, engine_read_points(tracer))
            tree = RITree(paper_database())
            tree.bulk_load([(i * 7, i * 7 + 50, i) for i in range(20_000)])
            tree.db.clear_cache()
            if not install_first:
                patches.install(tracer, engine_read_points(tracer))
            stats = tree.db.stats
            before = stats.physical_reads
            root = tracer.begin_op(0, "op.read")
            # Refining "during" fetches heap pages, through the reader
            # the heap file built when the table was created.
            tree.query(1_000, 60_000, predicate="during")
            tracer.end_op(root)
            return tracer.calls["engine.disk_read"], stats.physical_reads - before
        finally:
            patches.restore()

    spans, reads = traced_reads(install_first=True)
    assert spans == reads > 0
    spans, reads = traced_reads(install_first=False)
    assert spans < reads


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    command = ["benchmarks/e2e/run.py", "--workload", WORKLOADS[0], "--seed", "0"]
    proc = subprocess.run(
        [sys.executable, *command],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
