"""Shared measurement helpers for the benchmark modules.

Imported by sibling ``bench_*`` modules (``benchmarks/`` is on
``sys.path`` when ``python benchmarks/bench_trajectory.py`` runs them),
so the profile-hook operation counter, the repeat-and-keep-best
protocol, the router spawner and the crash-at-every-write-point sweep
stay identical across benchmarks instead of drifting as copies.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.engine import Database, FaultInjector, SimulatedCrash
from repro.methods.memory import BruteForceIntervals


def count_frame_activations(runner):
    """Run ``runner`` under a profile hook counting 'call' events.

    Every Python function call *and* every generator resume activates a
    frame, so this is a direct, deterministic proxy for the per-entry
    interpreter work the batched pipelines eliminate.  Returns
    ``(activation count, runner's result)``.
    """
    counter = 0

    def hook(frame, event, arg):
        nonlocal counter
        if event == "call":
            counter += 1

    sys.setprofile(hook)
    try:
        result = runner()
    finally:
        sys.setprofile(None)
    return counter, result


def best_of(repeat, runner, keys):
    """Repeat ``runner``, demand deterministic ``keys``, keep best time.

    ``runner`` returns a dict containing every key in ``keys`` plus
    ``"time_s"``.  Counter-valued keys (result sizes, logical/physical
    I/O) must reproduce exactly across repetitions -- they are
    deterministic, so any drift aborts the benchmark -- while the minimum
    wall time is kept, the standard defence against scheduler noise.
    """
    best = None
    for _ in range(repeat):
        row = runner()
        if best is None:
            best = row
        else:
            for key in keys:
                if best[key] != row[key]:
                    raise SystemExit(
                        f"non-deterministic measurement: {key} "
                        f"{best[key]} vs {row[key]}"
                    )
            best["time_s"] = min(best["time_s"], row["time_s"])
    return best


@contextlib.contextmanager
def router(records, now, shards):
    """Serve ``records`` through ``python -m repro.service --shards``.

    Writes the dataset to a temporary file, starts the router topology
    and yields its ``(host, port)``.  On exit the dataset file is
    removed and the router reaped; callers send ``shutdown`` themselves.
    """
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        json.dump({"records": records, "now": now}, handle)
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    extra = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(src_dir), *extra])
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--port",
            "0",
            "--shards",
            str(shards),
            "--dataset",
            handle.name,
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline().strip()
        if not line.startswith("LISTENING "):
            proc.kill()
            raise SystemExit(f"service failed to start: {line!r}")
        _, host, port = line.split()
        yield host, int(port)
    finally:
        Path(handle.name).unlink()
        proc.stdout.close()
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()


def crash_sweep(steps, store_cls, queries):
    """Crash a WAL workload at every write point and check each recovery.

    ``steps(db)`` is a generator that builds a store on ``db`` and
    yields it after every committed step.  A passive run counts the
    write points, records each committed state and the WAL traffic, and
    is recovered once without a crash.  Then the workload is re-run once
    per write point with a :class:`SimulatedCrash` injected there.
    Every recovery is checked by :func:`_recovery_fault`.

    Returns the counts of the sweep plus ``failures``, a list of
    ``(write point, reason)`` pairs where point 0 is the uncrashed run.
    """
    passive = FaultInjector()
    db = Database(wal=True, injector=passive)
    states = [sorted(store.stored_records()) for store in steps(db)]
    db.flush()
    wal_writes = db.stats.wal_writes
    clean = db.recover()
    sweep = {
        "crash_points": passive.write_points,
        "recovered_clean": 0,
        "replayed_ops": 0,
        "wal_writes": wal_writes,
        "wal_reads": clean.stats.wal_reads,
        "records": len(states[-1]),
        "failures": [],
    }
    fault = _recovery_fault(clean, False, store_cls, states, queries)
    if fault:
        sweep["failures"].append((0, fault))

    for point in range(1, passive.write_points + 1):
        db = Database(wal=True, injector=FaultInjector().crash_at_write_point(point))
        crashed = False
        try:
            for _store in steps(db):
                pass
            db.flush()
        except SimulatedCrash:
            crashed = True
        recovered = db.recover()
        sweep["replayed_ops"] += recovered.replayed_ops
        fault = _recovery_fault(recovered, crashed, store_cls, states, queries)
        if fault:
            sweep["failures"].append((point, fault))
        else:
            sweep["recovered_clean"] += 1
    return sweep


def _recovery_fault(db, crashed, store_cls, states, queries):
    """Why a recovered database is wrong, or None when it is clean.

    A clean recovery passes ``verify()``, holds one of the committed
    ``states`` (the last one when the run did not crash), and answers
    ``queries`` like a brute-force oracle over its own records.  A crash
    before the table was created leaves no table, which is clean.
    """
    if not db.has_table("Intervals"):
        return None if crashed else "lost the table silently"
    store = store_cls.attach(db)
    if not store.verify().ok:
        return "fails verify()"
    state = sorted(store.stored_records())
    if state not in states:
        return "is not a committed prefix"
    if not crashed and state != states[-1]:
        return "dropped a committed batch"
    oracle = BruteForceIntervals(state)
    for lower, upper in queries:
        if sorted(store.intersection(lower, upper)) != sorted(
            oracle.intersection(lower, upper)
        ):
            return "breaks query parity"
    return None
