"""Crash-recovery benchmark: every write point, recover, verify, match.

Exercises the durability subsystem end to end on the simulated engine:
for two RI-tree workloads on WAL-enabled databases, one finite (bulk
load, an atomic insert batch, single inserts/deletes) and one with
Section 4.6 rows as well (temporal updates), each is swept by
:func:`benchlib.crash_sweep`: run passively to count its write points and record every committed state, then re-run
once per point with a :class:`~repro.engine.errors.SimulatedCrash`
injected exactly there.  After every crash the database is rebuilt with
:meth:`~repro.engine.database.Database.recover`, the store re-attached,
and the result must

* pass its own :meth:`~repro.core.access.IntervalStore.verify` report,
* hold exactly one of the committed-prefix states the passive run
  recorded (atomicity: no torn batches), and
* answer intersection queries identically to a brute-force oracle over
  its recovered records.

Any violation aborts the run.  The report carries only deterministic
metrics (crash points, clean recoveries, replayed operations, WAL block
traffic, record counts) -- never wall time -- so the bench-trajectory
pipeline can demand bit-identical reproduction.  The workload is a
fixed arithmetic sequence, so the seed is unused.

The ``recovery`` entry of ``benchmarks/bench_trajectory.py``, which
runs it and checks its gates.
"""

from __future__ import annotations

import time

from benchlib import crash_sweep
from repro.bench.experiments import get_scale
from repro.core import UPPER_INF, UPPER_NOW, RITree

#: Interval rows per workload, by scale preset.
ROWS_BY_SCALE = {"tiny": 30, "small": 120, "paper": 400}


def workload_rows(count):
    return [(i * 17 % 4000, i * 17 % 4000 + 25 + i % 50, i) for i in range(count)]


def insert_atomically(tree, rows):
    """Single inserts in one atomic WAL batch (one group commit)."""
    with tree.db.atomic():
        for row in rows:
            tree.insert(*row)


def ritree_steps(tree, rows):
    head, tail = rows[: len(rows) // 2], rows[len(rows) // 2 :]
    return [
        lambda: tree.bulk_load(head),
        lambda: insert_atomically(tree, tail),
        lambda: tree.insert(3, 9000, len(rows)),
        lambda: tree.delete(*rows[0]),
    ]


def temporal_steps(tree, rows):
    head, tail = rows[: len(rows) // 2], rows[len(rows) // 2 :]
    return [
        lambda: tree.bulk_load(head),
        lambda: insert_atomically(tree, tail),
        lambda: tree.insert(40, UPPER_INF, len(rows)),
        lambda: tree.insert(10, UPPER_NOW, len(rows) + 1),
        lambda: tree.advance_to(5000),
        lambda: tree.delete(*rows[1]),
        lambda: tree.append_batch([], closes=[(10, len(rows) + 1, 4500)]),
    ]


CASES = {
    "ritree": (lambda db: RITree(db), RITree, ritree_steps),
    "temporal": (lambda db: RITree(db, now=100), RITree, temporal_steps),
}


def probe_queries(rows):
    lowers = sorted(lower for lower, _upper, _i in rows)
    step = max(1, len(lowers) // 8)
    return [(lower, lower + 400) for lower in lowers[::step]] + [(0, 10_000)]


def run_case(kind, rows):
    factory, store_cls, steps_for = CASES[kind]

    def steps(db):
        tree = factory(db)
        yield tree
        for step in steps_for(tree, rows):
            step()
            yield tree

    sweep = crash_sweep(steps, store_cls, probe_queries(rows))
    if sweep["failures"]:
        point, reason = sweep["failures"][0]
        raise SystemExit(f"{kind}: point {point} {reason}")
    del sweep["failures"]
    return {"store": kind, **sweep}


def run(scale_name, seed):
    scale = get_scale(scale_name)
    count = ROWS_BY_SCALE.get(scale["name"], 120)
    rows = workload_rows(count)
    report = {"scale": scale["name"], "interval_count": count, "rows": []}
    started = time.perf_counter()
    for kind in sorted(CASES):
        report["rows"].append(run_case(kind, rows))
    elapsed = time.perf_counter() - started
    totals = {
        key: sum(row[key] for row in report["rows"])
        for key in (
            "crash_points",
            "recovered_clean",
            "replayed_ops",
            "wal_writes",
            "wal_reads",
            "records",
        )
    }
    totals["all_recovered"] = int(
        totals["recovered_clean"] == totals["crash_points"]
    )
    report["time_s"] = elapsed
    report["metrics"] = totals
    report["gates"] = {
        "all_recovered": totals["all_recovered"] == 1,
        "crash_points_found": totals["crash_points"] > 0,
    }
    return report
