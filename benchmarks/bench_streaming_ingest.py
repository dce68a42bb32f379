"""Streaming-ingest benchmark: parity, group commit, crash, serving.

Exercises the ingest subsystem (:mod:`repro.ingest`) end to end through
four gates:

* **Checkpoint parity** -- a seeded stream (open now-relative rows and
  later closures included) is driven through a
  :class:`~repro.ingest.ingestor.StreamIngestor` into the temporal
  RI-tree and the HINT store, in both arrival disciplines.  At every
  checkpoint boundary the ingested store must answer intersection,
  count and join probes bit-identically to a brute-force oracle over
  the committed prefix (and to the searchsorted
  :class:`~repro.ingest.workload.IngestOracle`), and finish
  record-for-record equal to a bulk load of the stream's net image.

* **Group commit** -- ``append_batch`` on the WAL-backed trees must
  force the log exactly once per non-empty batch (and never for an
  empty one), asserted against the engine's ``wal.forces`` counter on
  a dedicated run with no clock advances or closures in the way.

* **Crash during ingest** -- :func:`benchlib.crash_sweep`, the
  recovery benchmark's crash-at-every-write-point protocol, replayed
  over a streaming run:
  whatever write point dies, :meth:`~repro.engine.database.Database.
  recover` must yield a verify()-clean store holding a committed batch
  prefix that answers queries like a brute-force oracle.

* **Ingest while serving** -- the sharded router topology of
  ``python -m repro.service`` takes a live append stream through the
  ``ingest_batch`` op while a concurrent reader replays the mixed
  Figure-13-style query workload; after the stream drains, a final
  read pass must match a local oracle loaded with initial + streamed
  records.  Sustained writer records/s and reader ops/s ride along as
  informational metrics.

The ``ingest`` entry of ``benchmarks/bench_trajectory.py``, which runs
it and checks its gates.
"""

from __future__ import annotations

import random
import threading
import time

from benchlib import crash_sweep, router
from repro.bench.experiments import get_scale
from repro.core import RITree, TemporalRITree
from repro.core.stores import create_store
from repro.core.temporal import UPPER_NOW
from repro.engine import Database
from repro.ingest import IngestOracle, StreamIngestor, StreamWorkload, replay_records
from repro.methods.memory import BruteForceIntervals
from repro.service.client import ServiceClient
from repro.service.loadgen import build_dataset, build_ops, evaluate_ops, run_load
from repro.workloads.joins import expected_pair_count

#: Parity legs: backend x arrival discipline.
PARITY_BACKENDS = ("temporal-ritree", "hint")


def materialise(records, clock):
    """Net stream records with effective uppers, the stores' convention:
    now-relative rows at the clock, infinite rows keep the sentinel."""
    return [
        (lower, clock if upper == UPPER_NOW else upper, interval_id)
        for lower, upper, interval_id in records
    ]


def probe_windows(rng, clock, mean_length, count=4):
    hi = max(clock, 4 * mean_length, 1)
    out = []
    for _ in range(count):
        lower = rng.randrange(0, hi)
        out.append((lower, lower + rng.randrange(1, 4 * mean_length + 1)))
    return out


def check_boundary(store, oracle, workload, upto, rng, mismatches):
    """One parity check: ingested store vs committed-prefix oracles."""
    prefix, clock = replay_records(workload, upto=upto)
    reference = materialise(prefix, clock)
    brute = BruteForceIntervals(reference)
    for ql, qu in probe_windows(rng, clock, workload.mean_length):
        expected_ids = sorted(brute.intersection(ql, qu))
        if sorted(store.intersection(ql, qu)) != expected_ids:
            mismatches.append(("intersection", upto, ql, qu))
        count = store.intersection_count(ql, qu)
        if count != len(expected_ids) or count != oracle.expected_count(ql, qu):
            mismatches.append(("count", upto, ql, qu))
    probes = [
        (ql, qu, probe_id)
        for probe_id, (ql, qu) in enumerate(
            probe_windows(rng, clock, workload.mean_length, count=3), start=1
        )
    ]
    if store.join_count(probes) != expected_pair_count(probes, reference):
        mismatches.append(("join_count", upto, len(probes), 0))


def run_parity(scale, seed):
    """Gate 1: checkpoint-boundary parity on every backend/mode leg."""
    rows = []
    mismatch_total = 0
    check_total = 0
    for backend in PARITY_BACKENDS:
        for mode in ("increasing-end", "general"):
            workload = StreamWorkload(
                seed=seed + 17,
                batches=scale["ingest_batches"],
                batch_size=scale["ingest_batch_size"],
                mode=mode,
                domain=scale["ingest_serve_domain"],
                mean_length=scale["ingest_mean_length"],
                open_fraction=scale["ingest_open_fraction"],
            )
            if backend == "temporal-ritree":
                store = TemporalRITree(Database(wal=True), now=0)
                checkpoint_batches = scale["ingest_checkpoint"]
            else:
                store = create_store("hint", now=0)
                checkpoint_batches = 0
            ingestor = StreamIngestor(
                store,
                flush_records=scale["ingest_flush"],
                checkpoint_batches=checkpoint_batches,
            )
            oracle = IngestOracle()
            rng = random.Random(seed + 23)
            mismatches = []
            checks = 0
            for batch in workload:
                ingestor.submit(batch)
                oracle.observe(batch)
                if (batch.seq + 1) % scale["ingest_check_every"] == 0:
                    ingestor.flush()
                    check_boundary(
                        store, oracle, workload, batch.seq + 1, rng, mismatches
                    )
                    checks += 1
            stats = ingestor.drain()
            check_boundary(store, oracle, workload, None, rng, mismatches)
            checks += 1
            final, clock = replay_records(workload)
            if sorted(store.stored_records()) != sorted(materialise(final, clock)):
                mismatches.append(("stored_records", None, 0, 0))
            if not store.verify().ok:
                mismatches.append(("verify", None, 0, 0))
            mismatch_total += len(mismatches)
            check_total += checks
            rows.append(
                {
                    "gate": "parity",
                    "backend": backend,
                    "mode": mode,
                    "parity_checks": checks,
                    "mismatches": len(mismatches),
                    "mismatch_detail": mismatches[:5],
                    "final_records": len(final),
                    **stats.as_dict(),
                }
            )
    return rows, check_total, mismatch_total


def run_trace(scale, seed):
    """Gate 2: one WAL force per non-empty append_batch, none when empty."""
    workload = StreamWorkload(
        seed=seed + 31,
        batches=scale["ingest_batches"],
        batch_size=scale["ingest_batch_size"],
        mode="increasing-end",
        mean_length=scale["ingest_mean_length"],
        open_fraction=0.0,
    )
    row = {"gate": "trace", "batches": 0, "extra_forces": 0, "empty_forces": 0}
    for store in (
        RITree(Database(wal=True)),
        TemporalRITree(Database(wal=True), now=0),
    ):
        for batch in workload:
            before = store.db.wal.forces
            store.append_batch(batch.records)
            row["batches"] += 1
            row["extra_forces"] += store.db.wal.forces - before - 1
        before = store.db.wal.forces
        store.append_batch([])
        row["empty_forces"] += store.db.wal.forces - before
    row["per_batch_ok"] = row["extra_forces"] == 0 and row["empty_forces"] == 0
    return row


def run_crash(scale, seed):
    """Gate 3: crash at every write point of a streaming ingest run."""
    workload = StreamWorkload(
        seed=seed + 43,
        batches=scale["ingest_crash_batches"],
        batch_size=scale["ingest_crash_batch_size"],
        mode="increasing-end",
        mean_length=scale["ingest_mean_length"],
        open_fraction=0.0,
    )

    def steps(db):
        tree = RITree(db)
        ingestor = StreamIngestor(
            tree,
            flush_records=scale["ingest_crash_flush"],
            checkpoint_batches=2,
        )
        yield tree
        for batch in workload:
            ingestor.submit(batch)
            yield tree
        ingestor.drain()
        yield tree

    queries = probe_windows(
        random.Random(seed + 47),
        scale["ingest_crash_batches"] * 100,
        workload.mean_length,
        count=6,
    )
    sweep = crash_sweep(steps, RITree, queries)
    return {
        "gate": "crash",
        "crash_points": sweep["crash_points"],
        "recovered_clean": sweep["recovered_clean"],
        "records": sweep["records"],
        "failures": sweep["failures"][:5],
    }


def run_serving(scale, seed):
    """Gate 4: sustained appends through the router under a live reader."""
    n = scale["ingest_serve_n"]
    domain = scale["ingest_serve_domain"]
    shards = scale["ingest_serve_shards"]
    records, now = build_dataset(seed=seed, n=n, domain=domain)
    ops = build_ops(
        seed=seed + 1, count=scale["ingest_serve_queries"], domain=domain, now=now
    )
    workload = StreamWorkload(
        seed=seed + 53,
        batches=scale["ingest_serve_batches"],
        batch_size=scale["ingest_serve_batch_size"],
        mode="general",
        domain=domain,
        mean_length=scale["ingest_mean_length"],
        open_fraction=0.0,
    )
    id_base = n + 1000  # streamed ids must not collide with the dataset's

    reader_result = []
    with router(records, now, shards) as (host, port):
        reader = threading.Thread(
            target=lambda: reader_result.append(
                run_load(host, port, ops, scale["ingest_serve_concurrency"])
            )
        )
        reader.start()
        streamed = []
        started = time.perf_counter()
        with ServiceClient(host, port) as writer:
            for batch in workload:
                shifted = [
                    (lower, upper, interval_id + id_base)
                    for lower, upper, interval_id in batch.records
                ]
                writer.call("ingest_batch", records=shifted)
                streamed.extend(shifted)
        write_elapsed = time.perf_counter() - started
        reader.join()

        oracle = create_store("hint", now=now)
        oracle.bulk_load(records)
        oracle.append_batch(streamed)
        expected = evaluate_ops(oracle, ops)
        final = run_load(host, port, ops, 1)
        with ServiceClient(host, port) as client:
            routing = client.call("stats").get("routing") or {}
            client.call("shutdown")

    concurrent = reader_result[0] if reader_result else None
    return {
        "gate": "serving",
        "initial_records": n,
        "streamed_records": len(streamed),
        "stream_batches": workload.batches,
        "shards": routing.get("shard_count", shards),
        "reader_ops": len(ops),
        "parity_ok": final.results == expected,
        "ingest_ops_s": len(streamed) / write_elapsed if write_elapsed else 0.0,
        "reader_ops_s": concurrent.throughput if concurrent else 0.0,
        "final_ops_s": final.throughput,
        "appends": sum(
            shard.get("appends", 0) for shard in routing.get("shards", [])
        ),
    }


def run(scale_name, seed):
    scale = get_scale(scale_name)
    report = {
        "workload": "ingest",
        "scale": scale["name"],
        "seed": seed,
        "rows": [],
    }
    started = time.perf_counter()
    parity_rows, checks, mismatches = run_parity(scale, seed)
    report["rows"].extend(parity_rows)
    trace = run_trace(scale, seed)
    report["rows"].append(trace)
    crash = run_crash(scale, seed)
    report["rows"].append(crash)
    serving = run_serving(scale, seed)
    report["rows"].append(serving)
    elapsed = time.perf_counter() - started
    report["time_s"] = elapsed
    report["metrics"] = {
        "parity_ok": int(mismatches == 0),
        "parity_checks": checks,
        "records": sum(r["records"] for r in parity_rows),
        "flushes": sum(r["flushes"] for r in parity_rows),
        "closes": sum(r["closes"] for r in parity_rows),
        "checkpoints": sum(r["checkpoints"] for r in parity_rows),
        "wal_force_batches": trace["batches"],
        "wal_force_per_batch_ok": int(trace["per_batch_ok"]),
        "crash_points": crash["crash_points"],
        "recovered_clean": crash["recovered_clean"],
        "all_recovered": int(crash["recovered_clean"] == crash["crash_points"]),
        "serving_parity_ok": int(serving["parity_ok"]),
        "ingest_ops_s": round(serving["ingest_ops_s"], 1),
        "reader_ops_s": round(serving["reader_ops_s"], 1),
    }
    report["gates"] = {
        "parity_ok": mismatches == 0,
        "parity_checks_made": checks > 0,
        "wal_force_per_batch_ok": trace["per_batch_ok"] is True,
        "all_recovered": crash["recovered_clean"] == crash["crash_points"],
        "crash_points_found": crash["crash_points"] > 0,
        "serving_parity_ok": serving["parity_ok"] is True,
    }
    return report
