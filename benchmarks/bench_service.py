"""Service benchmark: sharded-router parity and concurrency scaling.

Spawns the router topology of ``python -m repro.service`` (one router
process over ``service_shards`` shard-server subprocesses, cuts derived
from the seeded dataset's bound histogram) and replays the seeded mixed
workload of :mod:`repro.service.loadgen` against it at each configured
concurrency.  Two gates:

* **Parity** -- every load run's canonicalised results must be
  bit-identical to a local single-store oracle evaluating the same op
  list; any divergence (a replica reported twice, a dropped row, a
  predicate disagreement through the wire) fails the gate.
* **Scaling** -- throughput at the highest concurrency must exceed
  throughput at concurrency 1 by :func:`scaling_target`, which depends
  on the machine: with >= 4 cores the shard processes run in parallel
  and the target is 2x; on fewer cores only asyncio interleaving (and
  the router's single-shard byte relay) can hide latency, so the
  target drops to a documented floor.  The ratio compares
  mean-of-``service_repeats`` throughput at each concurrency (means,
  not best-of: a single lucky concurrency-1 run must not flip the
  gate) after one untimed warm-up pass, and the report records the
  core count and the target actually applied.

The report carries per-op-class client-side p50/p99 latency from the
highest-concurrency run plus the server's routing stats (per-shard
records, replicas, query/insert counters) -- the observability surface
the serving layer exposes through its ``stats`` op.

The ``service`` entry of ``benchmarks/bench_trajectory.py``, which runs
it and checks its gates.
"""

from __future__ import annotations

import os

from benchlib import router
from repro.bench.experiments import get_scale
from repro.core.stores import create_store
from repro.service.client import ServiceClient
from repro.service.loadgen import build_dataset, build_ops, evaluate_ops, run_load

#: Concurrency-scaling targets by *effective parallel units*: a shard
#: process can only run in parallel if it has both a core and a shard,
#: so the unit count is min(cores, shards).  With >= 4 units the shard
#: subprocesses genuinely parallelise and high concurrency must at
#: least double concurrency-1 throughput.  With 2-3 units the floors
#: are deliberately below the unit count (process contention with the
#: router and the client).  At a single unit every process shares one
#: core and concurrency cannot add throughput at all -- the measured
#: ratio hovers around 1.0 either side -- so the floor there is 0.9:
#: it catches only the pathological regression (a lock convoy or
#: serialisation bug collapsing concurrent throughput), and the actual
#: ratio rides in the trajectory row as an informational metric.
MULTI_CORE_TARGET = 2.0
FEW_UNIT_TARGETS = {1: 0.9, 2: 1.15, 3: 1.3}


def scaling_target(cores: int, shards: int) -> float:
    return FEW_UNIT_TARGETS.get(min(cores, shards), MULTI_CORE_TARGET)


def run(scale_name: str | None, seed: int) -> dict:
    scale = get_scale(scale_name)
    n = scale["service_n"]
    ops_count = scale["service_ops"]
    shards = scale["service_shards"]
    domain = scale["service_domain"]
    concurrencies = sorted(scale["service_concurrencies"])
    repeats = scale["service_repeats"]
    cores = os.cpu_count() or 1
    target = scaling_target(cores, shards)

    records, now = build_dataset(seed=seed, n=n, domain=domain)
    ops = build_ops(seed=seed + 1, count=ops_count, domain=domain, now=now)

    oracle = create_store("hint", now=now)
    oracle.bulk_load(records)
    expected = evaluate_ops(oracle, ops)

    report = {
        "workload": "service",
        "scale": scale["name"],
        "seed": seed,
        "records": n,
        "ops": ops_count,
        "shards": shards,
        "cpu_count": cores,
        "scaling_target": target,
        "rows": [],
    }

    parity_runs = 0
    parity_ok = True
    throughputs = {c: [] for c in concurrencies}
    latency = {}
    best_high = 0.0
    with router(records, now, shards) as (host, port):
        # One untimed warm-up pass: concurrency 1 always measures
        # first, and without this its first repeat runs against cold
        # server processes, biasing the scaling ratio upward.
        warmup = run_load(host, port, ops, concurrencies[-1])
        parity_runs += 1
        if warmup.results != expected:
            parity_ok = False
        for concurrency in concurrencies:
            for repeat in range(repeats):
                result = run_load(host, port, ops, concurrency)
                parity_runs += 1
                if result.results != expected:
                    parity_ok = False
                row = result.as_dict()
                row["repeat"] = repeat
                report["rows"].append(row)
                throughputs[concurrency].append(result.throughput)
                if concurrency == concurrencies[-1] and (
                    result.throughput > best_high
                ):
                    best_high = result.throughput
                    latency = {
                        cls: stats.as_dict()
                        for cls, stats in result.classes.items()
                    }
        with ServiceClient(host, port) as client:
            stats = client.call("stats")
            client.call("shutdown")

    routing = stats.get("routing") or {}
    low, high = concurrencies[0], concurrencies[-1]
    mean = {c: sum(runs) / len(runs) for c, runs in throughputs.items() if runs}
    ratio = mean[high] / mean[low] if mean.get(low) else 0.0
    report["latency"] = latency
    report["routing"] = routing
    report["server_ops"] = stats.get("ops")
    report["summary"] = {
        "concurrency_low": low,
        "concurrency_high": high,
        "throughput_low": mean.get(low, 0.0),
        "throughput_high": mean.get(high, 0.0),
        "scaling_ratio": ratio,
    }
    shard_count = routing.get("shard_count", shards)
    report["metrics"] = {
        # Deterministic routing facts: seeded dataset + derived cuts.
        "parity_ok": int(parity_ok),
        "parity_runs": parity_runs,
        "ops": ops_count,
        "records": n,
        "shards": shard_count,
        "replicas": routing.get("replicas", 0),
        "scaling_target_met": int(ratio >= target),
        # Wall-clock observations (INFO rule: recorded, never diffed).
        "throughput_c1_ops_s": round(mean.get(low, 0.0), 1),
        "throughput_cmax_ops_s": round(mean.get(high, 0.0), 1),
        "scaling_ratio": round(ratio, 3),
    }
    for cls, percentiles in sorted(latency.items()):
        report["metrics"][f"{cls}_p50_ms"] = percentiles["p50_ms"]
        report["metrics"][f"{cls}_p99_ms"] = percentiles["p99_ms"]
    report["gates"] = {
        "parity_ok": parity_ok,
        "parity_runs_made": parity_runs > 0,
        "scaling_target_met": ratio >= target,
        "routing_reports_shard_count": routing.get("shard_count") == shard_count,
        "shards_served_queries": (
            sum(s["queries"] for s in routing.get("shards", [])) > 0
        ),
        "latency_recorded": bool(latency),
    }
    return report
