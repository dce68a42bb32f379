"""Seeded load driver for the interval query service.

Three pieces, all deterministic under a seed so runs are replayable and
comparable across topologies:

* :func:`build_dataset` -- a mixed interval database: finite rows plus
  a configurable fraction of temporal rows (``[l, oo)`` and ``[l, now]``
  sentinels), the population the service bulk-loads at startup;
* :func:`build_ops` -- a mixed read workload over that population:
  stabs, intersection windows (id and count paths), Allen-predicate
  queries, join batches, and temporal ``now``-queries (windows around
  the shared clock, the ones ``[l, now]`` rows answer);
* :func:`run_load` -- the async driver: ``concurrency`` connections
  replay the op list against a running service, each op's client-side
  latency recorded per op class, results canonicalised for parity
  checks against a local oracle (:func:`evaluate_ops`).

Latency methodology: per-request wall time is measured client-side from
frame write to response decode on an otherwise idle connection (each
worker runs one request at a time), so percentiles include protocol and
scheduling cost -- what a caller of the service actually observes.
Throughput is completed ops over the whole driver window.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.access import IntervalRecord
from ..core.predicates import PREDICATES
from ..core.temporal import UPPER_INF, UPPER_NOW
from .ops import apply
from .protocol import raise_for_response, read_frame_async, write_frame_async

#: Allen relations drawn by the ``query`` op class: the predicates that
#: refine their candidates (intersects/stab have dedicated classes
#: exercising the native paths).
RELATION_NAMES = tuple(
    name for name, pred in PREDICATES.items() if pred.family.residual)

#: Op-class weights of the default mixed workload.
DEFAULT_MIX: dict[str, float] = {
    "stab": 0.20,
    "intersection": 0.25,
    "count": 0.15,
    "query": 0.15,
    "join_count": 0.08,
    "join_pairs": 0.07,
    "now": 0.10,
}


def build_dataset(
    seed: int,
    n: int,
    domain: int = 100_000,
    max_len: int = 2_000,
    temporal_fraction: float = 0.1,
    now: Optional[int] = None,
) -> tuple[list[IntervalRecord], int]:
    """A seeded interval database with temporal rows mixed in.

    Returns ``(records, now)``: finite rows uniform over the domain,
    plus ``temporal_fraction`` of the population split between
    ``[l, oo)`` rows (sentinel :data:`UPPER_INF`) and ``[l, now]`` rows
    (sentinel :data:`UPPER_NOW`, lowers at or before the clock).
    """
    if now is None:
        now = domain // 2
    rng = random.Random(seed)
    temporal_n = int(n * temporal_fraction)
    records: list[IntervalRecord] = []
    for interval_id in range(1, n - temporal_n + 1):
        lower = rng.randint(0, domain)
        records.append((lower, lower + rng.randint(0, max_len), interval_id))
    for offset in range(temporal_n):
        interval_id = n - temporal_n + offset + 1
        if offset % 2:
            records.append((rng.randint(0, domain), UPPER_INF, interval_id))
        else:
            records.append((rng.randint(0, now), UPPER_NOW, interval_id))
    return records, now


def build_ops(
    seed: int,
    count: int,
    domain: int = 100_000,
    max_len: int = 2_000,
    now: Optional[int] = None,
    mix: Optional[dict[str, float]] = None,
) -> list[dict]:
    """A seeded mixed op list; each op carries its ``cls`` label."""
    if now is None:
        now = domain // 2
    mix = dict(DEFAULT_MIX if mix is None else mix)
    rng = random.Random(seed)
    classes = sorted(mix)
    weights = [mix[cls] for cls in classes]

    def window() -> tuple[int, int]:
        lower = rng.randint(0, domain)
        return lower, lower + rng.randint(0, 2 * max_len)

    ops: list[dict] = []
    for _ in range(count):
        cls = rng.choices(classes, weights)[0]
        if cls == "stab":
            op = {"op": "stab", "value": rng.randint(0, domain)}
        elif cls == "intersection":
            lower, upper = window()
            op = {"op": "intersection", "lower": lower, "upper": upper}
        elif cls == "count":
            lower, upper = window()
            op = {"op": "intersection_count", "lower": lower, "upper": upper}
        elif cls == "query":
            lower, upper = window()
            op = {"op": "query", "lower": lower, "upper": upper,
                  "predicate": rng.choice(RELATION_NAMES)}
        elif cls in ("join_count", "join_pairs"):
            probes = []
            for probe_id in range(1, rng.randint(3, 8) + 1):
                lower, upper = window()
                probes.append([lower, upper, probe_id])
            op = {"op": cls, "probes": probes}
        elif cls == "now":
            # A temporal now-query: a window straddling the clock, the
            # question the [l, now] rows exist to answer.
            delta = rng.randint(0, max_len)
            op = {"op": "intersection",
                  "lower": max(0, now - delta), "upper": now + delta}
        else:
            raise ValueError(f"unknown op class {cls!r}")
        op["cls"] = cls
        ops.append(op)
    return ops


def canonical(cls: str, result):
    """Order-free canonical form of one op result for parity checks."""
    if isinstance(result, int):
        return result
    if cls == "join_pairs":
        return sorted((probe_id, interval_id)
                      for probe_id, interval_id in result)
    return sorted(result)


def evaluate_ops(store, ops: Sequence[dict]) -> list:
    """Run the op list against a local store (the oracle), through the
    server's own :func:`~repro.service.ops.apply`."""
    return [canonical(op["cls"], apply(store, op)) for op in ops]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class ClassStats:
    """Latency aggregate of one op class in one load run."""

    count: int
    p50_ms: float
    p99_ms: float
    mean_ms: float

    def as_dict(self) -> dict:
        return {"count": self.count, "p50_ms": round(self.p50_ms, 3),
                "p99_ms": round(self.p99_ms, 3),
                "mean_ms": round(self.mean_ms, 3)}


@dataclass
class LoadResult:
    """One driver window: throughput plus per-class latency."""

    concurrency: int
    ops: int
    wall_s: float
    results: list = field(repr=False)
    classes: dict[str, ClassStats] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.ops / self.wall_s if self.wall_s else 0.0

    def as_dict(self) -> dict:
        return {
            "concurrency": self.concurrency,
            "ops": self.ops,
            "wall_s": round(self.wall_s, 4),
            "throughput_ops_s": round(self.throughput, 1),
            "classes": {cls: stats.as_dict()
                        for cls, stats in sorted(self.classes.items())},
        }


async def _worker(host: str, port: int, ops: Sequence[dict],
                  cursor, results: list, samples: list) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for index in cursor:
            if index >= len(ops):
                break
            op = ops[index]
            request = {key: value for key, value in op.items()
                       if key != "cls"}
            request["id"] = index
            started = time.perf_counter()
            await write_frame_async(writer, request)
            response = await read_frame_async(reader)
            elapsed = time.perf_counter() - started
            if response is None:
                raise ConnectionError("server closed during load run")
            # Raw result only -- canonicalisation happens after the
            # measured window, so parity bookkeeping is not billed to
            # the service's throughput.
            results[index] = raise_for_response(response)
            samples.append((op["cls"], elapsed))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def run_load_async(host: str, port: int, ops: Sequence[dict],
                         concurrency: int) -> LoadResult:
    """Replay ``ops`` over ``concurrency`` connections; see module doc."""
    import itertools

    cursor = itertools.count()
    results: list = [None] * len(ops)
    samples: list[tuple[str, float]] = []
    started = time.perf_counter()
    await asyncio.gather(*(
        _worker(host, port, ops, cursor, results, samples)
        for _ in range(concurrency)
    ))
    wall = time.perf_counter() - started
    results = [canonical(op["cls"], result)
               for op, result in zip(ops, results)]
    by_class: dict[str, list[float]] = {}
    for cls, elapsed in samples:
        by_class.setdefault(cls, []).append(elapsed * 1000)
    classes = {
        cls: ClassStats(
            count=len(lat),
            p50_ms=percentile(lat, 50),
            p99_ms=percentile(lat, 99),
            mean_ms=sum(lat) / len(lat),
        )
        for cls, lat in by_class.items()
    }
    return LoadResult(concurrency=concurrency, ops=len(ops), wall_s=wall,
                      results=results, classes=classes)


def run_load(host: str, port: int, ops: Sequence[dict],
             concurrency: int) -> LoadResult:
    """Synchronous wrapper around :func:`run_load_async`."""
    return asyncio.run(run_load_async(host, port, ops, concurrency))
