"""``engine-scan``: reads on the disk RI-tree, the paper's Section 6 setting.

D4(200k, 2k) on the paper's geometry (2 KB blocks, 200-block cache) is
about 11.3k blocks, 56 times the cache, so nearly every read pays for
buffer misses in the B+-trees and the heap.  There is no wire, router or
planner on this path: the ``engine`` and ``ritree`` layers do the work.
``before``/``after`` are left out of the Allen mix because each returns
about half the table and would dominate the window.
"""

from __future__ import annotations

import random
from typing import Iterator

from common import Op, Workload, mean, ms, ratio
from repro.bench.harness import paper_database
from repro.core import ritree
from repro.core.hint import HintStore
from repro.core.predicates import PREDICATES, range_duration
from repro.core.ritree import RITree
from repro.engine.bptree import BPlusTree
from repro.engine.storage import DiskManager
from repro.engine.table import Table
from repro.workloads.distributions import DOMAIN_MAX, d4
from repro.workloads.genomic import duration_band
from repro.workloads.queries import window_length_for_selectivity

RECORDS = 200_000
MEAN_DURATION = 2_000
WARMUP_OPS = 1_000
SELECTIVITY = (0.001, 0.01)
#: Duration band of the ``range_duration`` reads, as CDF positions.
BAND = (0.5, 0.9)
MIX = (
    ("stab", 0.30),
    ("intersection", 0.30),
    ("intersection_count", 0.20),
    ("query", 0.15),
    ("range_duration", 0.05),
)
BOUNDED_RELATIONS = tuple(
    name for name in PREDICATES if name not in ("intersects", "stab", "before", "after")
)


def engine_read_points(tracer) -> list:
    """Trace points of the read path through ``ritree`` and ``engine``."""

    def ranges(nodes, _args):
        tracer.count("ritree.scan_ranges", nodes.total_entries)

    return [
        (DiskManager, "read", "engine.disk_read"),
        (BPlusTree, "scan_batches_padded", "engine.btree_scan"),
        (BPlusTree, "count_range_padded", "engine.btree_scan"),
        (Table, "fetch_many", "engine.heap_fetch"),
        (ritree, "collect_query_nodes", "ritree.plan", ranges),
    ]


def engine_read_layers(tracer, ops: int) -> dict:
    return {
        "engine.disk_read_ms_per_op": ratio(tracer.self_ms("engine.disk_read"), ops),
        "engine.btree_scan_ms_per_op": ratio(tracer.self_ms("engine.btree_scan"), ops),
        "engine.heap_fetch_ms_per_op": ratio(tracer.self_ms("engine.heap_fetch"), ops),
        "ritree.plan_ms_per_op": ratio(tracer.self_ms("ritree.plan"), ops),
        "ritree.scan_ranges_per_op": ratio(tracer.counts["ritree.scan_ranges"], ops),
    }


def read_counters(reads) -> dict:
    """Exact read-side engine metrics from totals whose counters
    start with ``(physical_reads, logical_reads)``."""
    physical, logical = reads.counters[:2]
    return {
        "engine.phys_reads_per_op": ratio(physical, reads.ops),
        "engine.logical_reads_per_op": ratio(logical, reads.ops),
        "engine.buffer_hit_ratio": 1.0 - ratio(physical, logical),
        "engine.results_per_logical_read": ratio(reads.rows, logical),
    }


class EngineScan(Workload):
    name = "engine-scan"
    rate = 1_700

    def __init__(self, seed: int, seconds: float, workdir) -> None:
        super().__init__(seed, seconds, workdir)
        self.records = d4(RECORDS, MEAN_DURATION, seed=seed).records
        self.mean_length = mean(upper - lower for lower, upper, _ in self.records)
        self.family = range_duration(*duration_band(self.records, *BAND))
        self.tree = None

    def setup(self) -> None:
        tree = RITree(paper_database())
        tree.bulk_load(self.records)
        tree.db.flush()
        self.tree = tree
        self.storage = tree.db.blocks_in_use * tree.db.disk.block_size / RECORDS

    def teardown(self) -> None:
        self.tree = None

    def warmup(self) -> None:
        self.tree.db.clear_cache()
        stream = self._stream(self.seed + 2)
        for _ in range(WARMUP_OPS):
            self._call(self.tree, next(stream))

    def ops(self) -> Iterator[Op]:
        return self._stream(self.seed + 1)

    def _stream(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        kinds, weights = zip(*MIX)
        while True:
            kind = rng.choices(kinds, weights)[0]
            if kind == "stab":
                yield Op("read", "stab", (rng.randint(0, DOMAIN_MAX),))
                continue
            length = window_length_for_selectivity(
                rng.uniform(*SELECTIVITY), self.mean_length
            )
            lower = rng.randint(0, DOMAIN_MAX - length)
            window = (lower, lower + length)
            if kind == "query":
                window += (rng.choice(BOUNDED_RELATIONS),)
            yield Op("read", kind, window)

    def execute(self, op: Op):
        return self._call(self.tree, op)

    def _call(self, store, op: Op):
        if op.kind == "query":
            lower, upper, relation = op.args
            return store.query(lower, upper, predicate=relation)
        if op.kind == "range_duration":
            return store.query(*op.args, predicate=self.family)
        return getattr(store, op.kind)(*op.args)

    def counters(self) -> tuple:
        stats = self.tree.db.stats
        return stats.physical_reads, stats.logical_reads

    def reference(self, ops: list[Op]) -> Iterator:
        hint = HintStore()
        hint.append_batch(self.records)
        for op in ops:
            yield self._call(hint, op)

    def trace_points(self, tracer) -> list:
        return engine_read_points(tracer)

    def trace_checks(self, tracer, traced) -> dict:
        return {
            "DiskManager.read spans == IoStats.physical_reads": (
                tracer.calls["engine.disk_read"],
                traced.counters[0],
            )
        }

    def exact_metrics(self, window) -> dict:
        metrics = read_counters(window.totals_of("read"))
        metrics["engine.storage_bytes_per_record"] = self.storage
        return metrics

    def layer_metrics(self, window, tracer) -> dict:
        metrics = engine_read_layers(tracer, window.traced_totals.ops)
        family = [
            lat
            for op, lat, traced in zip(window.ops, window.latency, window.traced)
            if op.kind == "range_duration" and lat is not None and not traced
        ]
        metrics["ritree.family_ms_per_op"] = ms(mean(family))
        return metrics
