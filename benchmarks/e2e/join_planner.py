"""``join-planner``: cost-model joins and family reads on the sqlite RI-tree.

``genomic(100k)`` is bulk-loaded into an ``SQLRITree`` over a connection
this benchmark owns.  Each join is ``AutoJoin(method=store).count`` over
a probe batch sampled from ``genomic(20k, seed + 7)``, sizes log-spaced
in 8-256, predicates ``intersects`` / ``range_duration`` (the 0.5-0.9
duration band) / ``during``, and is followed by 5 ``range_duration``
window reads.  The planner picks the index join for
small batches and the sweep for large ones, so ``planner`` (``costmodel``
and ``join``) and ``sql`` do the work; no other workload plans.  The
benchmark compiles every predicate from its wire form (family name plus
parameters), as the service does.
"""

from __future__ import annotations

import itertools
import random
import sqlite3
import sys
from typing import Iterator

from common import Op, Workload, ratio
from repro.core.costmodel import RITreeCostModel
from repro.core.hint import HintStore
from repro.core.join import AutoJoin, SweepJoin
from repro.core.predicates import compile_query
from repro.sql.ritree_sql import SQLRITree
from repro.workloads.distributions import DOMAIN_MAX
from repro.workloads.genomic import duration_band, genomic

RECORDS = 100_000
PROBE_POOL = 20_000
#: Probe-batch sizes, log-spaced from 8 to 256.  Every round of joins
#: takes each (size, predicate) pair once, in shuffled order, so the
#: share of costly sweeps is the same in every run.
SIZES = tuple(round(8 * 32 ** (step / 11)) for step in range(12))
READS_PER_JOIN = 5
#: Width of a read window.  A round's reads sit at stratified positions,
#: so every run reads the dense and the sparse chromosomes alike.
READ_WIDTH = 10_000
BAND = (0.5, 0.9)


class JoinPlanner(Workload):
    name = "join-planner"
    rate = 100
    round_ops = len(SIZES) * 3 * (1 + READS_PER_JOIN)

    def __init__(self, seed: int, seconds: float, workdir) -> None:
        super().__init__(seed, seconds, workdir)
        self.records = genomic(RECORDS, seed=seed).records
        self.pool = genomic(PROBE_POOL, seed=seed + 7).records
        dmin, dmax = duration_band(self.records, *BAND)
        self.band = {"dmin": dmin, "dmax": dmax}
        self.join_predicates = (
            ("intersects", None),
            ("range_duration", self.band),
            ("during", None),
        )
        self.tree = self.conn = self.tracer = None
        self.dispatches: list[str] = []

    def setup(self) -> None:
        self.conn = sqlite3.connect(":memory:")
        if self.tracer is not None:
            tracer = self.tracer
            self.conn.set_trace_callback(lambda _sql: tracer.count("sql.statements"))
        tree = SQLRITree(self.conn)
        tree.bulk_load(self.records)
        tree.cost_model()
        self.tree = tree
        (pages,) = self.conn.execute("PRAGMA page_count").fetchone()
        (page_size,) = self.conn.execute("PRAGMA page_size").fetchone()
        self.storage = pages * page_size / RECORDS

    def teardown(self) -> None:
        if self.conn is not None:
            self.conn.close()
        self.tree = self.conn = None

    def ops(self) -> Iterator[Op]:
        rng = random.Random(self.seed + 1)
        deck = list(itertools.product(SIZES, self.join_predicates))
        reads = len(deck) * READS_PER_JOIN
        stride = (DOMAIN_MAX - READ_WIDTH) / reads
        while True:
            rng.shuffle(deck)
            slots = rng.sample(range(reads), reads)
            for size, (family, params) in deck:
                probes = rng.sample(self.pool, size)
                yield Op("join", "join_count", (probes, family, params))
                for _ in range(READS_PER_JOIN):
                    lower = int((slots.pop() + rng.random()) * stride)
                    window = (lower, lower + READ_WIDTH, "range_duration", self.band)
                    yield Op("read", "query", window)

    def execute(self, op: Op):
        if op.kind == "query":
            lower, upper, family, params = op.args
            return self.tree.query(
                lower, upper, predicate=compile_query(family, params)
            )
        probes, family, params = op.args
        join = AutoJoin(method=self.tree, predicate=compile_query(family, params))
        count = join.count(probes, ())
        self.dispatches.append(join.last_dispatch)
        return count

    def reference(self, ops: list[Op]) -> Iterator:
        hint = HintStore()
        hint.append_batch(self.records)
        for op in ops:
            if op.kind == "query":
                lower, upper, family, params = op.args
                yield hint.query(lower, upper, predicate=compile_query(family, params))
            else:
                probes, family, params = op.args
                yield hint.join_count(probes, predicate=compile_query(family, params))

    def trace_points(self, tracer) -> list:
        self.tracer = tracer
        return [
            (RITreeCostModel, "estimate_join", "planner.estimate"),
            (SweepJoin, "count", "join.sweep"),
            (SQLRITree, "stored_records", "sql.stored_records"),
            (SQLRITree, "join_count", "sql.join_exec"),
            (SQLRITree, "_query_relation", "sql.query_exec"),
            # The benchmark's own calls, through this module's global.
            (sys.modules[__name__], "compile_query", "predicates.compile"),
        ]

    def exact_metrics(self, window) -> dict:
        joins = window.totals_of("join")
        sweeps = self.dispatches.count(SweepJoin.strategy_name)
        return {
            "sql.storage_bytes_per_record": self.storage,
            "join.pairs_per_join": ratio(joins.rows, joins.ops),
            "planner.sweep_share": ratio(sweeps, len(self.dispatches)),
        }

    def layer_metrics(self, window, tracer) -> dict:
        ops = window.traced_totals.ops
        joins = tracer.calls["op.join"]
        plan_ms = tracer.total_ms("planner.estimate")
        return {
            "planner.plan_ms_per_join": ratio(plan_ms, joins),
            "planner.plan_share": ratio(plan_ms, tracer.total_ms("op.join")),
            "join.sweep_ms_per_join": ratio(tracer.total_ms("join.sweep"), joins),
            "sql.statements_per_op": ratio(tracer.counts["sql.statements"], ops),
            "sql.stored_records_ms": ratio(
                tracer.total_ms("sql.stored_records"),
                tracer.calls["sql.stored_records"],
            ),
            "sql.join_exec_ms_per_join": ratio(tracer.total_ms("sql.join_exec"), joins),
            "predicates.compile_us_per_op": ratio(
                tracer.total_ms("predicates.compile") * 1000, ops
            ),
        }
