"""``ingest-temporal``: the write path of the disk RI-tree, with WAL.

A ``StreamIngestor`` drives a ``TemporalRITree`` on a WAL-enabled
paper-geometry database (``flush_records=256``, a checkpoint every 50
flushed batches).  The stream has increasing ends and 10 % now-relative
rows, closed by later batches; the store starts from a checkpointed
history of the stream's first 400 batches.  Every submit is followed by
4 reads over the most recent 2,000 ticks: their working set fits the
200-block cache, the hot mirror of ``engine-scan``'s cold reads on the
same layers.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from common import Op, Workload, ratio
from engine_scan import engine_read_layers, engine_read_points, read_counters
from repro.bench.harness import PAPER_BLOCK_SIZE, PAPER_CACHE_BLOCKS
from repro.core.hint import HintStore
from repro.core.temporal import UPPER_INF, UPPER_NOW, TemporalRITree
from repro.engine.database import Database
from repro.engine.wal import WriteAheadLog
from repro.ingest.ingestor import StreamIngestor
from repro.ingest.workload import StreamWorkload, replay_records

BATCH_SIZE = 128
HISTORY_BATCHES = 400
FLUSH_RECORDS = 256
CHECKPOINT_BATCHES = 50
OPEN_FRACTION = 0.1
READS_PER_SUBMIT = 4
#: Ticks each read covers: the reads after a submit take the adjacent
#: windows back from the stream's clock, so reads at one position are
#: alike and the read tail is made by checkpoints, not by wide windows.
READ_SPAN = 500
#: Counters read around each op, in this order.
COUNTERS = (
    "physical_reads",
    "logical_reads",
    "physical_writes",
    "wal_writes",
    "wal_forces",
    "checkpoints",
    "blocks_in_use",
)


class IngestTemporal(Workload):
    name = "ingest-temporal"
    rate = 550
    round_ops = 1 + READS_PER_SUBMIT

    def __init__(self, seed: int, seconds: float, workdir) -> None:
        super().__init__(seed, seconds, workdir)
        self.stream = StreamWorkload(
            seed,
            batches=10**9,
            batch_size=BATCH_SIZE,
            open_fraction=OPEN_FRACTION,
        )
        history, self.clock = replay_records(self.stream, upto=HISTORY_BATCHES)
        sentinel = (UPPER_INF, UPPER_NOW)
        self.finite = [row for row in history if row[1] not in sentinel]
        self.open_rows = [row for row in history if row[1] in sentinel]
        self.history = len(history)
        self.tree = self.ingestor = None

    def setup(self) -> None:
        db = Database(PAPER_BLOCK_SIZE, PAPER_CACHE_BLOCKS, wal=True)
        tree = TemporalRITree(db, now=self.clock)
        tree.bulk_load(self.finite)
        tree.append_batch(self.open_rows)
        db.checkpoint()
        self.tree = tree
        self.ingestor = StreamIngestor(
            tree, flush_records=FLUSH_RECORDS, checkpoint_batches=CHECKPOINT_BATCHES
        )
        self.setup_blocks = db.blocks_in_use

    def teardown(self) -> None:
        self.tree = self.ingestor = None

    def ops(self) -> Iterator[Op]:
        for batch in itertools.islice(self.stream, HISTORY_BATCHES, None):
            yield Op("write", "submit", (batch,), batch.record_count)
            for back in range(READS_PER_SUBMIT):
                upper = batch.timestamp - back * READ_SPAN
                yield Op("read", "intersection", (upper - READ_SPAN, upper))

    def execute(self, op: Op):
        return self._call(self.ingestor, self.tree, op)

    @staticmethod
    def _call(ingestor, store, op: Op):
        """A submit answers with the number of flushes it caused."""
        if op.kind == "submit":
            flushes = ingestor.stats.flushes
            ingestor.submit(op.args[0])
            return ingestor.stats.flushes - flushes
        return store.intersection(*op.args)

    def observe(self, op: Op, result) -> str:
        # Only a submit that flushed reaches the store; the others only
        # buffer, and count as ops but not as writes.
        return "buffer" if op.kind == "submit" and not result else op.cls

    def counters(self) -> tuple:
        db = self.tree.db
        stats = db.stats
        return (
            stats.physical_reads,
            stats.logical_reads,
            stats.physical_writes,
            stats.wal_writes,
            db.wal.forces,
            self.ingestor.stats.checkpoints,
            db.blocks_in_use,
        )

    def end_window(self) -> None:
        self.ingest_stats = self.ingestor.stats

    def reference(self, ops: list[Op]) -> Iterator:
        hint = HintStore(now=self.clock)
        hint.append_batch(self.finite)
        hint.append_batch(self.open_rows)
        # HintStore has no database, so this ingestor never checkpoints;
        # its flush decisions are the program's.
        ingestor = StreamIngestor(hint, flush_records=FLUSH_RECORDS)
        for op in ops:
            yield self._call(ingestor, hint, op)

    def trace_points(self, tracer) -> list:
        return engine_read_points(tracer) + [
            (WriteAheadLog, "force", "engine.wal_force"),
            (WriteAheadLog, "checkpoint", "engine.wal_checkpoint"),
            (Database, "checkpoint", "engine.checkpoint"),
            (TemporalRITree, "append_batch", "ritree.append_batch"),
            (StreamIngestor, "flush", "ingest.flush"),
        ]

    def trace_checks(self, tracer, traced) -> dict:
        counters = dict(zip(COUNTERS, traced.counters))
        calls = tracer.calls
        return {
            "DiskManager.read spans == IoStats.physical_reads": (
                calls["engine.disk_read"],
                counters["physical_reads"],
            ),
            "WriteAheadLog.force + checkpoint spans == wal.forces": (
                calls["engine.wal_force"] + calls["engine.wal_checkpoint"],
                counters["wal_forces"],
            ),
        }

    def exact_metrics(self, window) -> dict:
        metrics = read_counters(window.totals_of("read"))
        writes = window.totals_of("write", "buffer")
        counters = dict(zip(COUNTERS, writes.counters))
        grown = dict(zip(COUNTERS, window.totals_of().counters))["blocks_in_use"]
        stored_bytes = (self.setup_blocks + grown) * PAPER_BLOCK_SIZE
        wal_bytes = counters["wal_writes"] * PAPER_BLOCK_SIZE
        records = writes.records
        flushes = writes.rows  # a submit's rows are the flushes it caused
        metrics.update(
            {
                "engine.storage_bytes_per_record": stored_bytes
                / (self.history + records),
                "engine.wal_bytes_per_record": ratio(wal_bytes, records),
                "engine.physical_writes_per_record": ratio(
                    counters["physical_writes"], records
                ),
                "engine.wal_forces_per_batch": ratio(counters["wal_forces"], flushes),
                "engine.checkpoints": counters["checkpoints"],
            }
        )
        return metrics

    def layer_metrics(self, window, tracer) -> dict:
        metrics = engine_read_layers(tracer, window.traced_totals.ops)
        batches = tracer.calls["ritree.append_batch"]
        checkpoints = tracer.calls["engine.checkpoint"]
        metrics.update(
            {
                "engine.wal_force_ms_per_batch": ratio(
                    tracer.total_ms("engine.wal_force"), batches
                ),
                "engine.checkpoint_ms": ratio(
                    tracer.total_ms("engine.checkpoint"), checkpoints
                ),
                "ritree.append_batch_ms": ratio(
                    tracer.total_ms("ritree.append_batch"), batches
                ),
                "ingest.flush_ms": ratio(
                    tracer.total_ms("ingest.flush"), tracer.calls["ingest.flush"]
                ),
                "ingest.stalls": self.ingest_stats.stalls,
                "ingest.buffered_peak": self.ingest_stats.buffered_peak,
            }
        )
        return metrics
