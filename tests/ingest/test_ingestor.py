"""StreamIngestor policies: flushing, backpressure, checkpoints, crashes."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core.ritree import RITree
from repro.engine import Database, FaultInjector, SimulatedCrash
from repro.ingest import StreamIngestor, StreamWorkload
from repro.ingest.workload import StreamBatch
from repro.methods.memory import BruteForceIntervals
from repro.sql import SQLRITree


class RecordingStore:
    """A store stand-in that logs what the ingestor asks of it."""

    def __init__(self, events: list) -> None:
        self.now = 0
        self.events = events

    def advance_to(self, now: int) -> None:
        self.now = now
        self.events.append(("advance", now))

    def append_batch(self, records, closes=()) -> None:
        closed = [interval_id for _, interval_id, _ in closes]
        self.events.append(("append", len(records), closed))


class RecordingDatabase:
    """A database stand-in: atomic batches and checkpoints, logged."""

    def __init__(self, events: list) -> None:
        self.events = events
        self.depth = 0

    @contextmanager
    def atomic(self):
        self.events.append("begin")
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1
            self.events.append("commit")

    def checkpoint(self) -> None:
        assert self.depth == 0, "checkpoint inside an atomic batch"
        self.events.append("checkpoint")


def make_ingestor(**options):
    events: list = []
    ingestor = StreamIngestor(
        RecordingStore(events), database=RecordingDatabase(events), **options
    )
    return ingestor, events


def batch(seq: int, size: int, timestamp: int = 0, closes=()) -> StreamBatch:
    records = tuple(
        (seq * 100 + i, seq * 100 + i + 5, seq * 100 + i) for i in range(size)
    )
    return StreamBatch(seq, timestamp, records, tuple(closes))


def appends(events: list) -> list:
    return [event[1] for event in events if event[0] == "append"]


def test_buffer_flushes_at_the_threshold():
    ingestor, events = make_ingestor(flush_records=4)
    ingestor.submit(batch(0, 3))
    assert appends(events) == [] and ingestor.buffered == 3
    ingestor.submit(batch(1, 3))
    assert appends(events) == [6] and ingestor.buffered == 0
    assert ingestor.stats.flushes == 1 and ingestor.stats.records == 6


def test_full_buffer_stalls_the_producer():
    ingestor, events = make_ingestor(flush_records=4, buffer_records=5)
    ingestor.submit(batch(0, 3))
    ingestor.submit(batch(1, 3))  # 3 + 3 > 5: flush the 3 first
    assert ingestor.stats.stalls == 1
    assert appends(events) == [3] and ingestor.buffered == 3


def test_buffer_bound_below_flush_size_is_rejected():
    with pytest.raises(ValueError):
        StreamIngestor(RecordingStore([]), flush_records=4, buffer_records=3)


def test_checkpoint_every_n_flushes_after_the_submit_commits():
    ingestor, events = make_ingestor(flush_records=2, checkpoint_batches=2)
    for seq in range(6):
        ingestor.submit(batch(seq, 2))
    assert ingestor.stats.flushes == 6 and ingestor.stats.checkpoints == 3
    # A checkpoint always follows a closed batch, never sits inside one.
    positions = [i for i, event in enumerate(events) if event == "checkpoint"]
    assert all(events[i - 1] == "commit" for i in positions)


def test_closures_flush_with_the_buffered_rows_in_one_call():
    ingestor, events = make_ingestor(flush_records=100)
    ingestor.submit(batch(0, 3, timestamp=10))
    events.clear()
    ingestor.submit(batch(1, 2, timestamp=20, closes=[(0, 0, 20), (1, 1, 20)]))
    assert events == [
        "begin",
        ("advance", 20),
        ("append", 5, [0, 1]),
        "commit",
    ]
    assert ingestor.stats.closes == 2 and ingestor.stats.flushes == 1


def test_closures_on_an_empty_buffer_are_not_a_flush():
    ingestor, events = make_ingestor(flush_records=2)
    ingestor.submit(batch(0, 2, timestamp=10))
    events.clear()
    ingestor.submit(batch(1, 0, timestamp=20, closes=[(0, 0, 20)]))
    assert events == ["begin", ("advance", 20), ("append", 0, [0]), "commit"]
    assert ingestor.stats.flushes == 1 and ingestor.stats.closes == 1


def test_drain_flushes_the_rest():
    ingestor, events = make_ingestor(flush_records=100)
    ingestor.submit(batch(0, 3))
    stats = ingestor.drain()
    assert appends(events) == [3] and ingestor.buffered == 0
    assert stats is ingestor.stats and stats.flushes == 1
    ingestor.drain()
    assert appends(events) == [3]  # an empty buffer flushes nothing


def test_submit_forces_the_wal_once():
    db = Database(wal=True)
    tree = RITree(db, now=0)
    ingestor = StreamIngestor(tree, flush_records=8)
    workload = StreamWorkload(seed=3, batches=20, batch_size=6, open_fraction=0.3)
    for item in workload:
        before = db.wal.forces
        ingestor.submit(item)
        # Advance, flush and closures commit together; a submit that only
        # buffers writes nothing.
        assert db.wal.forces - before <= 1
    assert ingestor.stats.closes > 0


def test_sql_ritree_ingest_with_closures_matches_the_oracle():
    store = SQLRITree(now=0)
    ingestor = StreamIngestor(store, flush_records=8)
    oracle = BruteForceIntervals()
    workload = StreamWorkload(
        seed=5, batches=12, batch_size=6, open_fraction=0.4, close_lag=2
    )
    for item in workload:
        ingestor.submit(item)
        ingestor.flush()
        item.apply_to(oracle)
        assert sorted(store.stored_records()) == sorted(oracle.stored_records())
        for lower in range(0, item.timestamp + 1, 150):
            assert sorted(store.intersection(lower, lower + 100)) == sorted(
                oracle.intersection(lower, lower + 100)
            )
        report = store.verify()
        assert report.ok, [i.as_dict() for i in report.issues]
    assert ingestor.stats.closes > 0


def crash_workload() -> StreamWorkload:
    return StreamWorkload(
        seed=11, batches=10, batch_size=5, open_fraction=0.3, close_lag=2
    )


def ingest(db: Database, observe=lambda tree: None) -> RITree:
    """Stream into a fresh tree, observing it before and after every submit."""
    tree = RITree(db, now=0)
    ingestor = StreamIngestor(tree, flush_records=8, checkpoint_batches=2)
    observe(tree)
    for item in crash_workload():
        ingestor.submit(item)
        observe(tree)
    ingestor.drain()
    observe(tree)
    return tree


def state(tree: RITree) -> tuple:
    return tree.now, sorted(tree.stored_records())


def small_db(injector=None) -> Database:
    return Database(block_size=512, cache_blocks=8, wal=True, injector=injector)


def test_crash_at_every_write_point_recovers_a_whole_submit():
    # Observing reads pages and so moves write points: count them on an
    # unobserved run, collect the committed states on another.
    allowed: list = []
    final = ingest(small_db(), observe=lambda tree: allowed.append(state(tree)))
    assert final.verify().ok and final.db.wal.checkpoints > 0
    assert any(item.closes for item in crash_workload()) and allowed[-1][0] > 0
    passive = FaultInjector()
    ingest(small_db(passive))
    assert passive.write_points > 0
    for point in range(1, passive.write_points + 1):
        db = small_db(FaultInjector().crash_at_write_point(point))
        with pytest.raises(SimulatedCrash):
            ingest(db)
        recovered = db.recover()
        if not recovered.has_table("Intervals"):
            continue  # died before the table's DDL committed
        tree = RITree.attach(recovered)
        assert tree.verify().ok, point
        assert state(tree) in allowed, point
