"""Seeded streaming workloads for the ingest subsystem.

The paper evaluates the RI-tree on statically bulk-loaded relations;
this module models the *other* end of the lifecycle: records arriving
continuously, in timestamped batches, while the store keeps serving
queries.  Two arrival disciplines are supported:

``increasing-end``
    Ending times never decrease across the stream -- the append
    pattern of logging/history workloads, where each record closes at
    (or near) the current clock.  Under this discipline every batch
    lands at the right edge of the data space, which is exactly the
    case the backends' ``append_batch`` fast paths are shaped for:
    the rightmost fork descent stays hot and domain refits never
    strand earlier partitions.

``general``
    Bounds drawn uniformly over the domain: the adversarial baseline
    for the same fast paths (appends may land anywhere).

Open intervals ride along in either mode: a configurable fraction of
rows commits as now-relative ``[lower, now]`` sentinel records
(Section 4.6) that a *later* batch closes at a fixed upper bound --
a batch's closures ride in the same ``append_batch`` call as its
records -- the
session/transaction-time lifecycle the paper's ``now`` discussion
describes.

Every batch is reproducible from the seed alone; :func:`replay_records`
rebuilds the net record image of any committed prefix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.access import IntervalRecord
from ..core.temporal import UPPER_NOW

#: Supported arrival disciplines.
MODES = ("increasing-end", "general")


@dataclass(frozen=True)
class StreamBatch:
    """One timestamped unit of arrival.

    Attributes
    ----------
    seq:
        Zero-based batch sequence number.
    timestamp:
        Clock value the stream has reached when the batch arrives; the
        consumer advances the store clock to it *before* applying the
        records (now-relative rows in the batch start at or before it).
    records:
        Append records, ``(lower, upper, id)`` with sentinel uppers for
        open rows.
    closes:
        ``(lower, interval_id, upper)`` closures of now-relative rows
        committed by *earlier* batches; applied after the appends, in
        the same ``append_batch`` call.
    """

    seq: int
    timestamp: int
    records: tuple[IntervalRecord, ...]
    closes: tuple[tuple[int, int, int], ...] = ()

    @property
    def record_count(self) -> int:
        return len(self.records)

    def apply_to(self, store) -> None:
        """Apply the whole batch to ``store`` in the ingestor's order:
        clock first, then the appends and the closures in one call."""
        store.advance_to(self.timestamp)
        store.append_batch(self.records, closes=self.closes)


class StreamWorkload:
    """Deterministic stream of append batches.

    Parameters
    ----------
    seed:
        Seeds the private RNG; equal parameters produce equal streams.
    batches:
        Number of batches the iterator yields.
    batch_size:
        Records per batch (the arrival-rate knob: records per clock
        tick is ``batch_size / ticks_per_batch``).
    mode:
        Arrival discipline, one of :data:`MODES`.
    domain:
        Upper edge of the bound domain (paper evaluation: ``2**20``).
    mean_length:
        Mean interval duration; actual durations are uniform in
        ``[1, 2 * mean_length]``.
    open_fraction:
        Fraction of rows committed as now-relative open intervals.
    close_lag:
        Mean number of batches an open row stays open before a later
        batch closes it at the then-current clock.
    ticks_per_batch:
        Clock advance per batch.
    start_clock:
        Clock value before the first batch.
    """

    def __init__(
        self,
        seed: int,
        batches: int,
        batch_size: int,
        mode: str = "increasing-end",
        domain: int = 1 << 20,
        mean_length: int = 1000,
        open_fraction: float = 0.0,
        close_lag: int = 4,
        ticks_per_batch: int = 100,
        start_clock: int = 0,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if batches < 0 or batch_size < 1:
            raise ValueError("need batches >= 0 and batch_size >= 1")
        if not 0.0 <= open_fraction <= 1.0:
            raise ValueError(f"open_fraction must be in [0, 1], "
                             f"got {open_fraction}")
        self.seed = seed
        self.batches = batches
        self.batch_size = batch_size
        self.mode = mode
        self.domain = domain
        self.mean_length = max(1, mean_length)
        self.open_fraction = open_fraction
        self.close_lag = max(1, close_lag)
        self.ticks_per_batch = max(1, ticks_per_batch)
        self.start_clock = start_clock

    @property
    def total_records(self) -> int:
        """Append records across the whole stream (closures excluded)."""
        return self.batches * self.batch_size

    def __iter__(self) -> Iterator[StreamBatch]:
        rng = random.Random(self.seed)
        clock = self.start_clock
        next_id = 0
        end_floor = clock
        # Open rows waiting for their closing batch: seq -> [(lower, id)].
        pending: dict[int, list[tuple[int, int]]] = {}
        for seq in range(self.batches):
            clock += self.ticks_per_batch
            records: list[IntervalRecord] = []
            for _ in range(self.batch_size):
                if self.open_fraction and rng.random() < self.open_fraction:
                    lower = max(0, clock - rng.randrange(
                        1, 2 * self.mean_length + 1))
                    records.append((lower, UPPER_NOW, next_id))
                    due = seq + 1 + rng.randrange(1, 2 * self.close_lag)
                    pending.setdefault(due, []).append((lower, next_id))
                else:
                    length = rng.randrange(1, 2 * self.mean_length + 1)
                    if self.mode == "increasing-end":
                        upper = end_floor + rng.randrange(
                            0, self.ticks_per_batch + 1)
                        end_floor = upper
                        lower = max(0, upper - length)
                    else:
                        lower = rng.randrange(0, self.domain)
                        upper = lower + length
                    records.append((lower, upper, next_id))
                next_id += 1
            closes = tuple(
                (lower, interval_id, max(lower, clock))
                for lower, interval_id in pending.pop(seq, ())
            )
            if self.mode == "increasing-end":
                end_floor = max(end_floor, clock)
            yield StreamBatch(seq, clock, tuple(records), closes)


def replay_records(
    workload: StreamWorkload, upto: Optional[int] = None
) -> tuple[list[IntervalRecord], int]:
    """Materialise the stream's net record set after ``upto`` batches.

    The bulk-load image an ingested store must be equivalent to:
    appended records with every applied closure folded in (closed rows
    appear with their fixed upper, still-open rows keep the sentinel).
    Returns ``(records, clock)``.
    """
    by_id: dict[int, IntervalRecord] = {}
    clock = workload.start_clock
    for batch in workload:
        if upto is not None and batch.seq >= upto:
            break
        clock = max(clock, batch.timestamp)
        for record in batch.records:
            by_id[record[2]] = record
        for lower, interval_id, upper in batch.closes:
            by_id[interval_id] = (lower, upper, interval_id)
    return [by_id[i] for i in sorted(by_id)], clock
