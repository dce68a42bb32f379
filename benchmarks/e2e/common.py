"""Shared pieces of the end-to-end benchmark: ops, the closed loop, results.

Every workload is a closed loop with one caller: the next op is issued
only after the previous one returned.  An op's latency is the wall time
of the one call into the program; everything the benchmark does around
it (digesting the result, reading the program's counters) happens
between calls and is not billed to the program.

Times are reported at a nominal machine speed.  On a shared machine the
speed of the same interpreter work drifts by 20 % or more over seconds
(frequency scaling, neighbours on sibling cores), far more than the
changes the benchmark must resolve.  So :class:`Speed` re-times a fixed
reference loop between ops, and each measured time is scaled by
``REFERENCE_S / (the loop's current duration)``: a reported millisecond
is a millisecond on a machine that runs the loop in ``REFERENCE_S``.
The loop does not touch the program, so a slower program still reads
slower.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from repro.service.loadgen import canonical, percentile

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Ops per block in a traced run.  Each block is traced or not by a fixed
#: coin flip, so the tracing overhead is measured on one op stream,
#: interleaved, without aliasing periodic work (checkpoints) to one side.
TRACE_BLOCK = 25

#: Duration of the reference loop at the nominal machine speed.
REFERENCE_S = 0.0004
#: Minimum wall time between two re-timings of the reference loop.
SPEED_SAMPLE_S = 0.05

#: Wall-time limit of a window, so that a run of a much slower program
#: still ends in time.
MAX_WINDOW_S = 100


def _reference_loop() -> float:
    """Plain interpreter work (dict updates, integer arithmetic); its
    duration in seconds."""
    start = time.perf_counter()
    counts: dict = {}
    total = 0
    for i in range(3_000):
        key = i & 127
        counts[key] = counts.get(key, 0) + i
        total += (i * 7) % 13
    return time.perf_counter() - start


class Speed:
    """The machine's current speed, as a factor that scales a measured
    time to the nominal speed."""

    def __init__(self) -> None:
        self.factor = 1.0
        self.factors: list[float] = []
        self._next = 0.0

    def sample(self, force: bool = False) -> float:
        """Re-time the reference loop unless that was done less than
        ``SPEED_SAMPLE_S`` ago; the current factor."""
        if force or time.perf_counter() >= self._next:
            best = min(_reference_loop() for _ in range(3))
            self.factor = REFERENCE_S / best
            self.factors.append(self.factor)
            self._next = time.perf_counter() + SPEED_SAMPLE_S
        return self.factor

    def timed(self, fn) -> float:
        """Nominal seconds of one call of ``fn``, scaled by the mean factor
        sampled just before and just after it."""
        before = self.sample(force=True)
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        return elapsed * (before + self.sample(force=True)) / 2


class Op(NamedTuple):
    """One generated request: its class, the call, and its arguments."""

    cls: str  # "read", "join" or "write"
    kind: str  # the store method or wire op the call goes to
    args: tuple = ()
    records: int = 0  # records the op writes


def digest(kind: str, result):
    """An order-free fingerprint of one result, cheap to keep per op."""
    if result is None or isinstance(result, int):
        return result
    rows = canonical(kind, result)
    return len(rows), hash(tuple(rows))


def result_rows(result) -> int:
    """Rows a result carries: its length, or the count it reports."""
    if result is None:
        return 0
    if isinstance(result, int):
        return result
    return len(result)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a process, from ``/proc``, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def ms(seconds: float) -> float:
    return seconds * 1000.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Workload:
    """One traffic mix against one deployment of the program.

    Subclasses generate their inputs from the seed in ``__init__`` (the
    program receives only those inputs), build the system in ``setup``
    and answer each :class:`Op` in ``execute``.  ``reference`` replays
    the executed ops against an independent store, outside the measured
    window.  ``counters`` returns the program's own deterministic
    counters, which the runner reads around every op.

    A run is a fixed amount of work, not a fixed time: ``count`` ops,
    ``seconds`` times the workload's ``rate`` (its ops per second at the
    nominal speed) rounded up to whole rounds, so it lasts about
    ``seconds``.  The program's state and counters after a run then
    depend only on the seed and ``seconds``, and the counters repeat
    exactly.  Times a workload measures itself go through ``speed``.
    """

    name = ""
    rate = 1.0
    #: Ops in one round of the workload's stream; a run takes whole rounds.
    round_ops = 1

    def __init__(self, seed: int, seconds: float, workdir) -> None:
        self.seed = seed
        rounds = max(1, math.ceil(seconds * self.rate / self.round_ops))
        self.count = rounds * self.round_ops
        self.workdir = workdir
        self.speed = Speed()

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release the system built by :meth:`setup` (idempotent)."""

    def warmup(self) -> None:
        """Untimed ops before the window: caches fill, lazy set-up ends."""

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def observe(self, op: Op, result) -> str:
        """Called after each successful op, outside its timing; returns
        the op's class."""
        return op.cls

    def counters(self) -> tuple:
        return ()

    def begin_window(self) -> None:
        pass

    def end_window(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(os.getpid())

    def reference(self, ops: list[Op]) -> Iterator:
        raise NotImplementedError

    def trace_points(self, tracer) -> list:
        """``(owner, attribute, span name[, on_result])`` to wrap."""
        return []

    def trace_checks(self, tracer, traced: "Totals") -> dict:
        """Span counts that must equal the program's own counters."""
        return {}

    def exact_metrics(self, window: "Window") -> dict:
        return {}

    def layer_metrics(self, window: "Window", tracer) -> dict:
        return {}


@dataclass
class Totals:
    """Summed per-op figures for one group of ops."""

    ops: int = 0
    rows: int = 0
    records: int = 0
    counters: list = field(default_factory=list)

    def add(self, ops: int, rows: int, records: int, counters) -> None:
        self.ops += ops
        self.rows += rows
        self.records += records
        pairs = itertools.zip_longest(self.counters, counters, fillvalue=0)
        self.counters = [a + b for a, b in pairs]


@dataclass
class Window:
    """Everything the runner observed in the measured window."""

    ops: list = field(default_factory=list)
    classes: list = field(default_factory=list)
    latency: list = field(default_factory=list)  # nominal s; None if it raised
    digests: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    failed: int = 0
    #: Mean speed factor over the window, for times measured in bulk.
    scale: float = 1.0
    #: Every op's counters and rows, per op class.
    totals: dict = field(default_factory=dict)
    #: The traced ops', every class together.
    traced_totals: Totals = field(default_factory=Totals)

    def latencies(self, cls: Optional[str] = None, traced: bool = False) -> list:
        """Successful-op latencies of the untraced ops (the traced ones
        with ``traced``), optionally of one class only."""
        return [
            lat
            for c, lat, t in zip(self.classes, self.latency, self.traced)
            if lat is not None and t == traced and (cls is None or c == cls)
        ]

    def totals_of(self, *classes: str) -> Totals:
        """The totals summed over ``classes`` (every class when empty)."""
        total = Totals()
        for cls, part in self.totals.items():
            if not classes or cls in classes:
                total.add(part.ops, part.rows, part.records, part.counters)
        return total


def run_window(workload: Workload, tracer=None) -> Window:
    """The measured closed loop over the first ``workload.count`` ops of its
    stream.  A run that passes ``MAX_WINDOW_S`` of wall time stops early,
    and says so."""
    window = Window()
    coin = random.Random(0)
    traced = False
    speed = workload.speed
    first_sample = len(speed.factors)
    deadline = time.perf_counter() + MAX_WINDOW_S
    reported = False
    stream = itertools.islice(workload.ops(), workload.count)
    for index, op in enumerate(stream):
        if tracer is not None and index % TRACE_BLOCK == 0:
            traced = coin.random() < 0.5
        factor = speed.sample()
        before = workload.counters()
        root = tracer.begin_op(index, "op." + op.cls) if traced else None
        start = time.perf_counter()
        try:
            result = workload.execute(op)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            elapsed = None
            result = exc
        else:
            elapsed = (time.perf_counter() - start) * factor
        if traced:
            tracer.end_op(root, factor)
        if elapsed is None:
            window.failed += 1
            cls = op.cls
            window.digests.append(None)
            if not reported:
                reported = True
                print(f"{workload.name}: op {index} {op} raised:", file=sys.stderr)
                traceback.print_exception(result, file=sys.stderr)
        else:
            cls = workload.observe(op, result)
            window.digests.append(digest(op.kind, result))
        delta = [a - b for a, b in zip(workload.counters(), before)]
        rows = 0 if elapsed is None else result_rows(result)
        window.totals.setdefault(cls, Totals()).add(1, rows, op.records, delta)
        if traced:
            window.traced_totals.add(1, rows, op.records, delta)
        window.ops.append(op)
        window.classes.append(cls)
        window.latency.append(elapsed)
        window.traced.append(traced)
        if time.perf_counter() > deadline:
            print(
                f"{workload.name}: stopped after {index + 1} of {workload.count} "
                f"ops, at the {MAX_WINDOW_S} s limit",
                file=sys.stderr,
            )
            break
    window.scale = mean(speed.factors[first_sample:])
    return window


def check_results(workload: Workload, window: Window) -> Optional[str]:
    """Replay the executed ops on the reference; the first mismatch, if any.

    Ops that raised are failures, counted in ``failed``; they are not
    compared.  Returns a message naming the workload, op index and op.
    """
    expected = workload.reference(window.ops)
    rows = zip(window.ops, window.latency, window.digests, expected)
    for index, (op, latency, got, want) in enumerate(rows):
        if latency is None:
            continue
        want = digest(op.kind, want)
        if got != want:
            return (
                f"{workload.name}: result mismatch at op {index} {op}: "
                f"program {got!r}, reference {want!r}"
            )
    return None


def end_to_end(window: Window, setup_times: list, rss_mb: float) -> dict:
    """The end-to-end metrics of an untraced run (see BENCHMARK.json)."""
    every = window.latencies()
    reads = window.latencies("read")
    return {
        "setup_s": sorted(setup_times)[len(setup_times) // 2],
        "ops_per_s": ratio(len(every), sum(every)),
        "read_p50_ms": ms(percentile(reads, 50)),
        "read_p99_ms": ms(percentile(reads, 99)),
        "op_p95_ms": ms(percentile(every, 95)),
        "peak_rss_mb": rss_mb,
    }


def class_metrics(window: Window) -> dict:
    """Per-class latencies from the untraced blocks of a traced run."""
    joins = window.latencies("join")
    writes = window.latencies("write")
    every = window.latencies()
    untraced_records = sum(
        op.records
        for op, lat, t in zip(window.ops, window.latency, window.traced)
        if lat is not None and not t
    )
    return {
        "ops.join_p50_ms": ms(percentile(joins, 50)),
        "ops.join_p90_ms": ms(percentile(joins, 90)),
        "ops.write_p50_ms": ms(percentile(writes, 50)),
        "ops.write_p95_ms": ms(percentile(writes, 95)),
        "ops.ingest_records_per_s": ratio(untraced_records, sum(every)),
    }
