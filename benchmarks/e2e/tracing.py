"""Spans recorded from outside the program, for the traced run.

Wrappers go on class attributes or on consumer-module globals -- names
the program looks up at call time -- and are installed before the
system is built, so references the program caches at construction
(``BufferPool.make_reader`` keeps ``DiskManager.read``) capture the
wrapper too.  A wrapper records only while an op of a traced block is
running; outside those it calls straight through.

A span is ``(name, start_ns, end_ns, parent, op_id)``.  Spans of one op
are aggregated when the op ends: a span's self time is its duration
minus the time its child spans cover.  The first ``KEEP_SPANS`` spans
are also kept whole in memory and written out as ``spans.jsonl`` when the
run ends; the cap bounds memory on long runs, the aggregates cover them
all.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path

KEEP_SPANS = 50_000


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self) -> None:
        self.recording = False
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        #: Counts taken at layer boundaries (rows, ranges, bytes).
        self.counts: Counter = Counter()
        self.kept: list = []
        self._next_id = 0
        self._op_id = -1
        self._spans: list = []
        self._stack: list = []

    # -- recording -------------------------------------------------------
    def begin_op(self, op_id: int, name: str) -> int:
        self._op_id = op_id
        self._spans = []
        self._stack = []
        self.recording = True
        return self.open(name)

    def end_op(self, root: int, factor: float = 1.0) -> None:
        """Close the op's root span and aggregate its spans, scaled by the
        op's speed ``factor``; ``spans.jsonl`` keeps the raw clock."""
        self.close(root)
        self.recording = False
        spans = self._spans
        child_ns = [0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.total_ns[name] += (end - start) * factor
            self.self_ns[name] += (end - start - child_ns[index]) * factor
        base = self._next_id
        self._next_id += len(spans)
        room = KEEP_SPANS - len(self.kept)
        for index, (name, start, end, parent) in enumerate(spans[:room]):
            parent_id = base + parent if parent >= 0 else None
            self.kept.append((base + index, name, start, end, parent_id, self._op_id))

    def open(self, name: str) -> int:
        spans = self._spans
        index = len(spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter_ns()
        return index

    def close(self, index: int) -> None:
        self._spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        if self.recording:
            self.counts[name] += amount

    # -- read-out ----------------------------------------------------------
    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns[name] for name in names) / 1e6

    def total_ms(self, *names: str) -> float:
        return sum(self.total_ns[name] for name in names) / 1e6

    def write_spans(self, path: Path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op_id")
        with path.open("w") as out:
            for span in self.kept:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _traced(tracer: Tracer, name: str, fn, on_result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if on_result is not None:
            on_result(result, args)
        return result

    return wrapper


def _timed_next(tracer: Tracer, name: str, generator):
    """Re-yield ``generator``, timing only the work inside each ``next``."""
    while True:
        index = tracer.open(name) if tracer.recording else None
        try:
            item = next(generator)
        except StopIteration:
            return
        finally:
            if index is not None:
                tracer.close(index)
        yield item


def _traced_generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        generator = fn(*args, **kwargs)
        if not tracer.recording:
            return generator
        return _timed_next(tracer, name, generator)

    return wrapper


class Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def install(self, tracer: Tracer, points) -> None:
        for point in points:
            owner, attr, name, *rest = point
            on_result = rest[0] if rest else None
            if isinstance(owner, type):
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            if inspect.isgeneratorfunction(original):
                wrapper = _traced_generator(tracer, name, original)
            else:
                wrapper = _traced(tracer, name, original, on_result)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
