"""The request frames ``RemoteStore`` writes stay fixed, byte for byte.

``wire_golden.json`` holds the payload of every request frame one call
of each store op puts on the wire -- field names, field order, compact
JSON -- including a query family with ``params``, an ``UPPER_INF``
record and an ``ingest_batch`` with closures.  Raw-frame clients (the end-to-end
benchmark, ``loadgen.run_load``) speak these frames directly, so any change
to them is a protocol change and must show up here.
"""

import json
import pathlib

from repro.core.predicates import range_duration
from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.service.client import RemoteStore, ServiceClient
from repro.service.ops import OPS
from repro.service.protocol import HEADER

from .test_service import seeded_store, served

GOLDEN = pathlib.Path(__file__).with_name("wire_golden.json")

FAMILY = range_duration(2, 40)

#: One labelled call per op (some ops twice, for their optional parts).
CALLS = [
    ("insert", lambda s: s.insert(5, 9, 1)),
    ("delete", lambda s: s.delete(5, 9, 1)),
    ("bulk_load", lambda s: s.bulk_load(
        [(i, i + 4, 100 + i) for i in range(5)])),
    ("bulk_load empty", lambda s: s.bulk_load([])),
    ("append_batch", lambda s: s.append_batch(
        [(30, UPPER_INF, 7), (40, 44, 8)])),
    ("insert_infinite", lambda s: s.insert(3, UPPER_INF, 10)),
    ("insert_until_now", lambda s: s.insert(4, UPPER_NOW, 11)),
    ("delete_infinite", lambda s: s.delete(3, UPPER_INF, 10)),
    ("append_batch closes", lambda s: s.append_batch(
        [(5, UPPER_NOW, 13)], closes=[(4, 11, 9), (5, 13, 8)])),
    ("delete_until_now", lambda s: (s.insert(6, UPPER_NOW, 12),
                                    s.delete(6, UPPER_NOW, 12))),
    ("advance_to", lambda s: s.advance_to(20)),
    ("stab", lambda s: s.stab(7)),
    ("intersection", lambda s: s.intersection(2, 8)),
    ("intersection_count", lambda s: s.intersection_count(2, 8)),
    ("intersection_many", lambda s: s.intersection_many(
        ((0, 5), (6, 9)))),
    ("query", lambda s: s.query(2, 80, predicate="during")),
    ("query point", lambda s: s.query(7)),
    ("query family", lambda s: s.query(0, 100, predicate=FAMILY)),
    ("join_pairs", lambda s: s.join_pairs([(0, 10, 1)])),
    ("join_pairs predicate", lambda s: s.join_pairs(
        [(0, 10, 1), (20, 30, 2)], predicate="overlaps")),
    ("join_count family", lambda s: s.join_count(
        [(0, 10, 1)], predicate=FAMILY)),
    ("submit intersection", lambda s: s.submit("intersection", 2, 8)()),
    ("submit query", lambda s: s.submit(
        "query", 2, 80, predicate="before")()),
    ("stored_records", lambda s: s.stored_records()),
    ("verify", lambda s: s.verify()),
    ("interval_count", lambda s: s.interval_count),
    ("index_entry_count", lambda s: s.index_entry_count),
    ("stats", lambda s: s.stats()),
]


class _Tee:
    """A write stream that keeps every frame written through it."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self.frames: list[bytes] = []

    def write(self, data) -> int:
        self.frames.append(bytes(data))
        return self._stream.write(data)

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        self._stream.close()


def record_frames() -> list:
    """``[label, [payload, ...]]`` per call of :data:`CALLS`."""
    recorded = []
    with served(seeded_store(now=10)) as (host, port):
        client = ServiceClient(host, port)
        tee = client._writer = _Tee(client._writer)
        store = RemoteStore(client)
        recorded.append(["connect", tee.frames[:]])
        try:
            for label, call in CALLS:
                start = len(tee.frames)
                call(store)
                recorded.append([label, tee.frames[start:]])
        finally:
            store.close()
    return recorded


def test_request_frames_are_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    recorded = record_frames()
    assert [label for label, _ in recorded] == [
        label for label, _ in golden]
    for (label, frames), (_, payloads) in zip(recorded, golden):
        expected = [HEADER.pack(len(payload.encode())) + payload.encode()
                    for payload in payloads]
        assert frames == expected, label


def test_every_wire_op_has_a_golden_frame():
    """A new op cannot skip the protocol golden: each op of the wire-op
    table travels in at least one recorded frame."""
    golden = json.loads(GOLDEN.read_text())
    framed = {
        json.loads(payload)["op"] for _label, payloads in golden for payload in payloads
    }
    assert set(OPS) - framed == set()
