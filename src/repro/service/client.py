"""Blocking service clients: the raw RPC client and the store adapter.

:class:`ServiceClient` speaks one frame request/response at a time over
a TCP connection, thread-safe behind a lock -- concurrent callers
serialise per connection.  A round trip splits into :meth:`ServiceClient.
send` and the reader it returns, so a router can write a request to
every shard before it waits on the first response; the GIL is released
during the socket waits, which is what lets one router process keep
many shard processes busy.

:class:`RemoteStore` adapts a served store back into the
:class:`~repro.core.access.IntervalStore` contract: every method is one
:meth:`RemoteStore.submit` of the wire-op table in
:mod:`repro.service.ops`, which writes the request frame and returns
before the response arrives, and contract exceptions round-trip by
type.  A ``bulk_load`` or ``append_batch`` travels as exactly one frame,
so the served store applies it whole or not at all; a batch too large
for one frame is refused by :func:`~repro.service.protocol.encode_frame`
before any byte is sent.  Temporal rows travel through the plain
``insert``, ``delete`` and ``ingest_batch`` frames with their sentinel
uppers, a batch's closures in its ``ingest_batch`` frame, and the clock
through ``advance_to``, which every registered backend serves (a served
store without a clock answers it with :class:`NotImplementedError`).
"""

from __future__ import annotations

import socket
import threading
from functools import partial
from typing import Any, Callable, Optional, Sequence

from ..core.access import IntervalRecord, IntervalStore
from ..core.verify import VerificationReport
from .ops import METHODS
from .protocol import (
    ProtocolError,
    ServiceError,
    raise_for_response,
    read_frame,
    write_frame,
)

class ServiceClient:
    """One connection to an interval service; thread-safe call()."""

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = None) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._writer = self._sock.makefile("wb")
        self._lock = threading.Lock()
        self._next_id = 0

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def call(self, op: str, **params):
        """One request/response round trip; raises remote errors."""
        return self.send(op, **params)()

    def send(self, op: str, **params) -> Callable[[], Any]:
        """Write one request frame; return the reader of its response.

        The connection stays locked from here until the returned reader
        has run, so the caller must run it exactly once -- also when it
        gives up on the result -- or the connection stays locked.  A
        caller holding several connections at once acquires them in one
        global order (the router: ascending shard index), so concurrent
        callers cannot deadlock.
        """
        self._lock.acquire()
        try:
            self._next_id += 1
            request_id = self._next_id
            write_frame(self._writer, {"id": request_id, "op": op, **params})
        except BaseException:
            self._lock.release()
            raise
        return partial(self._receive, op, request_id)

    def _receive(self, op: str, request_id: int):
        try:
            response = read_frame(self._reader)
        finally:
            self._lock.release()
        if response is None:
            raise ServiceError(f"server closed the connection during {op!r}")
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}")
        return raise_for_response(response)

    def close(self) -> None:
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except OSError:
                pass
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class RemoteStore(IntervalStore):
    """A served store, driven through the ``IntervalStore`` contract."""

    def __init__(self, client: ServiceClient) -> None:
        self._client = client
        info = client.call("info")
        self.method_name = f"remote({info['method_name']})"

    @classmethod
    def connect(cls, host: str, port: int,
                timeout: Optional[float] = None) -> "RemoteStore":
        return cls(ServiceClient(host, port, timeout=timeout))

    @property
    def address(self) -> tuple[str, int]:
        """The served store's ``(host, port)`` -- the relay's target."""
        return self._client.address

    def call(self, op: str, **params):
        return self._client.call(op, **params)

    def submit(self, method: str, *args, **kwargs) -> Callable[[], Any]:
        """Write ``method``'s request frame, encoded from the wire-op
        table, now; the returned callable reads the response.

        The connection stays locked until the callable has run (see
        :meth:`ServiceClient.send`).
        """
        op = METHODS.get(method)
        if op is None:
            return super().submit(method, *args, **kwargs)
        receive = self._client.send(op.name, **op.request(args, kwargs))
        if op.decode is None:
            return receive
        return lambda: op.decode(receive())

    # ------------------------------------------------------------------
    # updates and the clock
    # ------------------------------------------------------------------
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        self.submit("insert", lower, upper, interval_id)()

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        self.submit("delete", lower, upper, interval_id)()

    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        """One ``bulk_load`` frame (none for an empty batch)."""
        records = list(intervals)
        if records:
            self.submit("bulk_load", records)()

    def append_batch(self, records: Sequence[IntervalRecord],
                     closes=()) -> None:
        """One ``ingest_batch`` frame carrying the records and the
        closures (none for an empty batch): one writer-lock acquisition
        and one group commit on WAL-backed backends server-side."""
        records, closes = list(records), list(closes)
        if records or closes:
            self.submit("append_batch", records, closes)()

    def advance_to(self, now: int) -> None:
        self.submit("advance_to", now)()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def intersection(self, lower: int, upper: int) -> list[int]:
        return self.submit("intersection", lower, upper)()

    def intersection_count(self, lower: int, upper: int) -> int:
        return self.submit("intersection_count", lower, upper)()

    def intersection_many(
        self, queries: Sequence[tuple[int, int]]
    ) -> list[list[int]]:
        return self.submit("intersection_many", queries)()

    def stab(self, point: int) -> list[int]:
        return self.submit("stab", point)()

    def query(self, lower, upper=None, *, predicate="intersects"):
        return self.submit("query", lower, upper, predicate=predicate)()

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def join_pairs(self, probes: Sequence[IntervalRecord], *,
                   predicate=None) -> list[tuple[int, int]]:
        return self.submit("join_pairs", probes, predicate=predicate)()

    def join_count(self, probes: Sequence[IntervalRecord], *,
                   predicate=None) -> int:
        return self.submit("join_count", probes, predicate=predicate)()

    # ------------------------------------------------------------------
    # enumeration / verification / accounting
    # ------------------------------------------------------------------
    def stored_records(self) -> list[IntervalRecord]:
        return self.submit("stored_records")()

    def verify(self) -> VerificationReport:
        """The *served* store's own verification, rebuilt client-side."""
        return self.submit("verify")()

    @property
    def interval_count(self) -> int:
        return self.call("info")["records"]

    @property
    def index_entry_count(self) -> int:
        return self.call("info")["index_entries"]

    # ------------------------------------------------------------------
    # service lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return self.call("stats")

    def shutdown(self) -> None:
        """Ask the server to stop, then drop the connection."""
        try:
            self.call("shutdown")
        finally:
            self.close()

    def close(self) -> None:
        self._client.close()
