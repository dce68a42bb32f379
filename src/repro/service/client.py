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
RPC (bulk loads chunked), the router's fan-out methods also have a
``submit`` form that returns before the response arrives, contract
exceptions round-trip by type, and temporal entry points appear *only
when the remote backend has them* --
``hasattr(remote, "insert_infinite")`` answers like the local store
would, so :class:`~repro.core.router.ShardedStore` can front remote
shards with unchanged temporal guards.
"""

from __future__ import annotations

import socket
import threading
from functools import partial
from types import MethodType
from typing import Any, Callable, Iterable, Optional, Sequence

from ..core.access import IntervalRecord, IntervalStore
from ..core.temporal import resolve_clock_argument
from ..core.verify import VerificationReport
from .protocol import (
    ProtocolError,
    ServiceError,
    raise_for_response,
    read_frame,
    write_frame,
)

#: Records per bulk_load frame -- keeps frames around a megabyte.
BULK_CHUNK = 20_000


def _wire_predicate(predicate) -> dict:
    """A predicate's wire form: ``predicate`` name plus family params.

    Classic relations travel by name; a compiled query family
    (:class:`~repro.core.predicates.CompiledQuery`) travels as its
    ``family_name`` with the parameter bundle in a ``params`` field, so
    the server can rebuild the compiled predicate with
    :func:`~repro.core.predicates.compile_query`.
    """
    family = getattr(predicate, "family_name", "")
    if family:
        return {"predicate": family,
                "params": dict(getattr(predicate, "param_dict", {}))}
    return {"predicate": getattr(predicate, "name", predicate)}


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


# Temporal forwards, attached through __getattr__ so that a RemoteStore
# over a non-temporal backend fails hasattr() like the local store does.
def _rpc_insert_infinite(self, lower: int, interval_id: int) -> None:
    self.call("insert_infinite", lower=lower, interval_id=interval_id)


def _rpc_insert_until_now(self, lower: int, interval_id: int) -> None:
    self.call("insert_until_now", lower=lower, interval_id=interval_id)


def _rpc_delete_infinite(self, lower: int, interval_id: int) -> None:
    self.call("delete_infinite", lower=lower, interval_id=interval_id)


def _rpc_delete_until_now(self, lower: int, interval_id: int) -> None:
    self.call("delete_until_now", lower=lower, interval_id=interval_id)


def _rpc_close_now_interval(self, lower: int, interval_id: int,
                            upper: int) -> None:
    self.call("close_now_interval", lower=lower, interval_id=interval_id, upper=upper)


def _rpc_advance_to(self, now: Optional[int] = None, *,
                    timestamp: Optional[int] = None) -> None:
    self._send_advance_to(now, timestamp=timestamp)()


_TEMPORAL_FORWARDS = {
    "insert_infinite": _rpc_insert_infinite,
    "insert_until_now": _rpc_insert_until_now,
    "delete_infinite": _rpc_delete_infinite,
    "delete_until_now": _rpc_delete_until_now,
    "close_now_interval": _rpc_close_now_interval,
    "advance_to": _rpc_advance_to,
}


class RemoteStore(IntervalStore):
    """A served store, driven through the ``IntervalStore`` contract."""

    def __init__(self, client: ServiceClient) -> None:
        self._client = client
        info = client.call("info")
        self.method_name = f"remote({info['method_name']})"
        self._temporal = bool(info["temporal"])

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
        """Write ``method``'s request frame now; the returned callable
        reads the response.

        The scatter half of the router's fan-out: the connection stays
        locked until the callable has run (see
        :meth:`ServiceClient.send`).  Methods without a ``_send_*`` form
        run eagerly through the base default.
        """
        send = getattr(self, f"_send_{method}", None)
        if send is None:
            return super().submit(method, *args, **kwargs)
        return send(*args, **kwargs)

    def __getattr__(self, name: str):
        forward = _TEMPORAL_FORWARDS.get(name)
        if forward is not None and self.__dict__.get("_temporal"):
            return MethodType(forward, self)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        self.call("insert", lower=lower, upper=upper, interval_id=interval_id)

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        self.call("delete", lower=lower, upper=upper, interval_id=interval_id)

    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        self._send_bulk_load(intervals)()

    def _send_bulk_load(self, intervals):
        return self._send_chunked("bulk_load", intervals)

    def append_batch(self, intervals: Sequence[IntervalRecord]) -> None:
        """Forward a streaming append batch as ``ingest_batch`` frames.

        Each frame is one writer-lock acquisition (and one group commit
        on WAL-backed backends) server-side; oversized batches chunk at
        the same frame bound as :meth:`bulk_load`.
        """
        self._send_append_batch(intervals)()

    def _send_append_batch(self, intervals):
        return self._send_chunked("ingest_batch", intervals)

    def _send_chunked(self, op: str, intervals):
        """Every chunk but the last as a round trip, the last one sent."""
        intervals = list(intervals)
        if not intervals:
            return lambda: None
        last = (len(intervals) - 1) // BULK_CHUNK * BULK_CHUNK
        for start in range(0, last, BULK_CHUNK):
            self.call(op, records=intervals[start:start + BULK_CHUNK])
        return self._client.send(op, records=intervals[last:])

    def extend(self, intervals: Iterable[IntervalRecord]) -> None:
        self.bulk_load(list(intervals))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def intersection(self, lower: int, upper: int) -> list[int]:
        return self._send_intersection(lower, upper)()

    def _send_intersection(self, lower, upper):
        return self._client.send("intersection", lower=lower, upper=upper)

    def intersection_count(self, lower: int, upper: int) -> int:
        return self._send_intersection_count(lower, upper)()

    def _send_intersection_count(self, lower, upper):
        return self._client.send(
            "intersection_count", lower=lower, upper=upper)

    def intersection_many(
        self, queries: Sequence[tuple[int, int]]
    ) -> list[list[int]]:
        return self.call("intersection_many", queries=list(queries))

    def stab(self, point: int) -> list[int]:
        return self.call("stab", value=point)

    def query(self, lower, upper=None, *, predicate="intersects"):
        return self._send_query(lower, upper, predicate=predicate)()

    def _send_query(self, lower, upper=None, *, predicate="intersects"):
        return self._client.send("query", lower=lower, upper=upper,
                                 **_wire_predicate(predicate))

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def join_pairs(self, probes: Sequence[IntervalRecord], *,
                   predicate=None) -> list[tuple[int, int]]:
        return self._send_join_pairs(probes, predicate=predicate)()

    def _send_join_pairs(self, probes, *, predicate=None):
        receive = self._client.send("join_pairs", probes=list(probes),
                                    **_wire_predicate(predicate))
        return lambda: [(probe_id, interval_id)
                        for probe_id, interval_id in receive()]

    def join_count(self, probes: Sequence[IntervalRecord], *,
                   predicate=None) -> int:
        return self._send_join_count(probes, predicate=predicate)()

    def _send_join_count(self, probes, *, predicate=None):
        return self._client.send("join_count", probes=list(probes),
                                 **_wire_predicate(predicate))

    # ------------------------------------------------------------------
    # enumeration / verification / accounting
    # ------------------------------------------------------------------
    def stored_records(self) -> list[IntervalRecord]:
        return self._send_stored_records()()

    def _send_stored_records(self):
        receive = self._client.send("stored_records")
        return lambda: [(lower, upper, interval_id)
                        for lower, upper, interval_id in receive()]

    def verify(self) -> VerificationReport:
        """The *served* store's own verification, rebuilt client-side."""
        return self._send_verify()()

    def _send_verify(self):
        receive = self._client.send("verify")

        def report() -> VerificationReport:
            data = receive()
            rebuilt = VerificationReport(
                store=data["store"], backend=data["backend"])
            for check in data["checks"]:
                rebuilt.add_check(check)
            for issue in data["issues"]:
                rebuilt.add_issue(issue["code"], issue["message"],
                                  issue.get("context"))
            return rebuilt

        return report

    def _send_advance_to(self, now: Optional[int] = None, *,
                         timestamp: Optional[int] = None):
        return self._client.send(
            "advance_to", now=resolve_clock_argument(now, timestamp))

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
