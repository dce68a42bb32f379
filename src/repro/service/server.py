"""The asyncio interval query service.

:class:`IntervalService` fronts any :class:`~repro.core.access.
IntervalStore` with the frame protocol of :mod:`repro.service.protocol`,
exposing the full query surface -- updates, stabs and intersections,
Allen-predicate ``query``, ``join_count``/``join_pairs``, temporal rows
and the clock -- plus ``stats`` (request counters, latency
histograms, and the router's shard routing stats) and a cooperative
``shutdown``.  Every store op is one entry of the wire-op table in
:mod:`repro.service.ops`; the service itself answers only ``info``,
``ping``, ``stats`` and ``shutdown``.

Store calls run under a readers-writer lock: queries share the store,
mutations get it exclusively.  Writes always go through a thread pool;
reads take an inline fast path on the event loop when the lock is
uncontended (``inline_reads``, the single-backend role) and fall back
to the pool under write pressure, so one slow mutation never stalls
frame handling.

Topology (the ``python -m repro.service`` CLI)
----------------------------------------------
* ``--shards 1`` (default) serves one backend built by
  :func:`~repro.core.stores.create_store` -- this is also the *shard
  server* role.
* ``--shards K`` spawns ``K`` shard-server subprocesses and serves a
  :class:`~repro.core.router.ShardedStore` whose shards are
  :class:`~repro.service.client.RemoteStore` proxies, cut points derived
  from the dataset's :class:`~repro.core.costmodel.BoundSummary`
  histogram.  All routing, replication and first-occurrence
  deduplication logic is the router's own -- the service adds processes,
  not semantics.  Each shard process evaluates on its own interpreter
  (its own GIL), so work scales across cores in two ways: one
  multi-shard request is scattered (the router writes every touched
  shard's request frame through :meth:`~repro.core.access.
  IntervalStore.submit` before it reads any response, so the shards
  evaluate it in parallel), and concurrent requests run on the router's
  thread pool, whose proxies release the GIL during socket waits.
  Single-shard reads (stabs, and intersections whose window fits one
  slice) additionally skip the proxies: the router relays the raw
  request frame to the owning shard server and streams the response
  frame back byte for byte (see
  :meth:`IntervalService._fast_shard` for why that is exact), still
  under the service read lock, so relayed reads observe every completed
  router-level write.

Either role prints ``LISTENING <host> <port>`` on stdout once bound, so
supervisors (the load driver, the bench harness, tests) can spawn on
port 0 and discover the ephemeral port.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..core.access import IntervalStore
from ..core.costmodel import BoundSummary
from .ops import OPS, integer
from .ops import records as wire_records
from .protocol import (
    HEADER,
    ProtocolError,
    _check_length,
    decode_payload,
    encode_frame,
    error_response,
    read_raw_frame_async,
    write_frame_async,
)

#: Default worker-thread count: enough that a deep client pipeline keeps
#: every shard busy; idle threads cost almost nothing.
DEFAULT_WORKERS = 16


class _ReadWriteLock:
    """Readers share, writers exclude, waiting writers block new readers
    (no writer starvation under a steady query stream)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._waiting_writers = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._waiting_writers:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            self.release_read()

    def try_read(self) -> bool:
        """Non-blocking read acquisition (the inline fast path)."""
        with self._cond:
            if self._writer or self._waiting_writers:
                return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._waiting_writers += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._waiting_writers -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class _ShardRelay:
    """Per-client-connection raw-frame links to the shard servers.

    The router's fast path for single-shard reads: the client's frame
    is forwarded verbatim to the owning shard server (same correlation
    id, so no re-framing) and the shard's response frame is relayed
    byte for byte -- the result payload is never decoded in the
    router process.  One lazily-opened connection per shard per client
    connection; frames on it are strictly request/response (the client
    handler is sequential), so no multiplexing is needed.
    """

    def __init__(self, targets: Sequence[tuple[str, int]]) -> None:
        self._targets = targets
        self._links: dict[int, tuple] = {}

    async def forward(self, shard: int, payload: bytes) -> bytes:
        link = self._links.get(shard)
        if link is None:
            host, port = self._targets[shard]
            link = await asyncio.open_connection(host, port)
            self._links[shard] = link
        reader, writer = link
        try:
            writer.write(HEADER.pack(len(payload)) + payload)
            await writer.drain()
            header = await reader.readexactly(HEADER.size)
            (length,) = HEADER.unpack(header)
            _check_length(length)
            return header + await reader.readexactly(length)
        except BaseException:
            # A failed exchange may leave a request or response half on
            # the link (an over-limit header's payload stays unread), so
            # the link is never reused, also after a cancellation; the
            # caller retries on the slow path through the store's own
            # proxies.
            self._links.pop(shard, None)
            writer.close()
            raise

    async def close(self) -> None:
        for _, writer in self._links.values():
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._links.clear()


class ServiceStats:
    """Per-op request counters and log2 latency histograms.

    Latencies land in power-of-two microsecond buckets (bucket ``b``
    holds requests under ``2**b`` microseconds), cheap enough to record
    on every request and faithful enough for the ``stats`` op's service
    picture; exact client-side percentiles come from the load driver.
    Counters are best-effort under concurrent readers (increments may
    race); they are observability, not accounting.
    """

    def __init__(self) -> None:
        self.started = time.time()
        self.connections_total = 0
        self.connections_active = 0
        self._ops: dict[str, dict] = {}

    def record(self, op: str, elapsed: float, ok: bool) -> None:
        entry = self._ops.get(op)
        if entry is None:
            entry = self._ops[op] = {
                "count": 0, "errors": 0, "total_us": 0, "histogram": {}}
        entry["count"] += 1
        if not ok:
            entry["errors"] += 1
        micros = int(elapsed * 1e6)
        entry["total_us"] += micros
        bucket = micros.bit_length()
        histogram = entry["histogram"]
        histogram[bucket] = histogram.get(bucket, 0) + 1

    def snapshot(self) -> dict:
        return {
            "uptime_s": round(time.time() - self.started, 3),
            "connections": {
                "total": self.connections_total,
                "active": self.connections_active,
            },
            "ops": {
                op: {
                    "count": e["count"],
                    "errors": e["errors"],
                    "total_us": e["total_us"],
                    "histogram_le_2e_us": {
                        str(b): n for b, n in sorted(e["histogram"].items())
                    },
                }
                for op, e in sorted(self._ops.items())
            },
        }


def _info(store: IntervalStore, message: dict) -> dict:
    return {
        "method_name": store.method_name,
        "records": store.interval_count,
        "index_entries": store.index_entry_count,
        "now": getattr(store, "now", None),
    }


class IntervalService:
    """One served store: frame handling, dispatch, stats, lifecycle."""

    def __init__(self, store: IntervalStore,
                 max_workers: int = DEFAULT_WORKERS,
                 inline_reads: bool = True,
                 relay_targets: Optional[Sequence[tuple[str, int]]] = None,
                 ) -> None:
        self.store = store
        self.stats = ServiceStats()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="store")
        self._lock = _ReadWriteLock()
        # Read ops may run directly on the event loop (store calls are
        # non-blocking and the shard is one unit of capacity anyway),
        # saving two thread handoffs per request.  Must be OFF when the
        # store itself does socket I/O -- the router over RemoteStore
        # shards -- or the loop would block on remote round trips.
        self._inline_reads = inline_reads
        # Router role only: shard-server addresses, index-aligned with
        # ``store.shards``, enabling the single-shard byte relay.
        self._relay_targets = (list(relay_targets)
                               if relay_targets is not None
                               and hasattr(store, "_shard_of") else None)
        self.shutdown_requested = asyncio.Event()
        #: Open connection -> its handler task, for :meth:`close_connections`.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}

    async def handle_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """One connection: sequential request/response frames."""
        self._connections[writer] = asyncio.current_task()
        self.stats.connections_total += 1
        self.stats.connections_active += 1
        relay = (_ShardRelay(self._relay_targets)
                 if self._relay_targets else None)
        try:
            while True:
                try:
                    payload = await read_raw_frame_async(reader)
                    message = (None if payload is None
                               else decode_payload(payload))
                except ProtocolError as exc:
                    await write_frame_async(writer, error_response(None, exc))
                    break
                if message is None:
                    break
                if relay is not None:
                    shard = self._fast_shard(message)
                    if shard is not None and await self._relay_request(
                            relay, shard, payload, message, writer):
                        if self.shutdown_requested.is_set():
                            break
                        continue
                response = await self.dispatch(message)
                try:
                    frame = encode_frame(response)
                except ProtocolError as exc:
                    # An over-limit or unencodable result fails its
                    # request, not the connection.
                    frame = encode_frame(error_response(response["id"], exc))
                writer.write(frame)
                await writer.drain()
                if self.shutdown_requested.is_set():
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.stats.connections_active -= 1
            if relay is not None:
                await relay.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            del self._connections[writer]

    async def close_connections(self) -> None:
        """Close every open connection and wait for its handler, which
        reads a clean end of stream and returns: run at shutdown, so the
        loop never closes with a handler still pending."""
        for writer in self._connections:
            writer.close()
        await asyncio.gather(*self._connections.values(),
                             return_exceptions=True)

    def _fast_shard(self, message: dict) -> Optional[int]:
        """Shard index when this request can be relayed verbatim.

        A stab or an intersection whose window lies inside one slice
        touches only that shard; the clip of such a window to the slice
        is the window itself, and the first (here: only) touched shard
        reports without replica stripping -- so the shard server's raw
        response frame *is* the router's answer, byte for byte.
        """
        op = message.get("op")
        if op == "stab":
            lower = upper = message.get("value")
        elif op in ("intersection", "intersection_count"):
            lower = message.get("lower")
            upper = message.get("upper")
        else:
            return None
        if not (isinstance(lower, int) and isinstance(upper, int)):
            return None
        if lower > upper:
            return None  # the slow path raises the contract ValueError
        shard = self.store._shard_of(lower)
        return shard if shard == self.store._shard_of(upper) else None

    async def _relay_request(self, relay: _ShardRelay, shard: int,
                             payload: bytes, message: dict,
                             writer: asyncio.StreamWriter) -> bool:
        """Try the byte relay; ``False`` falls back to the slow path.

        Holds the service read lock across the shard round trip, so
        relayed reads still exclude router-level mutations (a write in
        progress, or waiting, routes the request through the executor
        like any other).  The fast path records latency but not remote
        errors (the shard's error frame relays undecoded).
        """
        if not self._lock.try_read():
            return False
        started = time.perf_counter()
        try:
            response = await relay.forward(shard, payload)
        except (OSError, ProtocolError, asyncio.IncompleteReadError):
            return False
        finally:
            self._lock.release_read()
        writer.write(response)
        await writer.drain()
        self.store._stat_queries[shard] += 1
        self.stats.record(
            str(message.get("op")), time.perf_counter() - started, True)
        return True

    async def dispatch(self, message: dict) -> dict:
        """Route one request message to its handler; never raises."""
        op = message.get("op")
        request_id = message.get("id")
        started = time.perf_counter()
        ok = True
        spec = None
        try:
            if op == "ping":
                result = "pong"
            elif op == "stats":
                result = self._stats_result()
            elif op == "shutdown":
                self.shutdown_requested.set()
                result = True
            else:
                # Store ops come from the wire-op table; ``info`` reads
                # the store under the read lock like any of them.
                spec = OPS.get(op)
                if spec is None and op != "info":
                    raise ValueError(
                        f"unknown op {op!r}; expected one of "
                        f"{sorted([*OPS, 'info', 'ping', 'stats', 'shutdown'])}")
                writes = spec is not None and spec.mutates
                handler = _info if spec is None else spec.run
                if (not writes and self._inline_reads
                        and self._lock.try_read()):
                    try:
                        result = handler(self.store, message)
                    finally:
                        self._lock.release_read()
                else:
                    result = await asyncio.get_running_loop() \
                        .run_in_executor(self._pool, self._execute,
                                         writes, handler, message)
            response = {"id": request_id, "ok": True, "result": result}
            if spec is not None and spec.width:
                response["width"] = spec.width
        except Exception as exc:  # noqa: BLE001 - every failure becomes a frame
            ok = False
            response = error_response(request_id, exc)
        self.stats.record(str(op), time.perf_counter() - started, ok)
        return response

    def _execute(self, writes: bool, handler: Callable, params: dict):
        guard = self._lock.write if writes else self._lock.read
        with guard():
            return handler(self.store, params)

    def _stats_result(self) -> dict:
        result = self.stats.snapshot()
        result["store"] = {
            "method_name": self.store.method_name,
            "records": self.store.interval_count,
        }
        routing = getattr(self.store, "routing_stats", None)
        result["routing"] = routing() if callable(routing) else None
        return result

    def close(self) -> None:
        self._pool.shutdown(wait=False)


# ----------------------------------------------------------------------
# CLI: shard server / router server
# ----------------------------------------------------------------------
def load_dataset(path: str) -> tuple[list[tuple[int, int, int]], int]:
    """Read a dataset file: ``{"records": [[l, u, id], ...], "now": N}``."""
    data = json.loads(Path(path).read_text())
    return wire_records(data.get("records", [])), integer(data.get("now", 0))


def _build_single(args, records: Sequence[tuple[int, int, int]],
                  now: int):
    """One backend holding ``records``, Section 4.6 rows included."""
    from ..core.stores import create_store

    store = create_store(args.backend, **json.loads(args.backend_opts))
    if now:
        store.advance_to(now)
    if records:
        store.bulk_load(records)
    return store, lambda: None


def _build_router(args, records: Sequence[tuple[int, int, int]],
                  now: int):
    import subprocess

    from ..core.router import ShardedStore, derive_cuts
    from .client import RemoteStore

    if args.cuts:
        cuts = [int(c) for c in args.cuts.split(",")]
    elif records:
        cuts = derive_cuts(
            BoundSummary.from_records(records, buckets=64), args.shards)
    else:
        raise SystemExit(
            "--shards > 1 needs --dataset (to derive cuts) or --cuts")
    procs: list[subprocess.Popen] = []
    proxies: list[RemoteStore] = []

    def cleanup() -> None:
        for proxy in proxies:
            try:
                proxy.shutdown()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()

    try:
        for _ in range(len(cuts) + 1):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro.service",
                 "--host", args.host, "--port", "0",
                 "--backend", args.backend,
                 "--backend-opts", args.backend_opts,
                 "--workers", "4"],
                stdout=subprocess.PIPE, text=True))
        for proc in procs:
            line = proc.stdout.readline().strip()
            if not line.startswith("LISTENING "):
                raise SystemExit(f"shard server failed to start: {line!r}")
            _, host, port = line.split()
            proxies.append(RemoteStore.connect(host, int(port)))
        router = ShardedStore(proxies, cuts)
        if now:
            router.advance_to(now)
        if records:
            router.bulk_load(records)
    except BaseException:
        cleanup()
        for proc in procs:
            proc.kill()
        raise
    return router, cleanup


async def _serve(args) -> int:
    records, dataset_now = ([], 0)
    if args.dataset:
        records, dataset_now = load_dataset(args.dataset)
    now = args.now if args.now is not None else dataset_now
    build = _build_router if args.shards > 1 else _build_single
    store, cleanup = build(args, records, now)
    relay_targets = ([shard.address for shard in store.shards]
                     if args.shards > 1 else None)
    service = IntervalService(store, max_workers=args.workers,
                              inline_reads=args.shards == 1,
                              relay_targets=relay_targets)
    server = await asyncio.start_server(
        service.handle_client, args.host, args.port)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"LISTENING {host} {port}", flush=True)
    try:
        await service.shutdown_requested.wait()
    finally:
        server.close()
        await service.close_connections()
        await server.wait_closed()
        service.close()
        cleanup()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve an interval store over the frame protocol")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 binds an ephemeral port (printed on stdout)")
    parser.add_argument("--backend", default="hint",
                        help="registered backend name (see available_backends)")
    parser.add_argument("--backend-opts", default="{}",
                        help="JSON dict of factory options per shard")
    parser.add_argument("--shards", type=int, default=1,
                        help="> 1 spawns shard subprocesses behind a router")
    parser.add_argument("--cuts", default="",
                        help="comma-separated split points (default: derived "
                             "from the dataset histogram)")
    parser.add_argument("--dataset", default="",
                        help="JSON dataset to bulk-load before serving")
    parser.add_argument("--now", type=int, default=None,
                        help="initial clock (default: the dataset's)")
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
