"""End-to-end service tests: in-process servers plus the CLI roles."""

import asyncio
import json
import os
import pathlib
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, contextmanager, suppress

import pytest

from repro.core.predicates import range_duration
from repro.core.router import ShardedStore
from repro.core.stores import create_store
from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.methods.ist import ISTree
from repro.methods.memory import BruteForceIntervals
from repro.service import protocol
from repro.service.client import RemoteStore, ServiceClient
from repro.service.loadgen import (
    build_dataset,
    build_ops,
    evaluate_ops,
    run_load,
)
from repro.service.ops import INT64_MAX, INT64_MIN
from repro.service.protocol import (
    HEADER,
    MAX_FRAME_BYTES,
    ServiceError,
    encode_frame,
)
from repro.service.server import (
    IntervalService,
    _ReadWriteLock,
    _ShardRelay,
    load_dataset,
)

SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"


@contextmanager
def served(store, **service_kwargs):
    """An IntervalService bound on an ephemeral port in a thread.

    On shutdown the service closes its connections and waits for their
    handlers, so none is pending when ``asyncio.run`` closes the loop.
    """
    service = IntervalService(store, **service_kwargs)
    ready = threading.Event()
    address = {}

    async def runner():
        address["loop"] = asyncio.get_running_loop()
        server = await asyncio.start_server(
            service.handle_client, "127.0.0.1", 0)
        address["host"], address["port"] = (
            server.sockets[0].getsockname()[:2])
        ready.set()
        async with server:
            await service.shutdown_requested.wait()
        await service.close_connections()

    thread = threading.Thread(
        target=lambda: asyncio.run(runner()), daemon=True)
    thread.start()
    assert ready.wait(10), "service failed to start"
    try:
        yield address["host"], address["port"]
    finally:
        with suppress(RuntimeError):  # a shutdown op closed the loop
            address["loop"].call_soon_threadsafe(service.shutdown_requested.set)
        thread.join(10)
        service.close()


@contextmanager
def remote(store, **service_kwargs):
    with served(store, **service_kwargs) as (host, port):
        proxy = RemoteStore.connect(host, port)
        try:
            yield proxy
        finally:
            proxy.close()


def oracle_store(records, now):
    """The brute-force oracle at clock ``now``, loaded with ``records``."""
    oracle = BruteForceIntervals()
    oracle.advance_to(now)
    oracle.bulk_load(records)
    return oracle


def seeded_store(records=(), now=0):
    store = create_store("hint")
    if now:
        store.advance_to(now)
    if records:
        store.bulk_load(records)
    return store


# ----------------------------------------------------------------------
# the RemoteStore contract against a local twin
# ----------------------------------------------------------------------
def test_remote_store_matches_local_store(rng):
    records = []
    for interval_id in range(1, 301):
        lower = rng.randrange(0, 5_000)
        records.append((lower, lower + rng.randrange(0, 200), interval_id))
    local = seeded_store(records)
    with remote(seeded_store(records)) as proxy:
        assert proxy.interval_count == local.interval_count
        assert proxy.index_entry_count == local.index_entry_count
        for lower in (0, 1_000, 2_500, 4_999):
            assert sorted(proxy.stab(lower)) == sorted(local.stab(lower))
            window = (lower, lower + 400)
            assert sorted(proxy.intersection(*window)) == sorted(
                local.intersection(*window))
            assert proxy.intersection_count(*window) == (
                local.intersection_count(*window))
        queries = [(q * 500, q * 500 + 300) for q in range(8)]
        assert [sorted(ids) for ids in proxy.intersection_many(queries)] == [
            sorted(ids) for ids in local.intersection_many(queries)]
        for predicate in ("during", "contains", "overlaps", "before"):
            assert sorted(proxy.query(100, 900, predicate=predicate)) == (
                sorted(local.query(100, 900, predicate=predicate)))
        probes = [(q * 700, q * 700 + 350, q) for q in range(5)]
        assert sorted(proxy.join_pairs(probes)) == sorted(
            local.join_pairs(probes))
        assert proxy.join_count(probes) == local.join_count(probes)
        assert sorted(proxy.stored_records()) == sorted(
            local.stored_records())
        report = proxy.verify()
        assert report.ok
        assert report.backend == local.method_name


def test_remote_store_mutations_roundtrip():
    with remote(seeded_store()) as proxy:
        proxy.insert(5, 9, interval_id=1)
        proxy.append_batch([(7, 12, 2), (20, 30, 3)])
        assert sorted(proxy.intersection(8, 10)) == [1, 2]
        proxy.delete(7, 12, interval_id=2)
        assert sorted(proxy.intersection(8, 10)) == [1]
        assert proxy.interval_count == 2
        assert proxy.method_name == "remote(HINT)"


#: Every backend a served test loads: the disk and sqlite RI-trees and
#: HINT.
SERVED_BACKENDS = ["hint", "ritree", "sql-ritree"]


def served_store(backend):
    """A fresh store of ``backend``; sqlite's connection is opened for
    the service's threads."""
    opts = ({"connection": sqlite3.connect(":memory:", check_same_thread=False)}
            if backend == "sql-ritree" else {})
    return create_store(backend, **opts)


@pytest.mark.parametrize("backend", SERVED_BACKENDS)
def test_remote_append_batch_adds_to_a_non_empty_store(backend):
    """``append_batch`` on a loaded served store inserts, as it does in
    process."""
    loaded = [(1, 4, 1), (3, 9, 2)]
    added = [(5, 12, 3), (2, 2, 4)]
    local = create_store(backend)
    local.bulk_load(loaded)
    local.append_batch(added)
    store = served_store(backend)
    store.bulk_load(loaded)
    with remote(store) as proxy:
        proxy.append_batch(iter(added))
        assert sorted(proxy.stored_records()) == sorted(local.stored_records())
        assert sorted(proxy.intersection(0, 20)) == [1, 2, 3, 4]
        assert proxy.verify().ok


# ----------------------------------------------------------------------
# one batch, one frame: served batches apply whole or not at all
# ----------------------------------------------------------------------
#: More records than a request frame held when batches were chunked.
MANY = 25_000


def many_records(count=MANY):
    return [(i, i + 1 + i % 50, i) for i in range(count)]


def test_remote_batch_is_one_frame():
    records = [(i, i + 4, i) for i in range(8)]
    appended = [(i, i + 2, 100 + i) for i in range(6)]
    with remote(seeded_store(now=50)) as proxy:
        proxy.bulk_load(records)
        proxy.append_batch(appended)
        proxy.append_batch([(40, UPPER_NOW, 200)], closes=[(40, 200, 45)])
        proxy.bulk_load([])
        proxy.append_batch([], closes=[])
        ops = proxy.stats()["ops"]
        assert sorted(proxy.stored_records()) == sorted(
            records + appended + [(40, 45, 200)])
    assert ops["bulk_load"]["count"] == 1  # no frame for the empty batch
    assert ops["ingest_batch"]["count"] == 2


def test_served_bulk_load_stores_a_batch_larger_than_the_old_chunk():
    records = many_records()
    with remote(served_store("ritree")) as proxy:
        proxy.bulk_load(records)
        assert proxy.interval_count == MANY
        assert proxy.intersection_count(0, 2 * MANY) == MANY
        assert proxy.verify().ok


@pytest.mark.parametrize("backend", SERVED_BACKENDS)
def test_served_append_batch_with_a_late_bad_record_writes_nothing(backend):
    records = many_records()
    records[24_000] = (24_000, 23_000, 24_000)  # inverted
    with remote(served_store(backend)) as proxy:
        with pytest.raises(ValueError):
            proxy.append_batch(records)
        assert proxy.interval_count == 0
        assert proxy.stored_records() == []
        assert proxy.verify().ok


def test_a_batch_over_the_frame_limit_is_refused_before_sending(monkeypatch):
    loaded = [(1, 4, 1), (3, 9, 2)]
    with remote(seeded_store(loaded, now=50)) as proxy:
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "MAX_FRAME_BYTES", 4_096)
            for call in (lambda: proxy.bulk_load(many_records(1_000)),
                         lambda: proxy.append_batch(many_records(1_000)),
                         lambda: proxy.append_batch(
                             [], closes=[(i, i, 60) for i in range(1_000)])):
                with pytest.raises(protocol.ProtocolError, match="frame limit"):
                    call()
        ops = proxy.stats()["ops"]
        assert "bulk_load" not in ops and "ingest_batch" not in ops
        assert sorted(proxy.stored_records()) == loaded


@pytest.mark.parametrize("backend", SERVED_BACKENDS)
def test_remote_temporal_entry_points(backend):
    with remote(served_store(backend)) as proxy:
        proxy.advance_to(10)
        proxy.insert(5, UPPER_INF, interval_id=1)
        proxy.insert(8, UPPER_NOW, interval_id=2)
        assert sorted(proxy.intersection(100, 200)) == [1]
        proxy.advance_to(150)
        assert sorted(proxy.intersection(100, 200)) == [1, 2]
        proxy.append_batch([], closes=[(8, 2, 120)])
        assert sorted(proxy.intersection(130, 200)) == [1]
        proxy.delete(5, UPPER_INF, interval_id=1)
        assert proxy.intersection(130, 200) == []
        assert sorted(
            upper for _, upper, _ in proxy.stored_records()) == [120]


def test_sql_ritree_server_closes_and_deletes_temporal_rows():
    store = create_store(
        "sql-ritree", now=10,
        connection=sqlite3.connect(":memory:", check_same_thread=False))
    with remote(store) as proxy:
        proxy.insert(8, UPPER_NOW, interval_id=2)
        proxy.insert(5, UPPER_INF, interval_id=1)
        proxy.advance_to(150)
        proxy.append_batch([], closes=[(8, 2, 120)])
        assert sorted(proxy.intersection(130, 200)) == [1]
        proxy.delete(5, UPPER_INF, interval_id=1)
        with pytest.raises(KeyError):
            proxy.delete(8, UPPER_NOW, interval_id=2)
        assert proxy.stored_records() == [(8, 120, 2)]
        assert proxy.verify().ok


def test_remote_sentinels_bulk_load_through_the_wire():
    with remote(seeded_store(now=50)) as proxy:
        proxy.bulk_load([(10, 20, 1), (5, UPPER_INF, 2), (30, UPPER_NOW, 3)])
        assert sorted(proxy.intersection(40, 60)) == [2, 3]
        assert proxy.intersection_count(40, 60) == 2


# ----------------------------------------------------------------------
# error surface
# ----------------------------------------------------------------------
def test_contract_errors_cross_the_wire():
    with remote(seeded_store()) as proxy:
        with pytest.raises(KeyError):
            proxy.delete(1, 2, interval_id=99)
        with pytest.raises(ValueError):
            proxy.insert(9, 3, interval_id=1)


def test_temporal_op_on_plain_backend_is_not_implemented():
    """A served store without a clock (an access method outside the
    registry) refuses the clock op, raw or through the proxy."""
    with served(ISTree()) as (host, port):
        with ServiceClient(host, port) as client:
            with pytest.raises(NotImplementedError, match="temporal"):
                client.call("advance_to", now=5)
    with remote(ISTree()) as proxy:
        with pytest.raises(NotImplementedError, match="temporal"):
            proxy.advance_to(5)


def test_closures_on_a_plain_backend_are_not_implemented():
    with remote(ISTree()) as proxy:
        proxy.append_batch([], closes=[])  # no frame, nothing to refuse
        with pytest.raises(NotImplementedError, match="temporal"):
            proxy.append_batch([(5, 9, 4)], closes=[(1, 2, 3)])
        assert proxy.interval_count == 0


def test_unknown_op_and_missing_field_are_value_errors():
    with served(seeded_store()) as (host, port):
        with ServiceClient(host, port) as client:
            with pytest.raises(ValueError, match="unknown op"):
                client.call("frobnicate")
            with pytest.raises(ValueError, match="missing field"):
                client.call("insert", lower=1, upper=2)


def test_errors_do_not_poison_the_connection():
    with served(seeded_store()) as (host, port):
        with ServiceClient(host, port) as client:
            with pytest.raises(ValueError):
                client.call("insert", lower=9, upper=3, interval_id=1)
            client.call("insert", lower=3, upper=9, interval_id=1)
            assert client.call("intersection", lower=4, upper=5) == [1]


def _calls_with_bad_integer(bad):
    """``(method, args)`` calls with one integer field replaced by ``bad``."""
    calls = [("stab", (bad,)), ("advance_to", (bad,)),
             ("append_batch", ([], [(3, 60, bad)]))]
    for i in range(3):
        row = tuple(bad if j == i else v for j, v in enumerate((2, 6, 50)))
        calls += [(method, row) for method in ("insert", "delete")]
        calls += [(method, ([row],)) for method in (
            "bulk_load", "append_batch", "join_pairs", "join_count")]
    for i in (0, 2):
        row = tuple(bad if j == i else v
                    for j, v in enumerate((2, UPPER_INF, 50)))
        calls += [(method, row) for method in ("insert", "delete")]
        calls.append(("append_batch", ([row],)))
    for i in range(2):
        window = tuple(bad if j == i else v for j, v in enumerate((1, 8)))
        calls += [(method, window) for method in (
            "intersection", "intersection_count", "query")]
        calls.append(("intersection_many", ([window],)))
        calls.append(("append_batch", ([], [(*window, 9)])))
    return calls


def _assert_wire_refuses(backend, bads, error):
    """Every integer field of every op refuses each of ``bads`` with
    ``error``, leaving the served store untouched."""
    store = served_store(backend)
    store.bulk_load([(1, 4, 1), (3, 9, 2)])
    with remote(store) as proxy:
        before = sorted(proxy.stored_records())
        for bad in bads:
            for method, args in _calls_with_bad_integer(bad):
                with pytest.raises(error):
                    getattr(proxy, method)(*args)
        assert sorted(proxy.stored_records()) == before
        assert proxy.verify().ok


BACKENDS = ["hint", "ritree", "sharded", "sql-ritree"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_wire_refuses_non_integer_fields(backend):
    _assert_wire_refuses(backend, (1.5, "7", True), TypeError)


@pytest.mark.parametrize("backend", BACKENDS)
def test_wire_refuses_integers_outside_int64(backend):
    _assert_wire_refuses(backend, (INT64_MAX + 1, INT64_MIN - 1), ValueError)


def test_int64_edge_ids_and_sentinels_cross_the_wire():
    rows = [(0, 5, INT64_MAX), (-7, 5, INT64_MIN), (2, 3, 4)]
    local = seeded_store(now=10)
    with remote(seeded_store(now=10)) as proxy:
        for store in (local, proxy):
            store.insert(*rows[0])
            store.bulk_load(rows[1:])
            store.append_batch([(5, UPPER_INF, 7), (6, UPPER_NOW, 8)])
        assert sorted(proxy.stab(3)) == [INT64_MIN, 4, INT64_MAX]
        assert sorted(proxy.query(4, 6, predicate="overlaps")) == sorted(
            local.query(4, 6, predicate="overlaps"))
        probes = [(0, 10, INT64_MIN), (4, 40, INT64_MAX)]
        assert sorted(proxy.join_pairs(probes)) == sorted(
            local.join_pairs(probes))
        assert sorted(proxy.stored_records()) == sorted(
            local.stored_records())
        assert {UPPER_INF} <= {up for _, up, _ in proxy.stored_records()}


def test_over_limit_response_fails_the_request_not_the_connection(
        monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 20_000)
    records = [(i, i + 3, i) for i in range(2_000)]
    with served(seeded_store(records)) as (host, port):
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError,
                               match="ProtocolError.*20000-byte frame limit"):
                client.call("stored_records")
            assert client.call("ping") == "pong"
            assert sorted(client.call("stab", value=2)) == [0, 1, 2]


def test_unencodable_response_fails_the_request_not_the_connection():
    store = seeded_store([(1, 5, 1)])
    store.stab = lambda value: [1.5]
    with served(store) as (host, port):
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="ProtocolError"):
                client.call("stab", value=3)
            assert client.call("ping") == "pong"


def test_dataset_file_refuses_non_integers(tmp_path):
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({"records": [[1.7, 3.2, 1]]}))
    with pytest.raises(TypeError):
        load_dataset(str(dataset))
    dataset.write_text(json.dumps({"records": [[1, 3, 1]], "now": "5"}))
    with pytest.raises(TypeError):
        load_dataset(str(dataset))


# ----------------------------------------------------------------------
# service-level ops: ping / stats / shutdown
# ----------------------------------------------------------------------
def test_ping_stats_and_counters():
    with served(seeded_store([(1, 5, 1)])) as (host, port):
        with ServiceClient(host, port) as client:
            assert client.call("ping") == "pong"
            client.call("stab", value=3)
            client.call("stab", value=3)
            with pytest.raises(ValueError):
                client.call("stab")
            stats = client.call("stats")
    assert stats["store"]["method_name"] == "HINT"
    assert stats["store"]["records"] == 1
    assert stats["routing"] is None
    stab = stats["ops"]["stab"]
    assert stab["count"] == 3
    assert stab["errors"] == 1
    assert sum(stab["histogram_le_2e_us"].values()) == 3
    assert stats["connections"]["total"] == 1


def test_shutdown_op_stops_the_server():
    with served(seeded_store()) as (host, port):
        with ServiceClient(host, port) as client:
            assert client.call("shutdown") is True
        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                ServiceClient(host, port).close()
            except OSError:
                break
            time.sleep(0.05)


# ----------------------------------------------------------------------
# the readers-writer lock
# ----------------------------------------------------------------------
def test_rw_lock_try_read_fails_under_writer():
    lock = _ReadWriteLock()
    with lock.write():
        assert lock.try_read() is False
    assert lock.try_read() is True
    lock.release_read()


def test_rw_lock_waiting_writer_blocks_new_readers():
    lock = _ReadWriteLock()
    entered = threading.Event()
    release = threading.Event()

    def reader():
        with lock.read():
            entered.set()
            release.wait(10)

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    assert entered.wait(5)
    writer = threading.Thread(target=lambda: lock.write().__enter__(),
                              daemon=True)
    writer.start()
    deadline = time.time() + 5
    while lock._waiting_writers == 0 and time.time() < deadline:
        time.sleep(0.01)
    assert lock.try_read() is False, "a waiting writer must block readers"
    release.set()
    thread.join(5)


def test_concurrent_readers_and_writers_stay_consistent():
    with served(seeded_store(), max_workers=8) as (host, port):
        errors = []

        def writer(base):
            try:
                with ServiceClient(host, port) as client:
                    for i in range(25):
                        client.call("insert", lower=base + i,
                                    upper=base + i + 10,
                                    interval_id=base + i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            try:
                with ServiceClient(host, port) as client:
                    for _ in range(40):
                        client.call("intersection", lower=0, upper=10_000)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(base,))
                   for base in (1_000, 2_000)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors
        with ServiceClient(host, port) as client:
            assert client.call("info")["records"] == 50


# ----------------------------------------------------------------------
# the router's single-shard byte relay
# ----------------------------------------------------------------------
@contextmanager
def flaky_shard(target):
    """A relay target in front of the shard server at ``target``.

    Its very first request gets a header announcing a frame over the
    limit, followed by a well-formed but wrong response frame for the
    *next* request id; every other request is relayed to ``target``.
    A link reused after the refused header would read that wrong frame.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    refused = []

    def serve(conn):
        with conn, socket.create_connection(target) as upstream:
            down, up = conn.makefile("rb"), upstream.makefile("rb")
            while len(header := down.read(HEADER.size)) == HEADER.size:
                payload = down.read(HEADER.unpack(header)[0])
                if not refused:
                    refused.append(payload)
                    wrong = encode_frame({
                        "id": json.loads(payload)["id"] + 1, "ok": True,
                        "result": [-1], "width": 1})
                    conn.sendall(HEADER.pack(MAX_FRAME_BYTES + 1) + wrong)
                    continue
                upstream.sendall(header + payload)
                head = up.read(HEADER.size)
                conn.sendall(head + up.read(HEADER.unpack(head)[0]))

    def accept():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            threading.Thread(target=serve, args=(conn,), daemon=True).start()

    threading.Thread(target=accept, daemon=True).start()
    try:
        yield listener.getsockname()[:2]
    finally:
        listener.close()


def test_relay_drops_its_link_after_an_over_limit_header():
    records = [(10, 20, 1), (15, 30, 2), (150, 160, 3)]
    with ExitStack() as stack:
        shards = [stack.enter_context(served(seeded_store()))
                  for _ in range(2)]
        proxies = [RemoteStore.connect(*address) for address in shards]
        for proxy in proxies:
            stack.callback(proxy.close)
        router = ShardedStore(proxies, [100])
        router.bulk_load(records)
        relay_targets = [stack.enter_context(flaky_shard(shards[0])),
                         shards[1]]
        host, port = stack.enter_context(served(
            router, inline_reads=False, relay_targets=relay_targets))
        with ServiceClient(host, port) as client:
            # Refused by the relay, answered by the proxies instead.
            assert sorted(client.call("stab", value=17)) == [1, 2]
            # Relayed over a fresh link, not the one left mid-frame.
            assert sorted(client.call("stab", value=17)) == [1, 2]
            assert client.call("intersection", lower=0, upper=12) == [1]


def test_relay_drops_its_link_when_cancelled():
    async def scenario():
        release = asyncio.Event()

        async def silent(reader, writer):
            try:
                await release.wait()
            finally:
                writer.close()

        server = await asyncio.start_server(silent, "127.0.0.1", 0)
        relay = _ShardRelay([server.sockets[0].getsockname()[:2]])
        request = b'{"id":1,"op":"stab","value":3}'
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(relay.forward(0, request), 0.2)
        assert relay._links == {}
        release.set()
        await relay.close()
        server.close()
        await server.wait_closed()

    asyncio.run(asyncio.wait_for(scenario(), 10))


# ----------------------------------------------------------------------
# the CLI roles: shard server and router server
# ----------------------------------------------------------------------
def spawn_cli(tmp_path, records, now, extra):
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({"records": records, "now": now}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0",
         "--dataset", str(dataset)] + extra,
        stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline().strip()
    assert line.startswith("LISTENING "), line
    _, host, port = line.split()
    return proc, host, int(port)


@pytest.mark.parametrize("shards", [1, 2])
def test_cli_roles_match_the_local_oracle(tmp_path, shards):
    records, now = build_dataset(seed=5, n=400, domain=8_000, max_len=300)
    ops = build_ops(seed=6, count=150, domain=8_000, max_len=300, now=now)
    expected = evaluate_ops(oracle_store(records, now), ops)
    proc, host, port = spawn_cli(
        tmp_path, records, now, ["--shards", str(shards)])
    try:
        result = run_load(host, port, ops, concurrency=4)
        assert result.results == expected
        assert result.ops == len(ops)
        assert set(result.classes) <= set(
            op["cls"] for op in ops)
        with ServiceClient(host, port) as client:
            stats = client.call("stats")
            client.call("shutdown")
        if shards == 1:
            assert stats["routing"] is None
        else:
            routing = stats["routing"]
            assert routing["shard_count"] == shards
            assert routing["records"] == len(records)
            # The relay path must feed the per-shard query counters.
            assert sum(s["queries"] for s in routing["shards"]) > 0
    finally:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            raise


@pytest.mark.parametrize("backend", ["ritree", "sql-ritree"])
def test_single_backend_cli_loads_sentinel_rows(tmp_path, backend):
    records, now = build_dataset(seed=8, n=300, domain=8_000, max_len=300)
    assert {UPPER_INF, UPPER_NOW} <= {upper for _, upper, _ in records}
    ops = build_ops(seed=9, count=120, domain=8_000, max_len=300, now=now)
    expected = evaluate_ops(oracle_store(records, now), ops)
    proc, host, port = spawn_cli(tmp_path, records, now,
                                 ["--backend", backend])
    try:
        assert run_load(host, port, ops, concurrency=2).results == expected
        with ServiceClient(host, port) as client:
            assert client.call("info")["records"] == len(records)
            client.call("shutdown")
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            raise


def test_router_cli_serves_writes_and_temporal_rows(tmp_path):
    records = [(100, 900, 1), (950, 1_050, 2), (1_500, 2_400, 3),
               (2_500, 3_500, 4)]
    proc, host, port = spawn_cli(
        tmp_path, records, 0, ["--shards", "2", "--now", "60"])
    try:
        proxy = RemoteStore.connect(host, port)
        assert proxy.method_name.startswith("remote(sharded[2]")
        proxy.insert(900, 1_600, interval_id=5)
        proxy.insert(40, UPPER_NOW, interval_id=6)
        assert sorted(proxy.intersection(0, 4_000)) == [1, 2, 3, 4, 5, 6]
        assert proxy.intersection_count(0, 4_000) == 6
        proxy.advance_to(2_000)
        assert sorted(proxy.stab(1_990)) == [3, 6]
        report = proxy.verify()
        assert report.ok, report.issues
        proxy.shutdown()
    finally:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            raise


def test_query_families_travel_the_wire():
    records = [(i * 40, i * 40 + (15 if i % 3 else 700), i) for i in range(120)]
    local = seeded_store(records)
    with remote(seeded_store(records)) as proxy:
        for dmin, dmax in [(0, 30), (100, 900), (400, None)]:
            pred = range_duration(dmin, dmax)
            assert sorted(proxy.query(0, 5_000, predicate=pred)) == sorted(
                local.query(0, 5_000, predicate=pred)
            )
        # The parameter bundle rides the join ops too.
        probes = [(q * 350, q * 350 + 200, q) for q in range(6)]
        pred = range_duration(0, 100)
        assert sorted(proxy.join_pairs(probes, predicate=pred)) == sorted(
            local.join_pairs(probes, predicate=pred)
        )
        assert proxy.join_count(probes, predicate=pred) == local.join_count(
            probes, predicate=pred
        )


def test_sharded_service_routes_family_queries():
    records = [(i * 25, i * 25 + 60 + i % 5, i) for i in range(200)]
    local = create_store("sharded", backend="hint", cuts=[2_000, 4_000])
    local.bulk_load(records)
    mirror = create_store("sharded", backend="hint", cuts=[2_000, 4_000])
    mirror.bulk_load(records)
    with remote(mirror) as proxy:
        pred = range_duration(50, 70)
        assert sorted(proxy.query(0, 6_000, predicate=pred)) == sorted(
            local.query(0, 6_000, predicate=pred)
        )
        routing = proxy.stats()["routing"]
        assert sum(s["predicate_queries"] for s in routing["shards"]) >= 1
