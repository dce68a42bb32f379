"""An interval store behind a socket: serve it, query it remotely.

Starts the asyncio serving layer in-process over a HINT store built by
the backend registry, connects a ``RemoteStore`` to it, and shows that
the full store contract -- intersections, predicate queries, joins,
temporal ``now``-rows, verification -- answers identically through the
wire, then reads the service's observability surface (``stats``).

Run:  python examples/interval_service.py
"""

import asyncio
import random
import threading

from repro.core.stores import available_backends, create_store
from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.service.client import RemoteStore, ServiceClient
from repro.service.server import IntervalService


def serve_in_thread(service):
    """Bind the service on an ephemeral port; return (host, port, loop)."""
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    address = {}

    async def runner():
        server = await asyncio.start_server(service.handle_client, "127.0.0.1", 0)
        address["host"], address["port"] = server.sockets[0].getsockname()[:2]
        ready.set()
        async with server:
            await service.shutdown_requested.wait()

    thread = threading.Thread(
        target=lambda: loop.run_until_complete(runner()), daemon=True
    )
    thread.start()
    assert ready.wait(10), "service failed to start"
    return address["host"], address["port"], loop, thread


def main() -> None:
    rng = random.Random(11)
    records = [
        (lower, lower + rng.randrange(1, 500), interval_id)
        for interval_id, lower in enumerate(
            rng.randrange(0, 30_000) for _ in range(400)
        )
    ]

    # Every backend the registry knows could sit behind this socket.
    print("registered backends:", ", ".join(available_backends()))
    store = create_store("hint", now=5_000)
    local = create_store("hint", now=5_000)
    for target in (store, local):
        target.bulk_load(records)

    service = IntervalService(store)
    host, port, loop, thread = serve_in_thread(service)
    print(f"serving {store.method_name} on {host}:{port}")

    remote = RemoteStore.connect(host, port)
    try:
        # The remote proxy speaks the whole IntervalStore contract.
        window = remote.intersection(4_000, 6_000)
        assert sorted(window) == sorted(local.intersection(4_000, 6_000))
        count = remote.intersection_count(0, 30_000)
        assert count == local.intersection_count(0, 30_000)
        during = remote.query(2_000, 9_000, predicate="during")
        assert sorted(during) == sorted(local.query(2_000, 9_000, predicate="during"))
        probes = [(q * 4_000, q * 4_000 + 2_500, 900 + q) for q in range(6)]
        assert sorted(remote.join_pairs(probes)) == sorted(local.join_pairs(probes))
        print(
            f"remote twin agrees: {remote.intersection_count(0, 30_000)} "
            f"intervals match on every query form"
        )

        # Mutations travel too.  Temporal rows are plain records whose
        # sentinel upper marks [l, oo) or [l, now]: they ride the same
        # insert and ingest_batch frames, sentinels intact.
        for target in (remote, local):
            target.insert(100, 200, 10_000)
            target.insert(6_000, UPPER_INF, 10_001)
            target.advance_to(7_500)
            target.append_batch([(7_000, UPPER_NOW, 10_002)])
        open_rows = remote.intersection(6_500, UPPER_INF)
        assert sorted(open_rows) == sorted(local.intersection(6_500, UPPER_INF))
        assert {10_001, 10_002} <= set(remote.stab(7_500))
        assert remote.verify().ok
        clock = remote.call("info")["now"]
        print(f"after mutations: clock {clock}, verify ok")
    finally:
        remote.close()

    # The observability surface: counters + latency histograms per op.
    with ServiceClient(host, port) as client:
        stats = client.call("stats")
        served_ops = {op: row["count"] for op, row in sorted(stats["ops"].items())}
        print("ops served:", served_ops)
        assert served_ops["intersection"] >= 2
        client.call("shutdown")
    thread.join(10)
    service.close()
    print("OK")


if __name__ == "__main__":
    main()
