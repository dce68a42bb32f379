"""The router's scatter-gather fan-out over served shards.

Every multi-shard call writes its request to each touched shard, in
ascending shard order, before it reads any response; every submitted
call is drained, also when one shard answers with an error frame; and
concurrent callers holding several shard connections cannot deadlock.
"""

import subprocess
import threading
import time
from contextlib import ExitStack

import pytest

from repro.core.hint import HintStore
from repro.core.router import ShardedStore
from repro.core.stores import create_store
from repro.core.temporal import UPPER_INF
from repro.methods.memory import BruteForceIntervals
from repro.service.client import RemoteStore, ServiceClient
from repro.service.loadgen import build_dataset, build_ops, canonical, evaluate_ops

from .test_service import served, spawn_cli

CUT = 1_000
RECORDS = [(i * 37 % 2_000, i * 37 % 2_000 + 20 + i % 150, i) for i in range(300)]
RECORDS += [(990, 1_020, 300), (1_500, UPPER_INF, 301), (400, UPPER_INF, 302)]


class RecordingClient(ServiceClient):
    """Logs every request written and every response read, per shard."""

    def __init__(self, host, port, shard, log):
        super().__init__(host, port)
        self.shard = shard
        self.log = log

    def send(self, op, **params):
        receive = super().send(op, **params)
        self.log.append(("send", self.shard, op))

        def recorded():
            self.log.append(("recv", self.shard, op))
            return receive()

        return recorded


class FailingHint(HintStore):
    """A HINT store whose next ``intersection`` raises a contract error."""

    fail_next = False

    def intersection(self, lower, upper):
        if self.fail_next:
            self.fail_next = False
            raise KeyError("injected shard failure")
        return super().intersection(lower, upper)


def _serve_shards(stack, stores, log):
    """A 2-shard router whose shards are recorded remote proxies."""
    proxies = []
    for t, store in enumerate(stores):
        host, port = stack.enter_context(served(store))
        proxy = RemoteStore(RecordingClient(host, port, t, log))
        stack.callback(proxy.close)
        proxies.append(proxy)
    router = ShardedStore(proxies, [CUT], now=1_200)
    router.bulk_load(RECORDS)
    return router


def _oracle():
    oracle = BruteForceIntervals()
    oracle.advance_to(1_200)
    oracle.bulk_load(RECORDS)
    return oracle


def _scattered(log, op):
    return log == [
        ("send", 0, op),
        ("send", 1, op),
        ("recv", 0, op),
        ("recv", 1, op),
    ]


def test_every_request_is_written_before_any_response_is_read():
    log = []
    probes = [(900, 1_100, 1), (100, 300, 2), (1_200, 1_400, 3)]
    with ExitStack() as stack:
        router = _serve_shards(
            stack, [create_store("hint", now=1_200) for _ in range(2)], log
        )
        oracle = _oracle()
        calls = [
            ("intersection", lambda s: sorted(s.intersection(500, 1_500))),
            ("intersection_count", lambda s: s.intersection_count(500, 1_500)),
            ("query", lambda s: sorted(s.query(800, 900, predicate="after"))),
            ("join_pairs", lambda s: sorted(s.join_pairs(probes))),
            ("join_count", lambda s: s.join_count(probes)),
        ]
        for op, run in calls:
            log.clear()
            assert run(router) == run(oracle), op
            assert _scattered(log, op), (op, log)
        batch = [(950, 1_050, 900), (10, 20, 901), (1_700, 1_800, 902)]
        log.clear()
        router.append_batch(batch)
        oracle.append_batch(batch)
        assert _scattered(log, "ingest_batch"), log
        assert sorted(router.intersection(0, 3_000)) == sorted(
            oracle.intersection(0, 3_000)
        )


def test_error_frame_mid_scatter_drains_every_connection():
    log = []
    failing = FailingHint(now=1_200)
    with ExitStack() as stack:
        router = _serve_shards(
            stack, [failing, create_store("hint", now=1_200)], log
        )
        oracle = _oracle()
        failing.fail_next = True
        log.clear()
        with pytest.raises(KeyError, match="injected shard failure"):
            router.intersection(500, 1_500)
        # Shard 1's response was read after shard 0's error frame.
        assert _scattered(log, "intersection"), log
        assert sorted(router.intersection(500, 1_500)) == sorted(
            oracle.intersection(500, 1_500)
        )
        assert router.join_count([(0, 3_000, 1)]) == oracle.join_count(
            [(0, 3_000, 1)]
        )
        for shard in router.shards:
            assert shard.call("ping") == "pong"
        assert router.verify().ok


def test_concurrent_fan_outs_over_three_shards_cannot_deadlock(tmp_path):
    records, now = build_dataset(seed=21, n=600, domain=8_000, max_len=300)
    static = {interval_id for _, _, interval_id in records}
    mix = {"intersection": 3, "count": 2, "query": 2, "join_pairs": 2, "join_count": 1}
    ops = build_ops(seed=22, count=160, domain=8_000, max_len=2_500, now=now, mix=mix)
    oracle = create_store("hint", now=now)
    oracle.bulk_load(records)
    expected = evaluate_ops(oracle, ops)
    written: list = []
    errors: list = []
    proc, host, port = spawn_cli(tmp_path, records, now, ["--shards", "3"])

    def run_ops(worker):
        try:
            with ServiceClient(host, port) as client:
                for index in range(worker, len(ops), 8):
                    op = {k: v for k, v in ops[index].items() if k != "cls"}
                    if index % 3 == 0:
                        base = 100_000 + 100 * index
                        batch = [
                            [lo, lo + 2_900, base + k]
                            for k, lo in enumerate((500, 2_500, 5_000))
                        ]
                        client.call("ingest_batch", records=batch)
                        written.extend(tuple(r) for r in batch)
                    got = canonical(ops[index]["cls"], client.call(**op))
                    want = expected[index]
                    if isinstance(want, int):
                        assert got >= want, (index, got, want)
                    elif ops[index]["cls"] == "join_pairs":
                        assert [p for p in got if p[1] in static] == want, index
                    else:
                        assert [i for i in got if i in static] == want, index
        except Exception as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    try:
        threads = [
            threading.Thread(target=run_ops, args=(w,), daemon=True) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in threads), "fan-out hung"
        assert not errors, errors
        oracle.bulk_load(written)
        with ServiceClient(host, port) as client:
            for op, want in zip(ops, evaluate_ops(oracle, ops)):
                request = {k: v for k, v in op.items() if k != "cls"}
                assert canonical(op["cls"], client.call(**request)) == want
            assert client.call("verify")["issues"] == []
            client.call("shutdown")
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            raise
