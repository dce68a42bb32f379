"""``service-sharded``: the wire, the router and the in-memory HINT store.

``python -m repro.service --shards 2 --backend hint`` serves a
``loadgen.build_dataset`` of 60k rows (domain 1M, 2 % temporal rows) to
one ``ServiceClient`` connection.  The load is ``loadgen.build_ops``'s
default mix with ``ingest_batch`` frames of 16 records at 13 % of the
requests, so writes cross the readers-writer lock and the router's
append fan-out beside the reads, and the large ``before``/``after``
(moved to mid-domain windows: about half the table each) and
``join_pairs`` results stress JSON encoding.  The store is HINT because
the disk backends reject this dataset's sentinel rows in ``bulk_load``
(see README).  Shard-process time is not observable from here: the
server's ``stats`` op covers the router only.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Iterator

from common import Op, Workload, mean, ms, ratio, vm_hwm_mb
from repro.core.router import ShardedStore
from repro.core.stores import create_store
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.loadgen import (
    DEFAULT_MIX,
    RELATION_NAMES,
    build_dataset,
    build_ops,
)

RECORDS = 60_000
DOMAIN = 1_000_000
TEMPORAL_FRACTION = 0.02
SHARDS = 2
WRITE_SHARE = 0.13
RECORDS_PER_WRITE = 16
MAX_LENGTH = 2_000
WARMUP_OPS = 300
#: Requests per round of the stream (see ``ServiceSharded._requests``).
ROUND = 1_000
#: ``build_ops`` op class -> this benchmark's op class.
CLASSES = {
    "stab": "read",
    "intersection": "read",
    "count": "read",
    "query": "read",
    "now": "read",
    "join_count": "join",
    "join_pairs": "join",
}
#: Server ``stats`` op name -> op class.
SERVER_CLASSES = {
    "stab": "read",
    "intersection": "read",
    "intersection_count": "read",
    "query": "read",
    "join_count": "join",
    "join_pairs": "join",
    "ingest_batch": "write",
}


def _call(store, op: Op):
    """An op against an in-process store, as the server dispatches it."""
    if op.kind == "ingest_batch":
        return store.append_batch([tuple(record) for record in op.args[0]])
    params = op.args[0]
    if op.kind == "stab":
        return store.stab(params["value"])
    if op.kind == "query":
        return store.query(
            params["lower"], params["upper"], predicate=params["predicate"]
        )
    if op.kind in ("join_count", "join_pairs"):
        return getattr(store, op.kind)([tuple(probe) for probe in params["probes"]])
    return getattr(store, op.kind)(params["lower"], params["upper"])


def _params(op: dict) -> dict:
    """A ``build_ops`` op's request fields."""
    return {key: value for key, value in op.items() if key not in ("op", "cls")}


def _whole(shares: dict, total: int) -> dict:
    """Whole counts in proportion to ``shares``, summing to ``total``
    (largest remainder first)."""
    counts = {key: int(share * total) for key, share in shares.items()}
    by_remainder = sorted(shares, key=lambda key: counts[key] - shares[key] * total)
    for key in by_remainder[: total - sum(counts.values())]:
        counts[key] += 1
    return counts


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid:
                found.append(int(entry))
    return found


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class ServiceSharded(Workload):
    name = "service-sharded"
    rate = 570
    round_ops = ROUND

    def __init__(self, seed: int, seconds: float, workdir) -> None:
        super().__init__(seed, seconds, workdir)
        self.records, self.now = build_dataset(
            seed, RECORDS, domain=DOMAIN, temporal_fraction=TEMPORAL_FRACTION
        )
        self.dataset = workdir / "dataset.json"
        self.dataset.write_text(json.dumps({"records": self.records, "now": self.now}))
        self.log_path = workdir / "service.log"
        self.op_list = self._requests(random.Random(seed + 1))
        warm = build_ops(seed + 2, 2 * WARMUP_OPS, domain=DOMAIN, now=self.now)
        self.warm_ops = [op for op in warm if CLASSES[op["cls"]] == "read"]
        self.proc = self.client = None
        self.shard_pids: list[int] = []
        self._response = None
        self.encode_s = 0.0
        self.replay_s = {"hint": 0.0, "router": 0.0}

    def _requests(self, rng: random.Random) -> list[Op]:
        """Rounds of ``ROUND`` requests in shuffled order.  Each round
        has the write share and ``DEFAULT_MIX``'s shares exactly, and its
        ``query`` ops take the Allen relations in turn: with independent
        draws, the number of ``before``/``after`` results alone moved
        throughput by 6 % from seed to seed."""
        shares = {"write": WRITE_SHARE}
        for cls, share in DEFAULT_MIX.items():
            shares[cls] = (1 - WRITE_SHARE) * share
        counts = _whole(shares, ROUND)
        writes = counts.pop("write")
        next_id = RECORDS + 1
        relations: list[str] = []
        requests: list[Op] = []
        for _ in range(self.count // ROUND):
            batch = []
            for _ in range(writes):
                records = []
                for _ in range(RECORDS_PER_WRITE):
                    lower = rng.randint(0, DOMAIN)
                    records.append([lower, lower + rng.randint(0, MAX_LENGTH), next_id])
                    next_id += 1
                batch.append(Op("write", "ingest_batch", (records,), len(records)))
            for cls, count in counts.items():
                ops = build_ops(
                    rng.randrange(2**32), count, DOMAIN, now=self.now, mix={cls: 1}
                )
                for op in ops:
                    params = _params(op)
                    if cls == "query":
                        relations = relations or rng.sample(
                            RELATION_NAMES, len(RELATION_NAMES)
                        )
                        params["predicate"] = relations.pop()
                    if params.get("predicate") in ("before", "after"):
                        # Such a result grows with the window's distance
                        # from the domain's edge; at the middle it is
                        # about half the table, whatever the seed.
                        width = params["upper"] - params["lower"]
                        params["lower"] = DOMAIN // 2 + rng.randint(-5_000, 5_000)
                        params["upper"] = params["lower"] + width
                    batch.append(Op(CLASSES[cls], op["op"], (params,)))
            rng.shuffle(batch)
            requests.extend(batch)
        return requests

    def setup(self) -> None:
        # Server stderr (including the tracebacks of connections the
        # router cancels at shutdown) goes to the run's log file.
        with open(self.log_path, "a") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.service",
                    "--port",
                    "0",
                    "--shards",
                    str(SHARDS),
                    "--backend",
                    "hint",
                    "--dataset",
                    str(self.dataset),
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        line = self.proc.stdout.readline().split()
        if not line or line[0] != "LISTENING":
            raise RuntimeError(f"service failed to start; see {self.log_path}")
        self.client = ServiceClient(line[1], int(line[2]))
        self.shard_pids = _children(self.proc.pid)

    def teardown(self) -> None:
        """Stop the topology: the shutdown op, then kill what is left."""
        proc, client = self.proc, self.client
        self.proc = self.client = None
        if client is not None:
            try:
                client.call("shutdown")
            except (OSError, protocol.ServiceError, protocol.ProtocolError):
                pass
            client.close()
        if proc is None:
            return
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for pid in self.shard_pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while any(map(_running, self.shard_pids)) and time.monotonic() < deadline:
            time.sleep(0.05)

    def warmup(self) -> None:
        for op in self.warm_ops:
            self.client.call(op["op"], **_params(op))

    def ops(self) -> Iterator[Op]:
        return iter(self.op_list)

    def execute(self, op: Op):
        if op.kind == "ingest_batch":
            return self.client.call("ingest_batch", records=op.args[0])
        return self.client.call(op.kind, **op.args[0])

    def observe(self, op: Op, result) -> str:
        # What the server paid to encode the response, re-timed on the
        # response a traced op decoded.
        if self._response is not None:
            start = time.perf_counter()
            protocol.encode_frame(self._response)
            self.encode_s += (time.perf_counter() - start) * self.speed.factor
            self._response = None
        return op.cls

    def begin_window(self) -> None:
        self.stats_before = self.client.call("stats")

    def end_window(self) -> None:
        self.stats_after = self.client.call("stats")
        pids = [self.proc.pid, *self.shard_pids]
        self.rss_mb = sum(vm_hwm_mb(pid) for pid in pids)

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def reference(self, ops: list[Op]) -> Iterator:
        hint = create_store("hint", now=self.now)
        hint.bulk_load(self.records)
        return self._replay("hint", hint, ops)

    def _replay(self, name: str, store, ops: list[Op]) -> Iterator:
        """Each op's result on an in-process ``store``; the nominal time
        of the calls adds up in ``replay_s[name]``."""
        for op in ops:
            factor = self.speed.sample()
            start = time.perf_counter()
            result = _call(store, op)
            self.replay_s[name] += (time.perf_counter() - start) * factor
            yield result

    def trace_points(self, tracer) -> list:
        def request(frame, _args):
            tracer.count("protocol.request_bytes", len(frame))

        def response(message, args):
            tracer.count("protocol.response_bytes", protocol.HEADER.size + len(args[0]))
            self._response = message

        return [
            (protocol, "encode_frame", "protocol.encode", request),
            (protocol, "decode_payload", "protocol.decode", response),
        ]

    def trace_checks(self, tracer, traced) -> dict:
        return {
            "protocol.decode spans == traced ops": (
                tracer.calls["protocol.decode"],
                traced.ops,
            )
        }

    def layer_metrics(self, window, tracer) -> dict:
        ops = window.traced_totals.ops
        metrics = {
            "protocol.request_bytes_per_op": ratio(
                tracer.counts["protocol.request_bytes"], ops
            ),
            "protocol.response_bytes_per_op": ratio(
                tracer.counts["protocol.response_bytes"], ops
            ),
            "protocol.encode_ms_per_op": ms(ratio(self.encode_s, ops)),
            "protocol.decode_ms_per_op": ratio(tracer.total_ms("protocol.decode"), ops),
        }
        self._router_replay(window.ops)
        for name, seconds in self.replay_s.items():
            metrics[f"{name}.ms_per_op"] = ms(ratio(seconds, len(window.ops)))
        before, after = self.stats_before["ops"], self.stats_after["ops"]

        def served(cls: str, field: str) -> int:
            ops = [op for op, c in SERVER_CLASSES.items() if c == cls]
            empty: dict = {}
            return sum(
                after.get(op, empty).get(field, 0) - before.get(op, empty).get(field, 0)
                for op in ops
            )

        for cls in ("read", "join", "write"):
            count = served(cls, "count")
            server = ratio(served(cls, "total_us") / 1000, count) * window.scale
            client = ms(mean(window.latencies(cls)))
            metrics[f"service.server_{cls}_ms_per_op"] = server
            metrics[f"service.wire_{cls}_ms_per_op"] = client - server if count else 0.0
        metrics.update(self._routing(window))
        return metrics

    def _routing(self, window) -> dict:
        before = self.stats_before["routing"]
        after = self.stats_after["routing"]

        def delta(field: str) -> int:
            return sum(
                a[field] - b[field] for a, b in zip(after["shards"], before["shards"])
            )

        queried = sum(1 for cls in window.classes if cls in ("read", "join"))
        written = sum(op.records for op in window.ops)
        return {
            "router.shard_calls_per_op": ratio(
                delta("queries") + delta("join_probes"), queried
            ),
            "router.replica_ratio": ratio(after["replicas"], after["records"]),
            "router.append_replicas_per_record": ratio(
                delta("append_replicas"), written
            ),
        }

    def _router_replay(self, ops: list[Op]) -> None:
        """The same traffic on an in-process ``ShardedStore`` over HINT
        shards with the served cuts."""
        cuts = self.stats_after["routing"]["cuts"]
        shards = [create_store("hint") for _ in range(len(cuts) + 1)]
        router = ShardedStore(shards, cuts)
        router.advance_to(self.now)
        router.bulk_load(self.records)
        for _ in self._replay("router", router, ops):
            pass
