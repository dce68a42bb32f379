"""The interval query service: RI-tree stores behind a network front.

The serving layer the paper's Section 5 integration argument points at:
interval stores as an *operational service* rather than a library.  One
asyncio server (:mod:`~repro.service.server`) fronts any registered
backend -- most interestingly the domain-sharding router of
:mod:`repro.core.router`, whose shards may themselves be shard-server
subprocesses reached through :class:`~repro.service.client.RemoteStore`
proxies.  Framing is length-prefixed compact JSON, with integer
results as packed int64 blocks (:mod:`~repro.service.protocol`), and
:mod:`~repro.service.loadgen` replays seeded mixed workloads against a
running service at configurable concurrency, reporting throughput and
per-op-class latency percentiles.

Start a four-shard service and drive it::

    PYTHONPATH=src python -m repro.service --shards 4 --dataset data.json
    # prints: LISTENING 127.0.0.1 <port>

See ``docs/serving.md`` for the protocol, the sharding/replication
rules, and the latency methodology; ``benchmarks/bench_service.py``
gates parity and concurrency scaling.
"""

from .client import RemoteStore, ServiceClient
from .protocol import (
    ProtocolError,
    ServiceError,
    encode_frame,
    read_frame,
    read_frame_async,
    write_frame,
    write_frame_async,
)
from .server import IntervalService

__all__ = [
    "IntervalService",
    "ProtocolError",
    "RemoteStore",
    "ServiceClient",
    "ServiceError",
    "encode_frame",
    "read_frame",
    "read_frame_async",
    "write_frame",
    "write_frame_async",
]
