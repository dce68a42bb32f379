"""Unified store construction: every backend behind one named factory.

The repo grows interval-store backends faster than it grows call sites
that construct them, so construction is centralised here: a registry
mapping a backend *name* to a factory, with :func:`create_store` as the
single entry point every consumer -- the serving layer, the shared
conformance suite, the examples, the benchmark harness -- goes through.
Names are normalised (``sql_ritree`` and ``sql-ritree`` are the same
backend), so callers can spell them however their configuration format
prefers.

Registering a backend is step 8 of the checklist in
``docs/writing-a-backend.md``::

    from repro.core.stores import register_backend
    register_backend("mystore", MyStore, description="...")

after which ``create_store("mystore", **opts)`` constructs it anywhere,
including behind the sharding router (``create_store("sharded",
backend="mystore", ...)``) and the interval query service
(``repro.service``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .access import IntervalStore


@dataclass(frozen=True)
class BackendEntry:
    """One registered backend: canonical name, factory, description."""

    name: str
    factory: Callable[..., IntervalStore]
    description: str


_REGISTRY: dict[str, BackendEntry] = {}


def _canonical(name: str) -> str:
    """Normalise a backend name (case and ``_``/``-`` insensitive)."""
    if not isinstance(name, str) or not name.strip():
        raise ValueError(f"backend name must be a non-empty string, "
                         f"got {name!r}")
    return name.strip().lower().replace("_", "-")


def register_backend(
    name: str,
    factory: Callable[..., IntervalStore],
    *,
    description: str = "",
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name`` for :func:`create_store`.

    ``factory`` is any callable returning an :class:`~repro.core.access.
    IntervalStore` when invoked with the keyword options forwarded by
    :func:`create_store` -- usually the store class itself.  Registering
    an already-taken name raises unless ``replace=True`` (tests swapping
    in instrumented backends).
    """
    key = _canonical(name)
    if key in _REGISTRY and not replace:
        raise ValueError(f"backend {key!r} is already registered; pass "
                         f"replace=True to override it")
    _REGISTRY[key] = BackendEntry(key, factory, description)


def available_backends() -> list[str]:
    """Sorted canonical names of every registered backend."""
    return sorted(_REGISTRY)


def backend_description(name: str) -> str:
    """The one-line description a backend was registered with."""
    return _entry(name).description


def _entry(name: str) -> BackendEntry:
    key = _canonical(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of "
            f"{available_backends()}"
        ) from None


def create_store(name: str, **opts) -> IntervalStore:
    """Construct a backend by name -- the single construction entry point.

    ``opts`` are forwarded to the backend's factory verbatim, so each
    backend keeps its own constructor surface (``RITree(db=...)``,
    ``HintStore(levels=...)``, ``ShardedStore.create(backend=...,
    shard_count=...)`` behind ``"sharded"``).

    >>> from repro.core.stores import create_store, available_backends
    >>> sorted(available_backends())[:2]
    ['hint', 'ritree']
    >>> store = create_store("hint")
    >>> store.insert(3, 9, interval_id=1)
    >>> store.intersection_count(5, 20)
    1
    """
    return _entry(name).factory(**opts)


# ----------------------------------------------------------------------
# built-in backends (factories import lazily to avoid module cycles)
# ----------------------------------------------------------------------
def _make_ritree(**opts) -> IntervalStore:
    from .ritree import RITree

    return RITree(**opts)


def _make_sql_ritree(**opts) -> IntervalStore:
    import sqlite3

    from ..sql import SQLRITree

    if "connection" not in opts:
        # The service runs stores on an executor thread, never the
        # constructing one, so the factory owns the thread-affinity
        # decision for the default in-memory connection.
        check = opts.pop("check_same_thread", True)
        opts["connection"] = sqlite3.connect(
            ":memory:", check_same_thread=check
        )
    return SQLRITree(**opts)


def _make_hint(**opts) -> IntervalStore:
    from .hint import HintStore

    return HintStore(**opts)


def _make_sharded(**opts) -> IntervalStore:
    from .router import ShardedStore

    return ShardedStore.create(**opts)


register_backend(
    "ritree", _make_ritree,
    description="RI-tree on the simulated disk engine, with now/infinity "
                "rows (paper Sections 3-4 and 4.6)",
)
register_backend(
    "sql-ritree", _make_sql_ritree,
    description="RI-tree on sqlite3: set-at-a-time Figure 9 SQL",
)
register_backend(
    "hint", _make_hint,
    description="HINT-style hierarchical main-memory store",
)
register_backend(
    "sharded", _make_sharded,
    description="domain-sharding router over any registered backend",
)
