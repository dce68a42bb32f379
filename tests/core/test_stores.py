"""The store factory/registry and the keyword-only store signatures."""

import pytest

from repro.core import (
    HintStore,
    IntervalStore,
    RITree,
    ShardedStore,
    available_backends,
    create_store,
)
from repro.core.stores import backend_description, register_backend
from repro.bench.harness import run_join_batch
from repro.core.join import interval_join


def test_registry_lists_every_builtin_backend():
    names = available_backends()
    for expected in ("hint", "ritree", "sharded", "sql-ritree"):
        assert expected in names
    assert "temporal-ritree" not in names


@pytest.mark.parametrize("name, cls", [
    ("ritree", RITree),
    ("hint", HintStore),
])
def test_create_store_builds_the_registered_class(name, cls):
    store = create_store(name)
    assert isinstance(store, cls)
    assert isinstance(store, IntervalStore)


def test_create_store_normalises_names():
    assert type(create_store("SQL_RITREE")) is type(create_store("sql-ritree"))
    assert isinstance(create_store("  Hint "), HintStore)


def test_create_store_forwards_options():
    store = create_store("hint", now=25)
    assert store.now == 25
    sharded = create_store("sharded", backend="hint", cuts=[100])
    assert isinstance(sharded, ShardedStore)
    assert sharded.shard_count == 2
    assert all(isinstance(s, HintStore) for s in sharded.shards)


def test_unknown_backend_is_a_value_error():
    with pytest.raises(ValueError, match="unknown backend"):
        create_store("btree")
    with pytest.raises(ValueError, match="non-empty string"):
        create_store("   ")


def test_register_backend_guards_and_replace():
    marker = object()
    register_backend("stores-test-dummy", lambda: marker,
                     description="a test dummy")
    try:
        assert create_store("stores_test_dummy") is marker
        assert backend_description("stores-test-dummy") == "a test dummy"
        with pytest.raises(ValueError, match="already registered"):
            register_backend("stores-test-dummy", lambda: None)
        other = object()
        register_backend("stores-test-dummy", lambda: other, replace=True)
        assert create_store("stores-test-dummy") is other
    finally:
        from repro.core.stores import _REGISTRY

        _REGISTRY.pop("stores-test-dummy", None)


def test_sql_backends_get_fresh_connections_per_store():
    first = create_store("sql-ritree")
    second = create_store("sql-ritree")
    first.insert(1, 5, interval_id=1)
    assert second.intersection(0, 10) == []


# ----------------------------------------------------------------------
# the harness consumes backends by name
# ----------------------------------------------------------------------
def make_records():
    return [(i * 10, i * 10 + 25, i) for i in range(1, 40)]


def test_run_join_batch_accepts_a_backend_name():
    probes = [(5, 60, 1), (200, 260, 2)]
    by_name = run_join_batch("hint", make_records(), probes)
    by_store = run_join_batch(create_store("hint"), make_records(), probes)
    assert by_name.pairs == by_store.pairs


def test_run_join_batch_forwards_store_opts():
    probes = [(5, 60, 1)]
    result = run_join_batch("sharded", make_records(), probes,
                            store_opts={"backend": "hint", "cuts": [180]})
    assert result.pairs == run_join_batch("hint", make_records(),
                                          probes).pairs


# ----------------------------------------------------------------------
# keyword-only predicates, positional-or-keyword clock
# ----------------------------------------------------------------------
BACKENDS = ("hint", "ritree", "sharded", "sql-ritree")
PROBES = [(100, 200, 7)]


def loaded(name):
    store = create_store(name)
    store.bulk_load(make_records())
    return store


def test_query_predicate_is_keyword_only_with_shim():
    """The predicate-first shim is gone: only ``predicate=`` answers and
    every positional predicate is a ``TypeError`` on each backend."""
    for name in BACKENDS:
        store = loaded(name)
        expected = store.query(100, 200, predicate="during")
        with pytest.raises(TypeError):
            store.query("during", 100, 200)
        with pytest.raises(TypeError):
            store.query("during", 100)
        with pytest.raises(TypeError):
            store.query(100, 200, "during")
        assert store.query(100, 200, predicate="during") == expected


def test_join_predicate_is_keyword_only_with_shim():
    """Joins take the predicate by keyword only, and ``interval_join``
    takes its strategy by keyword only."""
    for name in BACKENDS:
        store = loaded(name)
        expected = store.join_pairs(PROBES, predicate="overlaps")
        with pytest.raises(TypeError):
            store.join_pairs(PROBES, "overlaps")
        with pytest.raises(TypeError):
            store.join_count(PROBES, "overlaps")
        assert store.join_count(PROBES, predicate="overlaps") == len(expected)
    with pytest.raises(TypeError):
        interval_join(PROBES, make_records(), "index")


def test_shim_rejects_doubled_predicates():
    for name in BACKENDS:
        store = loaded(name)
        with pytest.raises(TypeError):
            store.query("during", 1, 2, predicate="during")
        with pytest.raises(TypeError):
            store.join_pairs([(1, 2, 3)], "during", predicate="overlaps")
        with pytest.raises(TypeError):
            store.join_count([(1, 2, 3)], "during", "overlaps")


def test_advance_to_takes_only_now():
    """``advance_to`` takes ``now`` by position or keyword; the old
    ``timestamp=`` spelling is a ``TypeError``."""
    for name in BACKENDS:
        store = loaded(name)
        with pytest.raises(TypeError):
            store.advance_to(timestamp=40)
        store.advance_to(now=40)
        assert store.now == 40
        store.advance_to(50)
        assert store.now == 50
        with pytest.raises(TypeError):
            store.advance_to(60, timestamp=70)
