"""Store-conformance suite: one contract, every backend.

Every :class:`~repro.core.access.IntervalStore` implementation must be
interchangeable behind the shared API: identical intersection results,
identical counts, identical batch answers, identical join pair sets --
whatever engine the intervals live on.  The suite is parameterized over
the simulated-engine RI-tree, the sqlite3-backed RI-tree, the
main-memory HINT store, the domain-sharding router (HINT shards
behind replication/dedup) and the brute-force oracle itself, and checks
each against :class:`~repro.methods.memory.BruteForceIntervals` fed the
same operations.  Construction goes through :func:`repro.core.stores.
create_store`, so adding a backend means registering it and adding one
name (plus options) here.
"""

import sqlite3
from contextlib import contextmanager
from copy import deepcopy
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import (
    HintStore,
    IntervalStore,
    RITree,
    ShardedStore,
    create_store,
)
from repro.core.costmodel import BoundSummary, JoinEstimate
from repro.core.predicates import (
    ALLEN_RELATIONS,
    JOIN_PREDICATES,
    PREDICATES,
    compile_query,
    range_duration,
)
from repro.core.stores import available_backends
from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.engine import Database, FaultInjector, SimulatedCrash
from repro.methods.ist import ISTree
from repro.methods.memory import BruteForceIntervals
from repro.workloads import join_workload
from repro.workloads.genomic import chromosome_cuts, duration_band, genomic

from ..conftest import make_intervals
from ..service.test_service import remote


def clocked_oracle():
    """The oracle with its clock at 0, where every backend's starts."""
    oracle = BruteForceIntervals()
    oracle.advance_to(0)
    return oracle


STORE_FACTORIES = {
    "ritree": partial(create_store, "ritree"),
    "sql-ritree": partial(create_store, "sql-ritree"),
    "hint": partial(create_store, "hint"),
    "brute-force": clocked_oracle,
    # The router must be a conforming store in its own right; cuts sit
    # inside the suite's data domain so records and queries cross them.
    "sharded-hint": partial(
        create_store, "sharded", backend="hint", cuts=[16_000, 40_000]
    ),
    # Every disk RI-tree shard has a clock, so the router over it takes
    # Section 4.6 rows as well.
    "sharded-ritree": partial(
        create_store, "sharded", backend="ritree", cuts=[16_000, 40_000]
    ),
}

STORE_NAMES = sorted(STORE_FACTORIES)


@pytest.fixture(params=STORE_NAMES)
def store_factory(request):
    return STORE_FACTORIES[request.param]


@pytest.fixture
def store(store_factory):
    return store_factory()


def queries_for(rng, count=60, domain=66_000, span=3000):
    out = []
    for _ in range(count):
        lower = rng.randrange(0, domain)
        out.append((lower, lower + rng.randrange(0, span)))
    return out


def test_both_backends_implement_the_protocol(store):
    assert isinstance(store, IntervalStore)


def test_every_registered_backend_is_in_the_suite():
    # "sharded" needs a backend and cuts; the suite runs it as sharded-hint
    # and sharded-ritree.
    assert set(available_backends()) - {"sharded"} <= set(STORE_FACTORIES)


def test_protocol_requires_core_methods():
    with pytest.raises(TypeError):
        IntervalStore()


def test_insert_and_intersection_match_oracle(store, rng):
    records = make_intervals(rng, 400, domain=60_000, mean_length=500)
    oracle = BruteForceIntervals(records)
    store.append_batch(records)
    assert store.interval_count == len(records)
    for lower, upper in queries_for(rng):
        assert sorted(store.intersection(lower, upper)) == sorted(
            oracle.intersection(lower, upper)
        )


def test_bulk_load_equals_inserts(store, store_factory, rng):
    records = make_intervals(rng, 300, domain=40_000, mean_length=400)
    loaded = store_factory()
    loaded.bulk_load(records)
    store.append_batch(records)
    for lower, upper in queries_for(rng, count=30, domain=44_000):
        assert sorted(loaded.intersection(lower, upper)) == sorted(
            store.intersection(lower, upper)
        )


# ----------------------------------------------------------------------
# append_batch: the streaming fast path
# ----------------------------------------------------------------------
def test_append_batch_equals_insert_loop(store, store_factory, rng):
    records = make_intervals(rng, 240, domain=50_000, mean_length=400)
    looped = store_factory()
    for start in range(0, len(records), 40):
        batch = records[start : start + 40]
        store.append_batch(batch)
        for row in batch:
            looped.insert(*row)
        report = store.verify()
        assert report.ok, [i.as_dict() for i in report.issues]
    assert store.interval_count == looped.interval_count
    assert sorted(store.stored_records()) == sorted(records)
    for lower, upper in queries_for(rng, count=30, domain=55_000):
        assert sorted(store.intersection(lower, upper)) == sorted(
            looped.intersection(lower, upper)
        )


def test_append_batch_empty_is_noop(store):
    store.append_batch([])
    assert store.interval_count == 0
    assert store.verify().ok


def test_append_batch_temporal_rows_and_closes(store):
    store.advance_to(100)
    store.append_batch([(5, 50, 1), (10, UPPER_NOW, 2), (20, UPPER_INF, 3)])
    report = store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert store.interval_count == 3
    # The now-relative row reads as [10, 100], the infinite row never ends.
    assert sorted(store.intersection(60, 200)) == [2, 3]
    store.advance_to(300)
    store.append_batch([], closes=[(10, 2, 250)])
    report = store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert sorted(store.stab(240)) == [2, 3]
    assert sorted(store.intersection(260, 400)) == [3]


def test_append_batch_temporal_equals_explicit_inserts(store, store_factory):
    explicit = store_factory()
    for target in (store, explicit):
        target.advance_to(200)
    rows = [(i * 13 % 900, i * 13 % 900 + 40 + i, i) for i in range(40)]
    open_rows = [(i * 7 % 200, 100 + i) for i in range(6)]
    inf_rows = [(i * 11 % 900, 200 + i) for i in range(4)]
    store.append_batch(
        rows
        + [(lower, UPPER_NOW, interval_id) for lower, interval_id in open_rows]
        + [(lower, UPPER_INF, interval_id) for lower, interval_id in inf_rows]
    )
    explicit.bulk_load(rows)
    for lower, interval_id in open_rows:
        explicit.insert(lower, UPPER_NOW, interval_id)
    for lower, interval_id in inf_rows:
        explicit.insert(lower, UPPER_INF, interval_id)
    assert store.verify().ok
    assert store.interval_count == explicit.interval_count
    for lower in range(0, 1200, 150):
        assert sorted(store.intersection(lower, lower + 120)) == sorted(
            explicit.intersection(lower, lower + 120)
        )
    assert sorted(store.stored_records()) == sorted(explicit.stored_records())


# ----------------------------------------------------------------------
# one write path for temporal rows: every store validates alike
# ----------------------------------------------------------------------
#: Served backends the sentinel-write checks also drive through a
#: RemoteStore (``insert`` frames and ``ingest_batch`` for batches).
REMOTE_BACKENDS = ["hint", "ritree", "sql-ritree"]


ANY_STORE_NAMES = STORE_NAMES + [f"remote-{b}" for b in REMOTE_BACKENDS]


@contextmanager
def open_store(name):
    """A suite store by name; ``remote-<backend>`` serves the backend
    and yields its RemoteStore."""
    if not name.startswith("remote-"):
        yield STORE_FACTORIES[name]()
        return
    backend = name.removeprefix("remote-")
    # The served sqlite store is driven from the service's threads.
    opts = (
        {"connection": sqlite3.connect(":memory:", check_same_thread=False)}
        if backend == "sql-ritree"
        else {}
    )
    with remote(create_store(backend, **opts)) as proxy:
        yield proxy


@pytest.fixture(params=ANY_STORE_NAMES)
def any_store(request):
    """Every suite store, plus served backends over the wire."""
    with open_store(request.param) as store:
        yield store


#: Section 4.6 rows on both sides of the sharded cuts, next to finite
#: rows; the clock for them is :data:`TEMPORAL_CLOCK`.
TEMPORAL_CLOCK = 45_000
TEMPORAL_LOAD = (
    [(10, 20, 1), (15, UPPER_INF, 2), (5, UPPER_NOW, 3)]
    + [(i * 1_931 % 60_000, i * 1_931 % 60_000 + 40 * i, 10 + i) for i in range(40)]
    + [(i * 7_919 % 44_000, UPPER_NOW, 100 + i) for i in range(6)]
    + [(i * 6_007 % 60_000, UPPER_INF, 200 + i) for i in range(6)]
)


@pytest.mark.parametrize("name", ANY_STORE_NAMES)
def test_bulk_load_with_temporal_rows_equals_insert_loop(name):
    """``bulk_load`` takes Section 4.6 rows on every store, router and
    wire included, and leaves the same store as inserting them."""
    with open_store(name) as loaded, open_store(name) as looped:
        for store in (loaded, looped):
            store.advance_to(TEMPORAL_CLOCK)
        loaded.bulk_load(TEMPORAL_LOAD)
        for row in TEMPORAL_LOAD:
            looped.insert(*row)
        for clock in (TEMPORAL_CLOCK, TEMPORAL_CLOCK + 10_000):
            for store in (loaded, looped):
                store.advance_to(clock)
            report = loaded.verify()
            assert report.ok, [i.as_dict() for i in report.issues]
            assert loaded.interval_count == looped.interval_count
            assert sorted(loaded.stored_records()) == sorted(looped.stored_records())
            for lower in range(0, 70_000, 4_000):
                assert sorted(loaded.intersection(lower, lower + 1_500)) == sorted(
                    looped.intersection(lower, lower + 1_500)
                )
                assert sorted(loaded.stab(lower)) == sorted(looped.stab(lower))
        assert {1, 2, 3} <= set(loaded.intersection(10, 20))


SEED_ROWS = [(5, 50, 1), (20, 90, 2)]


def _seed(store, clock):
    """Finite rows, plus one row of each temporal kind at ``clock``."""
    store.bulk_load(SEED_ROWS)
    store.advance_to(clock)
    store.append_batch([(10, UPPER_NOW, 3), (30, UPPER_INF, 4)])


def _write(store, write, record):
    if write == "insert":
        store.insert(*record)
    else:
        store.append_batch([record])


@pytest.mark.parametrize("upper", [UPPER_INF, UPPER_NOW], ids=["inf", "now"])
@pytest.mark.parametrize("write", ["insert", "append_batch"])
def test_sentinel_row_lower_at_the_sentinels_is_refused(any_store, write, upper):
    """A lower bound at or above the sentinels would store an inverted
    interval; every store refuses it and stays as it was.  The clock
    sits past the lower bound, so only that check can refuse the now
    row."""
    _seed(any_store, 2**61)
    before = sorted(any_store.stored_records())
    with pytest.raises(ValueError):
        _write(any_store, write, (2**61, upper, 9))
    assert sorted(any_store.stored_records()) == before
    assert any_store.interval_count == len(before)
    report = any_store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]


@pytest.mark.parametrize("write", ["insert", "append_batch"])
def test_sentinel_row_with_a_non_integer_lower_is_refused(any_store, write):
    _seed(any_store, 100)
    before = sorted(any_store.stored_records())
    with pytest.raises(TypeError):
        _write(any_store, write, (1.5, UPPER_INF, 9))
    assert sorted(any_store.stored_records()) == before


@pytest.mark.parametrize("write", ["insert", "append_batch"])
def test_sentinel_upper_stores_one_row_on_every_temporal_store(any_store, write):
    """``insert(l, UPPER_INF, id)`` is the ``[l, oo)`` row wherever it
    is written, however far ``l`` lies from the finite rows, and
    ``delete`` with the same sentinel removes it."""
    _seed(any_store, 100)
    row = (UPPER_INF - 3, UPPER_INF, 7)
    _write(any_store, write, row)
    expected = SEED_ROWS + [(10, 100, 3), (30, UPPER_INF, 4), row]
    assert sorted(any_store.stored_records()) == sorted(expected)
    report = any_store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    any_store.delete(*row)
    assert sorted(any_store.stored_records()) == sorted(expected[:-1])
    assert any_store.verify().ok


@pytest.mark.parametrize("bad", [(2**61, UPPER_INF, 9), (70, 60, 9), (1.5, 4, 9)],
                         ids=["sentinel-lower", "inverted", "non-integer"])
def test_append_batch_with_a_rejected_record_writes_nothing(any_store, bad):
    """A batch is validated whole before its first row is written: a
    good record ahead of the rejected one is not stored either."""
    _seed(any_store, 100)
    before = sorted(any_store.stored_records())
    with pytest.raises((TypeError, ValueError)):
        any_store.append_batch([(60, 70, 8), bad])
    assert sorted(any_store.stored_records()) == before
    report = any_store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]


# ----------------------------------------------------------------------
# append_batch closes: records, then closures, whole or not at all
# ----------------------------------------------------------------------
#: Open rows beside ``_seed``'s ``(10, UPPER_NOW, 3)``, at clock 100.
OPEN_ROWS = [(40, UPPER_NOW, 5), (60, UPPER_NOW, 6), (10, UPPER_NOW, 7)]


def _seed_open(store):
    _seed(store, 100)
    store.append_batch(OPEN_ROWS)
    store.advance_to(200)


def test_append_batch_closes_open_rows(any_store):
    _seed_open(any_store)
    any_store.append_batch([], closes=[(60, 6, 190), (10, 3, 120), (10, 7, 10)])
    expected = SEED_ROWS + [(10, 120, 3), (30, UPPER_INF, 4), (40, 200, 5),
                            (60, 190, 6), (10, 10, 7)]
    assert sorted(any_store.stored_records()) == sorted(expected)
    report = any_store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert sorted(any_store.intersection(150, 195)) == [4, 5, 6]
    any_store.advance_to(300)
    assert sorted(any_store.intersection(250, 300)) == [4, 5]
    any_store.append_batch([], closes=[])
    assert sorted(any_store.intersection(250, 300)) == [4, 5]


def test_append_batch_closes_rows_it_opens(any_store):
    """One call appends open and finite rows and closes an open row it
    appended, one appended twice and one stored before it."""
    _seed_open(any_store)
    records = [(70, 80, 8), (150, UPPER_NOW, 9), (160, UPPER_NOW, 10),
               (160, UPPER_NOW, 10)]
    any_store.append_batch(
        records, closes=[(150, 9, 170), (160, 10, 165), (40, 5, 45)])
    expected = SEED_ROWS + [(10, UPPER_NOW, 3), (30, UPPER_INF, 4),
                            (40, 45, 5), (60, UPPER_NOW, 6),
                            (10, UPPER_NOW, 7), (70, 80, 8), (150, 170, 9),
                            (160, 165, 10), (160, UPPER_NOW, 10)]
    assert sorted(any_store.stored_records()) == sorted(
        (lower, 200 if upper == UPPER_NOW else upper, i)
        for lower, upper, i in expected)
    report = any_store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert sorted(any_store.intersection(166, 180)) == [
        3, 4, 6, 7, 9, 10]


@pytest.mark.parametrize("closes, error", [
    ([(10, 3, 120), (40, 5, 30)], ValueError),  # upper below lower
    ([(10, 3, 120), (40, 5, UPPER_INF)], ValueError),  # a sentinel upper
    ([(10, 3, 120), (40, 5, 1.5)], TypeError),
    ([(10, 3, 120), (201, 5, 250)], ValueError),  # lower after the clock
    ([(10, 3, 120), (11, 3, 130)], KeyError),  # no such open row
    ([(10, 3, 120), (5, 1, 130)], KeyError),  # a finite row is not open
    ([(10, 3, 120), (40, 5, 150), (10, 3, 130)], ValueError),  # twice
], ids=["inverted", "sentinel-upper", "non-integer-upper", "after-clock",
        "missing", "finite-row", "twice"])
def test_append_batch_with_a_rejected_closure_writes_nothing(
        any_store, closes, error):
    """Each rejected batch raises and leaves the store as it was: its
    records are not stored, nor are the closures ahead of the bad one
    (one of which closes a row the batch opens)."""
    _seed_open(any_store)
    before = sorted(any_store.stored_records())
    with pytest.raises(error):
        any_store.append_batch([(70, 80, 8), (150, UPPER_NOW, 9)],
                               closes=[(150, 9, 170)] + closes)
    assert sorted(any_store.stored_records()) == before
    report = any_store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    any_store.append_batch([], closes=[(10, 3, 120)])  # still usable
    assert (10, 120, 3) in any_store.stored_records()


def test_closes_on_a_plain_store_are_not_implemented():
    """An access method without a clock (outside the registry) refuses
    closures before it writes the batch's records."""
    store = ISTree()
    store.append_batch([], closes=[])
    with pytest.raises(NotImplementedError):
        store.append_batch([(1, 2, 3)], closes=[(10, 3, 120)])
    assert store.interval_count == 0


def test_delete_removes_and_raises(store):
    store.insert(1, 10, 1)
    store.insert(1, 10, 2)
    store.delete(1, 10, 1)
    assert store.intersection(5, 5) == [2]
    with pytest.raises(KeyError):
        store.delete(1, 10, 1)
    with pytest.raises(KeyError):
        store.delete(99, 100, 5)
    # A repeated record loses one copy per delete.
    store.insert(1, 10, 2)
    store.delete(1, 10, 2)
    assert store.intersection(5, 5) == [2]


def test_count_and_many_are_consistent(store, rng):
    records = make_intervals(rng, 350, domain=50_000, mean_length=600)
    store.bulk_load(records)
    queries = queries_for(rng, count=40, domain=55_000)
    batched = store.intersection_many(queries)
    assert len(batched) == len(queries)
    for (lower, upper), ids in zip(queries, batched):
        single = store.intersection(lower, upper)
        assert sorted(ids) == sorted(single)
        assert store.intersection_count(lower, upper) == len(single)


def test_stab_is_degenerate_intersection(store, rng):
    records = make_intervals(rng, 200, domain=20_000, mean_length=300)
    store.bulk_load(records)
    for _ in range(25):
        point = rng.randrange(0, 22_000)
        assert sorted(store.stab(point)) == sorted(
            store.intersection(point, point)
        )


def test_query_rejects_reversed_and_non_integer_bounds(store):
    """Every predicate validates its bounds once, before the relation
    dispatch, so all backends (and the router) refuse the same input."""
    store.bulk_load([(1, 4, 1), (6, 9, 2), (2, 12, 3)])
    for predicate in [*PREDICATES, range_duration(0, 5)]:
        with pytest.raises(ValueError):
            store.query(5, 3, predicate=predicate)
        for lower, upper in ((1.5, 3), (1, 3.0), ("1", 3), (1, "3")):
            with pytest.raises(TypeError):
                store.query(lower, upper, predicate=predicate)


def test_join_pairs_and_count_match_oracle(store, rng):
    workload = join_workload(
        outer_n=80, inner_n=500, outer_d=3000, inner_d=600, seed=9
    )
    outer, inner = workload.outer.records, workload.inner.records
    store.bulk_load(inner)
    expected = sorted(BruteForceIntervals(inner).join_pairs(outer))
    pairs = store.join_pairs(outer)
    assert sorted(pairs) == expected
    assert len(pairs) == len(set(pairs))
    assert store.join_count(outer) == len(expected)


def test_stored_records_roundtrip(store, rng):
    records = make_intervals(rng, 150, domain=10_000, mean_length=200)
    store.bulk_load(records)
    assert sorted(store.stored_records()) == sorted(records)


def test_accounting(store, rng):
    if isinstance(store, BruteForceIntervals):
        pytest.skip("the oracle has no index structure")
    records = make_intervals(rng, 120, domain=8_000, mean_length=150)
    store.bulk_load(records)
    assert store.interval_count == 120
    if isinstance(store, (HintStore, ShardedStore)):
        # HINT replicates per level instead of double-indexing (and the
        # router replicates across cuts on top): the entry count depends
        # on the partition geometry, but redundancy must still be the
        # entries-per-interval ratio.
        assert store.index_entry_count >= 120
        assert store.redundancy == pytest.approx(
            store.index_entry_count / 120
        )
    else:
        assert store.index_entry_count == 240
        assert store.redundancy == pytest.approx(2.0)


def test_empty_store(store):
    assert store.intersection(0, 100) == []
    assert store.intersection_count(0, 100) == 0
    assert store.intersection_many([(0, 10), (5, 20)]) == [[], []]
    assert store.join_pairs([(0, 10, 1)]) == []
    assert store.join_count([(0, 10, 1)]) == 0
    assert store.interval_count == 0
    assert store.redundancy == 0.0


def test_cost_model_plans_on_every_backend(store, rng):
    if isinstance(store, BruteForceIntervals):
        pytest.skip("the oracle has no index structure")
    records = make_intervals(rng, 600, domain=50_000, mean_length=400)
    store.bulk_load(records)
    model = store.cost_model()
    assert model is not None
    probes = make_intervals(rng, 50, domain=50_000, mean_length=800)
    estimate = model.estimate_join(probes)
    assert isinstance(estimate, JoinEstimate)
    assert estimate.choice in ("index-nested-loop", "sweep")
    assert estimate.inner_n == len(records)


#: Every store that plans: the oracle has no index structure.
PLANNING_STORES = [name for name in STORE_NAMES if name != "brute-force"]


@pytest.mark.parametrize("name", PLANNING_STORES)
def test_analyze_snapshot_summarises_the_stored_records(name):
    """Every planning store's ANALYZE summarises what ``stored_records()``
    returns: now-relative rows at the advanced clock, infinite rows at the
    sentinel, with every row's own duration."""
    store = STORE_FACTORIES[name]()
    store.advance_to(TEMPORAL_CLOCK)
    store.bulk_load(TEMPORAL_LOAD)
    store.advance_to(TEMPORAL_CLOCK + 10_000)
    summary = store.analyze().summary
    expected = BoundSummary.from_records(store.stored_records())
    assert summary.count == expected.count == len(TEMPORAL_LOAD)
    assert summary.lower_bounds == expected.lower_bounds
    assert summary.upper_bounds == expected.upper_bounds
    assert summary.duration_bounds == expected.duration_bounds
    assert TEMPORAL_CLOCK + 10_000 in summary.upper_bounds


# ----------------------------------------------------------------------
# one stateful differential test: every write, every read, in lockstep
# ----------------------------------------------------------------------
#: Records straddle the sharded store's 16_000 cut; ids repeat, so exact
#: duplicates (stored with multiplicity) arise.
finite_row = st.tuples(
    st.integers(0, 20_000), st.integers(0, 3_000), st.integers(0, 40)
).map(lambda t: (t[0], t[0] + t[1], t[2]))
sentinel_row = st.tuples(st.integers(0, 20_000), st.integers(0, 40))
pick = st.integers(0, 2**16)


class StoreMachine(RuleBasedStateMachine):
    """One backend and the oracle, fed the same writes, agree on every
    read after every step."""

    def __init__(self, factory):
        super().__init__()
        self.store = factory()
        self.oracle = clocked_oracle()
        self.finite, self.open, self.infinite = [], [], []
        self.steps = 0

    def _both(self, method, *args):
        getattr(self.store, method)(*args)
        getattr(self.oracle, method)(*args)

    def _agree(self, method, *args, **kwargs):
        got = getattr(self.store, method)(*args, **kwargs)
        expected = getattr(self.oracle, method)(*args, **kwargs)
        if isinstance(expected, list):
            got, expected = sorted(got), sorted(expected)
        assert got == expected, (method, args, kwargs)

    @rule(row=finite_row)
    def insert(self, row):
        self._both("insert", *row)
        self.finite.append(row)

    @precondition(lambda self: self.finite)
    @rule(k=pick)
    def delete(self, k):
        self._both("delete", *self.finite.pop(k % len(self.finite)))

    @rule(rows=st.lists(finite_row, max_size=6),
          open_rows=st.lists(sentinel_row, max_size=2),
          infinite_rows=st.lists(sentinel_row, max_size=2),
          picks=st.lists(st.tuples(pick, st.integers(0, 3_000)), max_size=4))
    def append_batch(self, rows, open_rows, infinite_rows, picks):
        """Append rows and close a random subset of the open rows, those
        this call opens included, in one call."""
        batch = list(rows)
        self.finite.extend(rows)
        closes = []
        now = self.oracle.now
        opened = [(min(lower, now), i) for lower, i in open_rows]
        batch += [(lower, UPPER_NOW, i) for lower, i in opened]
        batch += [(lower, UPPER_INF, i) for lower, i in infinite_rows]
        self.open.extend(opened)
        self.infinite.extend(infinite_rows)
        for k, length in picks:
            if not self.open:
                break
            lower, interval_id = self.open[k % len(self.open)]
            if any(c[:2] == (lower, interval_id) for c in closes):
                continue  # one open row is closed at most once per batch
            self.open.remove((lower, interval_id))
            closes.append((lower, interval_id, lower + length))
        self.finite.extend((lower, upper, i) for lower, i, upper in closes)
        self._both("append_batch", batch, closes)

    @rule(delta=st.integers(0, 3_000))
    def advance_to(self, delta):
        self._both("advance_to", self.oracle.now + delta)

    @rule(row=sentinel_row)
    def insert_open_row(self, row):
        lower, interval_id = min(row[0], self.oracle.now), row[1]
        self._both("insert", lower, UPPER_NOW, interval_id)
        self.open.append((lower, interval_id))

    @rule(row=sentinel_row)
    def insert_infinite_row(self, row):
        lower, interval_id = row
        self._both("insert", lower, UPPER_INF, interval_id)
        self.infinite.append(row)

    @precondition(lambda self: self.open)
    @rule(k=pick)
    def delete_open_row(self, k):
        lower, interval_id = self.open.pop(k % len(self.open))
        self._both("delete", lower, UPPER_NOW, interval_id)

    @precondition(lambda self: self.infinite)
    @rule(k=pick)
    def delete_infinite_row(self, k):
        lower, interval_id = self.infinite.pop(k % len(self.infinite))
        self._both("delete", lower, UPPER_INF, interval_id)

    def _anchored_windows(self):
        """Windows sharing a bound with one live row or with the clock,
        so the bound-equality relations have matches to find."""
        now = self.oracle.now
        rows = (self.finite + [(lower, now, i) for lower, i in self.open]
                + [(lower, lower, i) for lower, i in self.infinite])
        anchors = {now}
        windows = set()
        if rows:
            lower, upper, _ = rows[self.steps % len(rows)]
            anchors |= {lower, upper}
            windows.add((lower, upper))
        for anchor in anchors:
            windows.add((max(anchor - 500, 0), anchor))
            windows.add((anchor, anchor + 500))
        return sorted(windows)

    @invariant()
    def agrees_with_the_oracle(self):
        report = self.store.verify()
        assert report.ok, [i.as_dict() for i in report.issues]
        self.steps += 1
        relation = ALLEN_RELATIONS[self.steps % len(ALLEN_RELATIONS)]
        now = self.oracle.now
        windows = [(16_000, 16_000), (9_000, 17_000), (now, now + 50)]
        for lower, upper in windows:
            self._agree("intersection", lower, upper)
            self._agree("intersection_count", lower, upper)
        for lower, upper in [(9_000, 17_000)] + self._anchored_windows():
            self._agree("query", lower, upper, predicate=relation)
        self._agree("query", 0, 30_000, predicate=range_duration(200, 1_500))
        probes = [(lower, upper, k) for k, (lower, upper) in enumerate(windows)]
        self._agree("join_pairs", probes)
        self._agree("join_pairs", probes, predicate=relation)
        self._agree("join_count", probes)
        self._agree("stored_records")
        assert self.store.interval_count == self.oracle.interval_count


@pytest.mark.parametrize("store_name", STORE_NAMES)
def test_property_store_matches_oracle(store_name):
    """Interleaved inserts, deletes, appends with closures, clock ticks
    and temporal rows; intersections, counts, an Allen relation (also on
    windows sharing a bound with a live row or the clock), a
    range-duration band, joins and the stored relation after each."""
    run_state_machine_as_test(
        lambda: StoreMachine(STORE_FACTORIES[store_name]),
        settings=settings(
            max_examples=30,
            stateful_step_count=15,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


record = st.tuples(
    st.integers(0, 2**20 - 1), st.integers(0, 5000), st.integers(0, 10_000)
).map(lambda t: (t[0], min(t[0] + t[1], 2**20 - 1), t[2]))
query = st.tuples(st.integers(0, 2**20 - 1), st.integers(0, 10_000)).map(
    lambda t: (t[0], t[0] + t[1])
)


@pytest.mark.parametrize("store_name", STORE_NAMES)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(record, max_size=50), st.lists(record, max_size=25))
def test_property_join_matches_oracle(store_name, inner, outer):
    """Random probe relations over a bulk load (the machine above uses
    fixed probes)."""
    store = STORE_FACTORIES[store_name]()
    store.bulk_load(inner)
    expected = sorted(BruteForceIntervals(inner).join_pairs(outer))
    assert sorted(store.join_pairs(outer)) == expected
    assert store.join_count(outer) == len(expected)


@pytest.mark.parametrize("store_name", STORE_NAMES)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(record, max_size=50),
    st.lists(query, max_size=4),
    st.integers(0, 4000),
    st.integers(0, 4000),
)
def test_property_range_duration_matches_oracle(
    store_name, records, queries, dmin, extent
):
    """Random windows and bands over a bulk load (the machine above
    uses one fixed band)."""
    store = STORE_FACTORIES[store_name]()
    store.bulk_load(records)
    oracle = BruteForceIntervals(records)
    pred = range_duration(dmin, dmin + extent)
    for lower, upper in queries:
        assert sorted(store.query(lower, upper, predicate=pred)) == sorted(
            oracle.query(lower, upper, predicate=pred)
        )


# ----------------------------------------------------------------------
# verify() after every mutation
# ----------------------------------------------------------------------
def test_verify_after_every_mutation(store, rng):
    assert store.verify().ok
    records = make_intervals(rng, 60, domain=10_000, mean_length=200)
    store.bulk_load(records[:30])
    assert store.verify().ok
    store.append_batch(records[30:40])
    assert store.verify().ok
    for lower, upper, interval_id in records[40:]:
        store.insert(lower, upper, interval_id)
        report = store.verify()
        assert report.ok, [i.as_dict() for i in report.issues]
    for lower, upper, interval_id in records[:10]:
        store.delete(lower, upper, interval_id)
        report = store.verify()
        assert report.ok, [i.as_dict() for i in report.issues]


def test_verify_after_every_temporal_mutation():
    tree = RITree(now=100)
    tree.bulk_load([(1, 5, 1), (3, 9, 2)])
    assert tree.verify().ok
    tree.insert(40, UPPER_INF, 3)
    assert tree.verify().ok
    tree.insert(10, UPPER_NOW, 4)
    assert tree.verify().ok
    tree.advance_to(500)
    assert tree.verify().ok
    tree.append_batch([], closes=[(10, 4, 450)])
    assert tree.verify().ok
    tree.delete(40, UPPER_INF, 3)
    report = tree.verify()
    assert report.ok, [i.as_dict() for i in report.issues]


# ----------------------------------------------------------------------
# crash at every write point, then recover, verify and match the oracle
# ----------------------------------------------------------------------
CRASH_ROWS = [(i * 17 % 400, i * 17 % 400 + 25, i) for i in range(30)]
CRASH_APPEND = [(500 + 10 * i, 540 + 10 * i, 100 + i) for i in range(4)]
CRASH_QUERIES = [(0, 60), (200, 260), (420, 455), (520, 540), (0, 1000)]
CRASH_PROBES = [(0, 50, 1), (100, 400, 2), (430, 600, 3)]


def _ritree_steps(tree):
    return [
        lambda: tree.bulk_load(CRASH_ROWS),
        lambda: tree.append_batch(CRASH_APPEND),
        lambda: tree.insert(3, 900, 200),
        lambda: tree.delete(*CRASH_ROWS[0]),
    ]


def _temporal_steps(tree):
    return [
        lambda: tree.bulk_load(CRASH_ROWS),
        lambda: tree.insert(40, UPPER_INF, 300),
        lambda: tree.insert(10, UPPER_NOW, 301),
        lambda: tree.advance_to(500),
        lambda: tree.delete(*CRASH_ROWS[1]),
        lambda: tree.append_batch([(60, 70, 302)], closes=[(10, 301, 450)]),
    ]


CRASH_CASES = {
    "ritree": (lambda db: RITree(db), _ritree_steps),
    "temporal": (lambda db: RITree(db, now=100), _temporal_steps),
}


def _oracle_parity(recovered, oracle):
    for lower, upper in CRASH_QUERIES:
        assert sorted(recovered.intersection(lower, upper)) == sorted(
            oracle.intersection(lower, upper)
        )
    assert sorted(recovered.join_pairs(CRASH_PROBES)) == sorted(
        oracle.join_pairs(CRASH_PROBES)
    )


@pytest.mark.parametrize("kind", sorted(CRASH_CASES))
def test_crash_at_every_write_point_recovers_consistent(kind):
    factory, steps_for = CRASH_CASES[kind]

    # Passive run: count the crash points and snapshot the oracle after
    # every atomic step -- its states are the only ones recovery may
    # land on.
    passive = FaultInjector()
    db = Database(wal=True, injector=passive)
    tree = factory(db)
    oracle = BruteForceIntervals()
    oracle.advance_to(tree.now)
    oracles = [deepcopy(oracle)]
    for step, mirrored in zip(steps_for(tree), steps_for(oracle)):
        step()
        mirrored()
        oracles.append(deepcopy(oracle))
    allowed_states = [sorted(o.stored_records()) for o in oracles]
    assert sorted(tree.stored_records()) == allowed_states[-1]
    db.flush()
    points = passive.write_points
    assert points > 0

    for n in range(1, points + 1):
        injector = FaultInjector().crash_at_write_point(n)
        db = Database(wal=True, injector=injector)
        crashed = False
        try:
            tree = factory(db)
            for step in steps_for(tree):
                step()
            db.flush()
        except SimulatedCrash:
            crashed = True
        recovered_db = db.recover()
        if not recovered_db.has_table("Intervals"):
            # The crash hit the DDL batch: nothing durable yet.
            assert crashed, f"point {n}: no table but no crash either"
            continue
        recovered = RITree.attach(recovered_db)
        report = recovered.verify()
        assert report.ok, (n, [i.as_dict() for i in report.issues])
        state = sorted(recovered.stored_records())
        assert state in allowed_states, f"point {n}: not a committed prefix"
        if not crashed:
            assert state == allowed_states[-1]
        _oracle_parity(recovered, oracles[allowed_states.index(state)])


# ----------------------------------------------------------------------
# parameterized query families: the range-duration leg
# ----------------------------------------------------------------------
DURATION_BANDS = [(0, 150), (100, 800), (400, None), (0, None)]


def test_range_duration_matches_oracle(store, rng):
    records = make_intervals(rng, 400, domain=60_000, mean_length=500)
    store.bulk_load(records)
    oracle = BruteForceIntervals(records)
    for dmin, dmax in DURATION_BANDS:
        pred = range_duration(dmin, dmax)
        for lower, upper in queries_for(rng, count=12):
            assert sorted(store.query(lower, upper, predicate=pred)) == sorted(
                oracle.query(lower, upper, predicate=pred)
            )


def test_range_duration_by_name_with_params(store, rng):
    records = make_intervals(rng, 200, domain=30_000, mean_length=400)
    store.bulk_load(records)
    oracle = BruteForceIntervals(records)
    pred = compile_query("range_duration", {"dmin": 50, "dmax": 600})
    for lower, upper in queries_for(rng, count=10, domain=33_000):
        assert sorted(store.query(lower, upper, predicate=pred)) == sorted(
            oracle.query(lower, upper, predicate=range_duration(50, 600))
        )


def test_range_duration_by_join_matches_oracle(store, rng):
    # The inverse family as a join predicate: the stored row is the
    # reference, so its duration decides the band.
    records = make_intervals(rng, 200, domain=30_000, mean_length=60)
    probes = make_intervals(rng, 20, domain=30_000, mean_length=2_000)
    store.bulk_load(records)
    pred = compile_query("range_duration_by", {"dmin": 5, "dmax": 40})
    expected = sorted(BruteForceIntervals(records).join_pairs(probes, predicate=pred))
    assert expected
    assert sorted(store.join_pairs(probes, predicate=pred)) == expected
    assert store.join_count(probes, predicate=pred) == len(expected)


def test_range_duration_temporal_sentinel_rows(store):
    store.advance_to(1000)
    store.bulk_load([(10, 110, 1), (50, 900, 2)])
    store.insert(400, UPPER_NOW, 3)  # effective [400, 1000], duration 600
    store.insert(700, UPPER_INF, 4)  # duration stays the UPPER_INF sentinel
    # Effective durations: 100, 850, 600, "infinite".
    assert sorted(store.query(0, 2000, predicate=range_duration(0, 200))) == [1]
    assert sorted(store.query(0, 2000, predicate=range_duration(500, 900))) == [
        2,
        3,
    ]
    # Only the unbounded band admits the still-open row.
    assert sorted(store.query(0, 2000, predicate=range_duration(500))) == [2, 3, 4]
    # The clock moves: the now-relative duration grows with it.
    store.advance_to(1600)
    assert sorted(store.query(0, 2000, predicate=range_duration(900, 2000))) == [3]


def test_range_duration_verify_after_mutation(store, rng):
    records = make_intervals(rng, 80, domain=10_000, mean_length=300)
    store.bulk_load(records)
    pred = range_duration(100, 900)
    before = sorted(store.query(0, 11_000, predicate=pred))
    assert before == sorted(
        BruteForceIntervals(records).query(0, 11_000, predicate=pred)
    )
    store.insert(2_000, 2_500, 999)
    report = store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    after = sorted(store.query(0, 11_000, predicate=pred))
    assert after == sorted(before + [999])
    store.delete(2_000, 2_500, 999)
    report = store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert sorted(store.query(0, 11_000, predicate=pred)) == before


@pytest.mark.parametrize("shard_count", [1, 2, 4])
def test_range_duration_sharded_matches_unsharded(shard_count):
    workload = genomic(500, seed=7)
    records = workload.records
    flat = create_store("hint")
    flat.bulk_load(records)
    sharded = create_store(
        "sharded", backend="hint", cuts=chromosome_cuts(shard_count)
    )
    sharded.bulk_load(records)
    dmin, dmax = duration_band(records, 0.2, 0.8)
    pred = range_duration(dmin, dmax)
    for lower, upper in [(0, 2**20 - 1), (100_000, 400_000), (900_000, 950_000)]:
        assert sorted(sharded.query(lower, upper, predicate=pred)) == sorted(
            flat.query(lower, upper, predicate=pred)
        )


# ----------------------------------------------------------------------
# degenerate intervals: point intervals and shared endpoints
# ----------------------------------------------------------------------
#: Anchors 4,000 apart cross the sharded cuts; every anchor starts a
#: point interval and two intervals ending on later anchors.
ANCHORS = range(0, 60_000, 4_000)
DEGENERATE_ROWS = [
    (a, a + length, i)
    for i, (a, length) in enumerate(
        (a, length) for a in ANCHORS for length in (0, 4_000, 8_000)
    )
]
DEGENERATE_WINDOWS = [(a, a) for a in ANCHORS[::2]] + [
    (a, a + length) for a in ANCHORS[1::3] for length in (2_000, 4_000, 8_000)
]


def degenerate_predicates():
    """Every join predicate and both families, on bands that admit and
    refuse points."""
    families = [range_duration(0, 0), range_duration(4_000, 8_000)]
    return [PREDICATES[name] for name in JOIN_PREDICATES] + [
        pred for family in families for pred in (family, family.inverse)
    ]


def test_degenerate_intervals_match_oracle(store):
    """Queries and joins over point intervals and shared endpoints agree
    with the oracle for every join predicate and both families."""
    store.bulk_load(DEGENERATE_ROWS)
    oracle = BruteForceIntervals(DEGENERATE_ROWS)
    probes = [
        (lower, upper, 1_000 + i) for i, (lower, upper) in enumerate(DEGENERATE_WINDOWS)
    ]
    for pred in degenerate_predicates():
        for lower, upper in DEGENERATE_WINDOWS:
            assert sorted(store.query(lower, upper, predicate=pred)) == sorted(
                oracle.query(lower, upper, predicate=pred)
            ), (pred.name, lower, upper)
        expected = sorted(oracle.join_pairs(probes, predicate=pred))
        assert sorted(store.join_pairs(probes, predicate=pred)) == expected, pred.name
        assert store.join_count(probes, predicate=pred) == len(expected), pred.name
