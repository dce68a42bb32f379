"""HINT-specific structure tests: the invariants behind the fast walks.

The shared conformance suite (test_store_conformance.py) already proves
the :class:`~repro.core.hint.HintStore` answers like every other
backend; this module pins the *structural* claims the comparison-free
walks rest on -- the partition-assignment rule, the single-original
dedup flag, domain refits, the temporal side lists, corruption
detection through ``verify()``, and the zero-physical-read cost model.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import UPPER_INF, UPPER_NOW, AutoJoin, HintStore, RITree
from repro.core.hint import HintCostModel
from repro.core.predicates import PREDICATES
from repro.methods.memory import BruteForceIntervals

from ..conftest import make_intervals

record = st.tuples(
    st.integers(0, 2**20 - 1), st.integers(0, 5000), st.integers(0, 10_000)
).map(lambda t: (t[0], min(t[0] + t[1], 2**20 - 1), t[2]))


def _cell_range(store, lower, upper):
    a = (lower - store._offset) >> store._shift
    b = (upper - store._offset) >> store._shift
    return a, b


# ----------------------------------------------------------------------
# partition-assignment invariants (the hypothesis property of the issue)
# ----------------------------------------------------------------------
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(record, min_size=1, max_size=40), st.integers(2, 12))
def test_assignment_invariants(records, levels):
    store = HintStore(levels=levels)
    store.bulk_load(records)
    assert store.verify().ok
    for lower, upper, _interval_id in records:
        a, b = _cell_range(store, lower, upper)
        assert 0 <= a <= b < store._size
        assignments = store._assignments(a, b)
        # At most two partitions per level.
        per_level = {}
        for level, pid, _orig in assignments:
            per_level.setdefault(level, []).append(pid)
        assert all(len(pids) <= 2 for pids in per_level.values())
        # Exactly one original, and it contains the start cell.
        originals = [(level, pid) for level, pid, orig in assignments
                     if orig]
        assert len(originals) == 1
        level, pid = originals[0]
        assert a >> (store.levels - level) == pid
        # Assigned extents tile [a, b] exactly, without overlap.
        cells = []
        for level, pid, _orig in assignments:
            width = 1 << (store.levels - level)
            cells.extend(range(pid * width, (pid + 1) * width))
        assert sorted(cells) == list(range(a, b + 1))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(record, max_size=50), st.data())
def test_mutations_preserve_structure_and_answers(records, data):
    store = HintStore(levels=6)
    store.bulk_load(records)
    oracle = BruteForceIntervals(records)
    assert store.verify().ok
    deletions = data.draw(st.integers(0, len(records))) if records else 0
    for rec in reversed(records[len(records) - deletions:]):
        store.delete(*rec)
        oracle.delete(*rec)
        assert store.verify().ok
    for lower, upper in ((0, 2**21), (1000, 5000), (2**19, 2**19)):
        assert sorted(store.intersection(lower, upper)) == sorted(
            oracle.intersection(lower, upper))


def test_domain_refit_preserves_answers(rng):
    store = HintStore(levels=8)
    records = make_intervals(rng, 300, domain=5_000, mean_length=80)
    store.bulk_load(records)
    before = sorted(store.intersection(0, 6_000))
    # Way outside the fitted coverage on both sides: two refits.
    store.insert(1_000_000, 1_000_500, 777_001)
    store.insert(-2_000_000, -1_999_000, 777_002)
    assert store.verify().ok
    assert sorted(store.intersection(0, 6_000)) == before
    assert store.intersection(1_000_100, 1_000_200) == [777_001]
    assert store.intersection(-1_999_900, -1_999_800) == [777_002]
    oracle = BruteForceIntervals(
        records + [(1_000_000, 1_000_500, 777_001),
                   (-2_000_000, -1_999_000, 777_002)])
    for _ in range(60):
        lower = rng.randrange(-2_100_000, 1_100_000)
        upper = lower + rng.randrange(0, 10_000)
        assert sorted(store.intersection(lower, upper)) == sorted(
            oracle.intersection(lower, upper))


#: A finite record 2**49 away from the first one: HINT's domain refit
#: covers it, though it lies outside any RI-tree backbone's data space.
FAR = (2**49, 2**49 + 5, 2)


def test_insert_far_from_the_stored_rows_is_stored_once():
    store = HintStore()
    store.insert(0, 10, 1)
    store.insert(*FAR)
    assert store.interval_count == 2
    assert store.intersection(2**49, 2**49 + 1) == [2]
    assert store.verify().ok


def test_append_batch_far_from_the_stored_rows_is_stored_whole():
    store = HintStore()
    store.append_batch([(5, 7, 3), FAR, (1, 3, 4)])
    assert sorted(store.stored_records()) == [(1, 3, 4), (5, 7, 3), FAR]
    report = store.verify()
    assert report.ok, [i.as_dict() for i in report.issues]
    assert sorted(store.intersection(0, 2**50)) == [2, 3, 4]


def test_levels_parameter_is_validated():
    with pytest.raises(ValueError):
        HintStore(levels=0)
    with pytest.raises(ValueError):
        HintStore(levels=25)
    shallow = HintStore(levels=1)
    shallow.bulk_load([(0, 10, 1), (5, 80, 2), (70, 90, 3)])
    assert sorted(shallow.intersection(6, 9)) == [1, 2]
    assert shallow.verify().ok


def test_structure_summary(rng):
    store = HintStore()
    records = make_intervals(rng, 200, domain=50_000, mean_length=500)
    store.bulk_load(records)
    occupancy = store.level_occupancy()
    assert len(occupancy) == store.levels + 1
    total_entries = sum(entries for _parts, entries in occupancy)
    assert total_entries == store.index_entry_count
    assert store.partition_count == sum(p for p, _e in occupancy)
    assert store.redundancy >= 1.0


# ----------------------------------------------------------------------
# temporal sentinels
# ----------------------------------------------------------------------
def test_temporal_rows_behave_like_the_temporal_tree(rng):
    now = 5_000
    store = HintStore(now=now)
    oracle = BruteForceIntervals()
    oracle.advance_to(now)
    finite = make_intervals(rng, 120, domain=9_000, mean_length=300)
    for target in (store, oracle):
        target.bulk_load(finite)
        target.insert(2_000, UPPER_INF, 90_001)
        target.insert(3_000, UPPER_INF, 90_002)  # sentinel routing via insert
        target.insert(1_000, UPPER_NOW, 90_003)
    assert store.infinite_count == 2
    assert store.now_relative_count == 1
    assert store.verify().ok

    for _ in range(50):
        lower = rng.randrange(0, 12_000)
        upper = lower + rng.randrange(0, 2_000)
        assert sorted(store.intersection(lower, upper)) == sorted(
            oracle.intersection(lower, upper))
    assert sorted(store.stored_records()) == sorted(oracle.stored_records())

    store.advance_to(8_000)
    oracle.advance_to(8_000)
    assert sorted(store.intersection(7_000, 7_500)) == sorted(
        oracle.intersection(7_000, 7_500))
    with pytest.raises(ValueError):
        store.advance_to(7_999)
    with pytest.raises(ValueError):
        store.insert(8_001, UPPER_NOW, 90_004)

    for name in sorted(PREDICATES):
        if name == "stab":
            continue
        expected = sorted(oracle.query(2_500, 4_000, predicate=name))
        assert sorted(store.query(2_500, 4_000, predicate=name)) == expected, name

    store.append_batch([], closes=[(1_000, 90_003, 6_000)])
    assert store.now_relative_count == 0
    assert (1_000, 6_000, 90_003) in store.stored_records()
    store.delete(2_000, UPPER_INF, 90_001)  # sentinel routing via delete
    store.delete(3_000, UPPER_INF, 90_002)
    assert store.infinite_count == 0
    with pytest.raises(KeyError):
        store.delete(3_000, UPPER_INF, 90_002)
    assert store.verify().ok


# ----------------------------------------------------------------------
# before/after: bisect slices of the level walk, no candidate refine
# ----------------------------------------------------------------------
span = st.tuples(st.integers(-300, 3_000), st.integers(0, 400))


def _check_open_ended(store, oracle, windows):
    """``before``/``after`` queries and joins against the oracle, with
    the candidate refine path disabled."""
    probes = [(lower, upper, 50_000 + k)
              for k, (lower, upper) in enumerate(windows)]
    with mock.patch.object(store, "_candidate_records",
                           side_effect=AssertionError("refine path used")):
        for name in ("before", "after"):
            for lower, upper in windows:
                assert sorted(store.query(lower, upper, predicate=name)) == (
                    sorted(oracle.query(lower, upper, predicate=name))), (
                        name, lower)
            assert sorted(store.join_pairs(probes, predicate=name)) == (
                sorted(oracle.join_pairs(probes, predicate=name))), name


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    finite=st.lists(span, max_size=40),
    sentinels=st.lists(st.tuples(st.booleans(), st.integers(-300, 3_000)),
                       max_size=6),
    copies=st.integers(1, 2),
    levels=st.integers(1, 10),
    appended=st.booleans(),
    deletes=st.integers(0, 12),
    clock=st.tuples(st.integers(-300, 3_200), st.integers(0, 600)),
    windows=st.lists(span, max_size=4),
)
def test_open_ended_relations_match_brute_force(
        finite, sentinels, copies, levels, appended, deletes, clock,
        windows):
    now, advance = clock
    records = [(lower, lower + length, k)
               for k, (lower, length) in enumerate(finite)] * copies
    records += [(lower, UPPER_INF, 9_000 + k) if infinite
                else (min(lower, now), UPPER_NOW, 9_000 + k)
                for k, (infinite, lower) in enumerate(sentinels)]
    store = HintStore(levels=levels, now=now)
    oracle = BruteForceIntervals()
    oracle.advance_to(now)
    oracle.bulk_load(records)
    if appended:
        store.append_batch(records)  # the raw-append + resort path
    else:
        store.bulk_load(records)
    for target in (store, oracle):
        for record in records[:deletes]:
            target.delete(*record)
        target.advance_to(now + advance)
    now = store.now
    queries = [(lower, lower + length) for lower, length in windows]
    # Exact record bounds, beyond the stored extent on both sides, and
    # the clock before, inside and after the window.
    for s, e, _ in oracle.stored_records()[:3]:
        queries += [(s, min(e, s + 500)), (e, e), (s - 1, s), (e, e + 1)]
    queries += [(-5_000, -4_000), (10_000, 11_000), (now + 1, now + 50),
                (now - 50, now + 50), (now - 50, now - 1)]
    _check_open_ended(store, oracle, queries)
    assert store.verify().ok


def test_open_ended_relations_on_empty_stores():
    windows = [(0, 0), (-10, 10), (5, 500)]
    empty = BruteForceIntervals()
    _check_open_ended(HintStore(), empty, windows)
    emptied = HintStore()
    emptied.append_batch([(3, 9, 1), (40, 60, 2), (7, UPPER_INF, 3)])
    for record in [(3, 9, 1), (40, 60, 2), (7, UPPER_INF, 3)]:
        emptied.delete(*record)
    _check_open_ended(emptied, empty, windows)
    # Sentinel rows only: no finite domain fitted yet.
    temporal = HintStore(now=20)
    oracle = BruteForceIntervals()
    oracle.advance_to(20)
    for target in (temporal, oracle):
        target.insert(5, UPPER_INF, 1)
        target.insert(8, UPPER_NOW, 2)
    _check_open_ended(temporal, oracle, windows + [(21, 30), (6, 7)])


def test_temporal_join_parity(rng):
    now = 400
    store = HintStore(now=now)
    oracle = BruteForceIntervals()
    oracle.advance_to(now)
    finite = make_intervals(rng, 80, domain=800, mean_length=60)
    for target in (store, oracle):
        target.bulk_load(finite)
        target.insert(100, UPPER_INF, 70_001)
        target.insert(50, UPPER_NOW, 70_002)
    probes = [(rng.randrange(0, 900), 0, 80_000 + k) for k in range(40)]
    probes = [(lo, lo + rng.randrange(0, 200), i) for lo, _, i in probes]
    for name in ("intersects", "before", "after", "during", "overlaps"):
        expected = sorted(oracle.join_pairs(probes, predicate=name))
        got = sorted(store.join_pairs(
            probes, predicate=None if name == "intersects" else name))
        assert got == expected, name


# ----------------------------------------------------------------------
# corruption detection
# ----------------------------------------------------------------------
def _loaded_store(rng):
    store = HintStore()
    store.bulk_load(make_intervals(rng, 80, domain=10_000, mean_length=200))
    assert store.verify().ok
    return store


def _nonempty_partition(store):
    for parts in store._levels:
        for part in parts.values():
            if part[0].s_ids:
                return part
    raise AssertionError("no populated partition")


def test_verify_detects_misplaced_entry(rng):
    store = _loaded_store(rng)
    part = _nonempty_partition(store)
    part[0].add(1, 2, 999_999)  # never registered: assignment mismatch
    report = store.verify()
    assert not report.ok
    assert any(i.code in ("partition-assignment", "entry-count-mismatch")
               for i in report.issues)


def test_verify_detects_dropped_entry(rng):
    store = _loaded_store(rng)
    part = _nonempty_partition(store)
    bucket = part[0]
    bucket.remove(bucket.s_lowers[0], bucket.s_uppers[0], bucket.s_ids[0])
    report = store.verify()
    assert not report.ok
    assert any(i.code in ("partition-assignment", "entry-count-mismatch")
               for i in report.issues)


def test_verify_detects_unsorted_view(rng):
    store = _loaded_store(rng)
    for parts in store._levels:
        for part in parts.values():
            if len(part[0]) >= 2:
                bucket = part[0]
                bucket.s_lowers.reverse()
                bucket.s_uppers.reverse()
                bucket.s_ids.reverse()
                if bucket.s_lowers[0] <= bucket.s_lowers[-1]:
                    continue  # palindromic keys: try another partition
                report = store.verify()
                assert not report.ok
                assert any(i.code == "partition-sort-order"
                           for i in report.issues)
                return
    pytest.skip("no partition with two distinct lower bounds")


def test_verify_detects_broken_side_list():
    store = HintStore(now=100)
    store.insert(10, UPPER_NOW, 1)
    store.insert(50, UPPER_NOW, 2)
    store._now = 20  # clock behind a stored now-row: contract broken
    report = store.verify()
    assert not report.ok
    assert any(i.code == "temporal-rows" for i in report.issues)


def test_verify_detects_flag_swap(rng):
    """Moving an entry between buckets breaks the dedup bookkeeping."""
    store = _loaded_store(rng)
    part = _nonempty_partition(store)
    originals, replicas = part
    lower = originals.s_lowers[0]
    upper = originals.s_uppers[0]
    interval_id = originals.s_ids[0]
    originals.remove(lower, upper, interval_id)
    replicas.add(lower, upper, interval_id)
    report = store.verify()
    assert not report.ok
    assert any(i.code == "partition-assignment" for i in report.issues)


# ----------------------------------------------------------------------
# cost model: the memory-vs-disk planning axis
# ----------------------------------------------------------------------
def test_cost_model_zeroes_physical_reads(rng):
    store = HintStore()
    store.bulk_load(make_intervals(rng, 500, domain=40_000, mean_length=400))
    model = store.cost_model()
    assert isinstance(model, HintCostModel)
    assert model.levels == store.levels
    assert model.summary.count == store.interval_count == 500
    assert model.statistics.geometry.memory_resident
    probes = make_intervals(rng, 40, domain=40_000, mean_length=800)
    for predicate in (None, "intersects", "during", "before"):
        estimate = model.estimate_join(probes, predicate=predicate)
        assert estimate.index.physical_reads == 0.0
        assert estimate.sweep.physical_reads == 0.0
        assert estimate.index.frame_cost > 0.0
        assert estimate.choice in ("index-nested-loop", "sweep")
    # The cached model is reused until a mutation bumps the version.
    assert store.cost_model() is model
    store.insert(1, 2, 999_777)
    assert store.cost_model() is not model


def test_cost_model_refreshes_after_delete_then_insert():
    """Deleting one record and inserting another leaves every count (and
    the clock) unchanged; the cached model must still be rebuilt."""
    store = HintStore()
    store.bulk_load([(i * 100, i * 100, i) for i in range(1000)])
    model = store.cost_model()
    assert model.summary.upper_bounds[-1] == 99_900
    store.delete(99_900, 99_900, 999)
    store.insert(99_950, 99_950, 999)
    refreshed = store.cost_model()
    assert refreshed is not model
    assert refreshed.summary.upper_bounds[-1] == 99_950


def test_cost_model_prices_memory_below_disk(rng):
    """Same workload, same formulas: the HINT plan must carry strictly
    less physical I/O than the disk tree's plan -- the signal AutoJoin
    uses to prefer memory."""
    records = make_intervals(rng, 600, domain=50_000, mean_length=400)
    probes = make_intervals(rng, 60, domain=50_000, mean_length=700)
    hint = HintStore()
    hint.bulk_load(records)
    tree = RITree()
    tree.bulk_load(records)
    hint_est = hint.cost_model().estimate_join(probes)
    tree_est = tree.cost_model().estimate_join(probes)
    assert hint_est.index.physical_reads < tree_est.index.physical_reads
    assert hint_est.index.physical_reads == 0.0


def test_auto_join_dispatches_on_the_hint_store(rng):
    records = make_intervals(rng, 400, domain=30_000, mean_length=300)
    probes = make_intervals(rng, 50, domain=30_000, mean_length=500)
    store = HintStore()
    store.bulk_load(records)
    auto = AutoJoin(method=store)
    pairs = sorted(auto.pairs(probes, []))
    assert pairs == sorted(BruteForceIntervals(records).join_pairs(probes))
    assert auto.last_dispatch in ("index-nested-loop", "sweep")
    assert auto.last_decision.index.physical_reads == 0.0
    assert auto.last_decision.choice == auto.last_dispatch
