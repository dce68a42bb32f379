"""Property-based tests: the RI-tree against the brute-force oracle."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RITree
from repro.methods import BruteForceIntervals

interval = st.tuples(st.integers(-5000, 5000), st.integers(0, 3000)).map(
    lambda t: (t[0], t[0] + t[1]))
record = st.tuples(st.integers(-5000, 5000), st.integers(0, 3000),
                   st.integers(0, 2 ** 60)).map(
    lambda t: (t[0], t[0] + t[1], t[2]))


def unique_ids(records):
    seen = set()
    out = []
    for lower, upper, interval_id in records:
        if interval_id not in seen:
            seen.add(interval_id)
            out.append((lower, upper, interval_id))
    return out


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(record, max_size=120), st.lists(interval, max_size=10),
       st.booleans())
def test_intersection_equals_brute_force(records, queries, bulk):
    """Both build paths -- an ``insert`` loop and ``bulk_load`` -- over
    negative and positive bounds."""
    records = unique_ids(records)
    tree = RITree()
    if bulk:
        tree.bulk_load(records)
    else:
        for rec in records:
            tree.insert(*rec)
    brute = BruteForceIntervals(records)
    for lower, upper in queries:
        assert sorted(tree.intersection(lower, upper)) == \
            sorted(brute.intersection(lower, upper))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(record, min_size=1, max_size=80), st.data())
def test_delete_reinsert_roundtrip(records, data):
    records = unique_ids(records)
    tree = RITree()
    for rec in records:
        tree.insert(*rec)
    victims = data.draw(st.sets(st.sampled_from(range(len(records))),
                                max_size=len(records)))
    alive = [rec for i, rec in enumerate(records) if i not in victims]
    for i in sorted(victims):
        tree.delete(*records[i])
    brute = BruteForceIntervals(alive)
    for lower, upper in [(-10_000, 10_000), (0, 0), (-500, 500)]:
        assert sorted(tree.intersection(lower, upper)) == \
            sorted(brute.intersection(lower, upper))
    # Reinsert everything deleted; the tree must fully recover.
    for i in sorted(victims):
        tree.insert(*records[i])
    full = BruteForceIntervals(records)
    assert sorted(tree.intersection(-10_000, 10_000)) == \
        sorted(full.intersection(-10_000, 10_000))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(record, max_size=100), st.integers(-6000, 6000))
def test_stab_equals_intersection_of_point(records, point):
    records = unique_ids(records)
    tree = RITree()
    tree.bulk_load(records)
    assert sorted(tree.stab(point)) == sorted(tree.intersection(point, point))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(record, max_size=100), st.lists(interval, max_size=6))
def test_results_never_contain_duplicates(records, queries):
    """The paper's Section 4.2 claim: UNION ALL without DISTINCT is safe."""
    records = unique_ids(records)
    tree = RITree()
    tree.bulk_load(records)
    for lower, upper in queries:
        results = tree.intersection(lower, upper)
        assert len(results) == len(set(results))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(record, max_size=100))
def test_index_entry_count_is_exactly_2n(records):
    records = unique_ids(records)
    tree = RITree()
    tree.bulk_load(records)
    assert tree.index_entry_count == 2 * len(records)
    assert tree.interval_count == len(records)
