"""Property test: every access method agrees with the brute-force oracle."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RITree
from repro.methods import ISTree, TileIndex, WindowList
from repro.methods.memory import BruteForceIntervals

# Bounded to the tile index's domain [0, 2^20).
record = st.tuples(st.integers(0, 2 ** 20 - 1), st.integers(0, 5000),
                   st.integers(0, 10_000)).map(
    lambda t: (t[0], min(t[0] + t[1], 2 ** 20 - 1), t[2]))
query = st.tuples(st.integers(0, 2 ** 20 - 1), st.integers(0, 20_000)).map(
    lambda t: (t[0], t[0] + t[1]))


def unique_ids(records):
    seen = set()
    out = []
    for lower, upper, interval_id in records:
        if interval_id not in seen:
            seen.add(interval_id)
            out.append((lower, upper, interval_id))
    return out


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(record, max_size=80), st.lists(query, max_size=5))
def test_all_methods_agree_with_oracle(records, queries):
    records = unique_ids(records)
    brute = BruteForceIntervals(records)
    methods = [
        RITree(),
        ISTree(),
        TileIndex(fixed_level=9),
        WindowList(),
    ]
    for method in methods:
        method.bulk_load(sorted(records)
                         if isinstance(method, ISTree) else records)
    for lower, upper in queries:
        expected = sorted(brute.intersection(lower, upper))
        for method in methods:
            got = sorted(method.intersection(lower, upper))
            assert got == expected, (method.method_name, lower, upper)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(record, min_size=1, max_size=60), st.data())
def test_dynamic_methods_agree_after_deletes(records, data):
    records = unique_ids(records)
    victims = data.draw(st.sets(st.sampled_from(range(len(records))),
                                max_size=len(records) // 2))
    alive = [rec for i, rec in enumerate(records) if i not in victims]
    brute = BruteForceIntervals(alive)
    methods = [RITree(), ISTree(), TileIndex(fixed_level=10)]
    for method in methods:
        for rec in records:
            method.insert(*rec)
        for i in sorted(victims):
            method.delete(*records[i])
    for lower, upper in [(0, 2 ** 20 - 1), (0, 0), (2 ** 19, 2 ** 19 + 500)]:
        expected = sorted(brute.intersection(lower, upper))
        for method in methods:
            assert sorted(method.intersection(lower, upper)) == expected, (
                method.method_name, lower, upper)
