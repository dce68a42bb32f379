"""The predicate layer: one definition, three evaluations, one answer.

Every predicate must produce the identical id (or pair) set through

* the brute-force oracle, which filters its records with the pure
  endpoint formula,
* the simulated engine's scan-plan compilation (``RITree.query``),
* the sqlite backend's WHERE-clause rewrite (``SQLRITree.query``),
* the HINT store's partition walk + direct-formula refinement
  (``HintStore.query``),

and -- for joins -- through the sweep and nested-loop strategies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FAMILIES,
    JOIN_PREDICATES,
    PREDICATES,
    HintStore,
    QueryFamily,
    RITree,
    compile_query,
)
from repro.core.costmodel import BoundSummary
from repro.core.join import SweepJoin, interval_join
from repro.core.predicates import ALLEN_RELATIONS, range_duration, relate
from repro.methods.memory import BruteForceIntervals
from repro.methods.windowlist import WindowList
from repro.sql import SQLRITree


def shared_endpoint_records(rng, count=400, points=80, domain=300):
    """Records clustered on few endpoints, so equality relations fire."""
    anchors = [rng.randrange(0, domain) for _ in range(points)]
    records = []
    for i in range(count):
        start = rng.choice(anchors)
        length = rng.choice([1, 2, 5, rng.randrange(1, 60)])
        records.append((start, start + length, i))
    return anchors, records


proper_interval = st.tuples(st.integers(0, 2000), st.integers(1, 400)).map(
    lambda t: (t[0], t[0] + t[1])
)


def test_relate_canonical_examples():
    # Stored [s, e] vs query [l, u] = [10, 20].
    cases = {
        (0, 5): "before",
        (0, 10): "meets",
        (5, 15): "overlaps",
        (5, 20): "finished_by",
        (5, 25): "contains",
        (10, 15): "starts",
        (10, 20): "equals",
        (10, 25): "started_by",
        (12, 18): "during",
        (15, 20): "finishes",
        (15, 25): "overlapped_by",
        (20, 30): "met_by",
        (25, 30): "after",
    }
    for (s, e), expected in cases.items():
        assert relate(s, e, 10, 20) == expected


@settings(max_examples=300, deadline=None)
@given(proper_interval, proper_interval)
def test_relate_is_a_partition(stored, query):
    """Exactly one of the 13 relations holds for proper intervals."""
    s, e = stored
    l, u = query
    assert relate(s, e, l, u) in ALLEN_RELATIONS


@settings(max_examples=100, deadline=None)
@given(proper_interval, proper_interval)
def test_relate_converse_symmetry(stored, query):
    """Swapping the roles maps each relation to its converse."""
    s, e = stored
    l, u = query
    assert EXPECTED_INVERSES[relate(s, e, l, u)] == relate(l, u, s, e)


def test_intersection_is_not_before_or_after():
    for s, e, l, u in [(0, 5, 3, 8), (0, 10, 10, 20), (5, 6, 0, 100)]:
        assert relate(s, e, l, u) not in ("before", "after")


def test_pinned_bounds():
    """Each bound-equality relation pins one subject bound to the point
    its candidate range is; only before/after consult the extent."""
    pinned = {name: pred.pinned for name, pred in PREDICATES.items()
              if pred.pinned}
    assert pinned == {
        "meets": "upper", "finishes": "upper", "finished_by": "upper",
        "starts": "lower", "started_by": "lower", "equals": "lower",
        "met_by": "lower",
    }
    domain = range(12)
    for pred in PREDICATES.values():
        if pred.pinned is None:
            continue
        for l in domain:
            for u in domain[l:]:
                x, x_hi = pred.candidates(l, u, None, None)
                assert x == x_hi
                for s in domain:
                    for e in domain[s:]:
                        if pred.holds(s, e, l, u):
                            assert (s if pred.pinned == "lower" else e) == x
    extent = {name for name, pred in PREDICATES.items() if pred.needs_extent}
    assert extent == {"before", "after"}


def test_registry_is_complete():
    assert set(PREDICATES) == {"intersects", "stab"} | set(ALLEN_RELATIONS)
    assert set(JOIN_PREDICATES) == {"intersects"} | set(ALLEN_RELATIONS)


#: The pinned inverse table of the tentpole: subject-swap per relation.
EXPECTED_INVERSES = {
    "intersects": "intersects",
    "before": "after",
    "after": "before",
    "meets": "met_by",
    "met_by": "meets",
    "overlaps": "overlapped_by",
    "overlapped_by": "overlaps",
    "during": "contains",
    "contains": "during",
    "starts": "started_by",
    "started_by": "starts",
    "finishes": "finished_by",
    "finished_by": "finishes",
    "equals": "equals",
}


def test_inverse_is_the_subject_swap_and_involutive():
    """Swapping ``s``/``l`` and ``e``/``u`` gives the registered inverse
    relation, except for meets/met_by: there the swap keeps the pinned
    bound's own strict side (``s == u, s > l``), which differs from
    ``met_by`` on point intervals."""
    for name, inverse_name in EXPECTED_INVERSES.items():
        pred = PREDICATES[name]
        assert pred.inverse.inverse is pred
        if name in ("meets", "met_by"):
            assert pred.inverse.name == f"inverse({name})"
            assert pred.inverse.name not in FAMILIES
        else:
            assert pred.inverse is PREDICATES[inverse_name]
    assert PREDICATES["meets"].inverse.family.atoms == (
        ("s", "==", "u"),
        ("s", ">", "l"),
    )
    assert range_duration(3, 9).inverse.name == "range_duration_by[3,9]"


def test_inverse_identity_exhaustive_with_degenerate_intervals():
    """Exhaustive over a small domain, point intervals included.

    ``p.holds(a, b, c, d) == p.inverse.holds(c, d, a, b)`` for every
    join predicate and both families; every candidate range is sound
    (each match intersects it, and a pinned bound equals its point); and
    the derived inverse agrees with the relation registered as the
    inverse in candidate range, ``pinned`` bound and estimate.
    """
    domain = range(6)
    intervals = [(a, b) for a in domain for b in domain if a <= b]
    floor, ceiling = 0, 5
    summary = BoundSummary.from_records(
        [(a, b, i) for i, (a, b) in enumerate(intervals)], buckets=4
    )
    registered = {
        name: PREDICATES[inverse] for name, inverse in EXPECTED_INVERSES.items()
    }
    predicates = {name: PREDICATES[name] for name in JOIN_PREDICATES}
    for band in [(0, 0), (1, 3), (2, None)]:
        pred = range_duration(*band)
        predicates[pred.name] = pred
        registered[pred.name] = FAMILIES["range_duration_by"].compile(
            **dict(pred.params)
        )
        by = pred.inverse
        predicates[by.name] = by
        registered[by.name] = pred
    for name, pred in predicates.items():
        inverse = pred.inverse
        assert inverse.pinned == registered[name].pinned, name
        assert inverse.needs_extent == registered[name].needs_extent, name
        for l, u in intervals:
            window = pred.candidates(l, u, floor, ceiling)
            assert inverse.candidates(l, u, floor, ceiling) == registered[
                name
            ].candidates(l, u, floor, ceiling), (name, l, u)
            assert inverse.estimate(summary, l, u) == registered[name].estimate(
                summary, l, u
            ), (name, l, u)
            for s, e in intervals:
                holds = pred.holds(s, e, l, u)
                assert holds == inverse.holds(l, u, s, e), (name, s, e, l, u)
                if not holds:
                    continue
                assert window is not None and s <= window[1] and e >= window[0]
                if pred.pinned is not None:
                    assert window[0] == window[1]
                    assert (s if pred.pinned == "lower" else e) == window[0]
    # Where the registered inverse is not exact: a point meeting an
    # interval.  The derived inverse keeps the identity.
    meets, met_by = PREDICATES["meets"], PREDICATES["met_by"]
    assert not meets.holds(5, 5, 5, 9)
    assert met_by.holds(5, 9, 5, 5)
    assert not meets.inverse.holds(5, 9, 5, 5)


def test_compile_query_resolves_names_and_objects():
    pred = compile_query("during")
    assert pred.name == "during"
    assert compile_query(pred) is pred
    with pytest.raises(ValueError):
        compile_query("sideways")
    with pytest.raises(ValueError):
        compile_query(None)


def test_holds_agrees_with_the_relate_partition(rng):
    """On proper intervals the 13 formulas partition exactly as relate()."""
    for _ in range(2000):
        s = rng.randrange(0, 100)
        e = s + rng.randrange(1, 30)
        l = rng.randrange(0, 100)
        u = l + rng.randrange(1, 30)
        relation = relate(s, e, l, u)
        for name in ALLEN_RELATIONS:
            assert PREDICATES[name].holds(s, e, l, u) == (relation == name)


def test_filter():
    before = compile_query("before")
    records = [(0, 5, 1), (0, 6, 2), (7, 9, 3)]
    assert before.filter(records, 6, 10) == [1]


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_backends_match_the_oracle(name, rng):
    anchors, records = shared_endpoint_records(rng)
    oracle = BruteForceIntervals(records)
    backends = [RITree(), SQLRITree(), HintStore()]
    for backend in backends:
        backend.bulk_load(records)
    for _ in range(40):
        lower = rng.choice(anchors)
        upper = lower + rng.choice([1, 2, 5, rng.randrange(1, 60)])
        if name == "stab":
            upper = None
        expected = sorted(oracle.query(lower, upper, predicate=name))
        for backend in backends:
            assert sorted(backend.query(lower, upper, predicate=name)) == expected


def test_query_intersects_delegates_to_intersection(rng):
    _anchors, records = shared_endpoint_records(rng, count=120)
    for store in (RITree(), SQLRITree(), HintStore()):
        store.bulk_load(records)
        assert sorted(store.query(50, 90, predicate="intersects")) == sorted(
            store.intersection(50, 90)
        )
        assert sorted(store.query(70, predicate="stab")) == sorted(store.stab(70))


def test_generic_store_falls_back_to_stored_records(rng):
    """A store without a native compile still answers via enumeration."""
    _anchors, records = shared_endpoint_records(rng, count=100)
    store = WindowList()
    store.bulk_load(records)
    if store.stored_records() is None:
        with pytest.raises(NotImplementedError):
            store.query(10, 80, predicate="during")
    else:
        expected = sorted(PREDICATES["during"].filter(records, 10, 80))
        assert sorted(store.query(10, 80, predicate="during")) == expected
    # intersects/stab always work through the intersection machinery.
    assert sorted(store.query(10, 80, predicate="intersects")) == sorted(
        store.intersection(10, 80)
    )


def test_minimal_store_gets_predicates_for_free(rng):
    """A bare-bones IntervalStore -- the oracle, which implements only
    the abstract core and enumeration -- inherits a working predicate
    compile."""
    _anchors, records = shared_endpoint_records(rng, count=120)
    store = BruteForceIntervals()
    store.bulk_load(records)
    reference = RITree()
    reference.bulk_load(records)
    for name in ("before", "during", "meets", "equals"):
        assert sorted(store.query(40, 90, predicate=name)) == sorted(
            reference.query(40, 90, predicate=name)
        )


@pytest.mark.parametrize("name", sorted(JOIN_PREDICATES))
def test_join_strategies_match_the_oracle(name, rng):
    """All FOUR strategies emit the pure-formula pair set per predicate."""
    _anchors, records = shared_endpoint_records(rng, count=260)
    outer = records[:120]
    inner = [(s, e, 10_000 + i) for s, e, i in records[120:]]
    expected = sorted(BruteForceIntervals(inner).join_pairs(outer, predicate=name))
    for strategy in ("sweep", "nested-loop", "index", "auto"):
        got = sorted(interval_join(outer, inner, strategy=strategy, predicate=name))
        assert got == expected, (strategy, name)


@pytest.mark.parametrize("name", ["before", "after"])
def test_backends_resolve_the_extent_from_the_flag(name, rng):
    """Queries and joins of an unregistered family whose candidates read
    the extent: ``needs_extent`` is derived from its atoms alone."""
    _anchors, records = shared_endpoint_records(rng, count=160)
    inner = records[:100]
    probes = [(s, e, 30_000 + i) for s, e, i in records[100:]]
    family = QueryFamily(f"{name}_family", PREDICATES[name].family.atoms).compile()
    assert family.needs_extent and family.name not in FAMILIES
    oracle = BruteForceIntervals(inner)
    expected = sorted(oracle.join_pairs(probes, predicate=name))
    for store in (RITree(), SQLRITree(), HintStore()):
        store.bulk_load(inner)
        assert sorted(store.join_pairs(probes, predicate=family)) == expected
        for lower, upper, _ in probes[:10]:
            assert sorted(store.query(lower, upper, predicate=family)) == sorted(
                oracle.query(lower, upper, predicate=name)
            )


@pytest.mark.parametrize("name", sorted(JOIN_PREDICATES))
def test_store_join_hooks_take_predicates(name, rng):
    """join_pairs/join_count accept predicates on every backend."""
    _anchors, records = shared_endpoint_records(rng, count=220)
    inner = records[:140]
    probes = [(s, e, 20_000 + i) for s, e, i in records[140:]]
    expected = sorted(BruteForceIntervals(inner).join_pairs(probes, predicate=name))
    for store in (RITree(), SQLRITree(), HintStore()):
        store.bulk_load(inner)
        assert sorted(store.join_pairs(probes, predicate=name)) == expected
        assert store.join_count(probes, predicate=name) == len(expected)


def test_generic_store_predicate_join_refines_enumerated_records(rng):
    """The IntervalStore default: enumeration + direct-formula refine.

    Exact also on degenerate (point) intervals, because the enumerable
    branch applies the predicate's direct formula.
    """
    _anchors, records = shared_endpoint_records(rng, count=160)
    inner = records[:100] + [(7, 7, 900), (50, 50, 901)]
    probes = [(s, e, 30_000 + i) for s, e, i in records[100:]]
    probes += [(0, 7, 31_000), (50, 50, 31_001)]
    store = BruteForceIntervals(inner)
    for name in ("before", "during", "meets", "equals", "met_by"):
        pred = PREDICATES[name]
        expected = sorted(
            (r[2], s[2])
            for r in probes
            for s in inner
            if pred.holds(r[0], r[1], s[0], s[1])
        )
        assert sorted(store.join_pairs(probes, predicate=name)) == expected
        assert store.join_count(probes, predicate=name) == len(expected)


def test_opaque_store_predicate_join_loops_inverse_queries(rng):
    """Without enumeration, the default loops query() with the inverse."""
    _anchors, records = shared_endpoint_records(rng, count=140)
    inner = records[:90]
    probes = [(s, e, 40_000 + i) for s, e, i in records[90:]]
    hidden = BruteForceIntervals(inner).stored_records()

    queried = []

    class Opaque(BruteForceIntervals):
        def stored_records(self):
            return None

        def _query_relation(self, pred, lower, upper):
            queried.append(pred.name)
            return pred.filter(hidden, lower, upper)

    opaque = Opaque()
    opaque.bulk_load(inner)
    # Proper intervals only here: the inverse-query path is exact on them.
    pairs = opaque.join_pairs(probes, predicate="before")
    expected = sorted(
        (r[2], s[2]) for r in probes for s in inner if r[1] < s[0]
    )
    assert sorted(pairs) == expected
    # The store was probed with the INVERSE relation (stored-subject).
    assert set(queried) == {"after"}
    assert opaque.join_count(probes, predicate="before") == len(expected)


@pytest.mark.parametrize(
    "name", ["before", "after", "during", "meets", "equals"]
)
def test_sweep_count_matches_pairs(name, rng):
    _anchors, records = shared_endpoint_records(rng, count=200)
    outer = records[:90]
    inner = [(s, e, 5_000 + i) for s, e, i in records[90:]]
    strategy = SweepJoin(predicate=name)
    assert strategy.count(outer, inner) == len(strategy.pairs(outer, inner))


def test_predicate_joins_run_on_every_strategy():
    """The index strategies take predicates too (inverse through
    join_pairs); only 'stab' is rejected -- it is not a join predicate."""
    outer = [(0, 10, 1)]
    inner = [(20, 30, 2)]
    for strategy in ("sweep", "nested-loop", "index", "auto"):
        assert interval_join(outer, inner, strategy=strategy,
                             predicate="before") == [(1, 2)]
        assert interval_join(outer, inner, strategy=strategy,
                             predicate="during") == []
        with pytest.raises(ValueError, match="stab"):
            interval_join(outer, inner, strategy=strategy,
                          predicate="stab")
    # The default predicate is the intersection join on every strategy.
    assert interval_join(outer, inner, strategy="index", predicate="intersects") == []
