"""Parameterized query families: registry, compilation, range-duration.

The :class:`~repro.core.predicates.QueryFamily` layer generalizes the
fifteen classic relations into named, parameterized families resolved
through a single entry point (:func:`~repro.core.predicates.
compile_query`).  These tests pin the registry contract, the
range-duration semantics (including the sentinel conventions for
now-relative and infinite rows), the inverse construction the join
strategies rely on, and the cost-model estimate.
"""

import pytest

from repro.core.predicates import (
    DURATION_UNBOUNDED,
    FAMILIES,
    PREDICATES,
    IntervalPredicate,
    QueryFamily,
    compile_query,
    get_family,
    range_duration,
    resolve_join_predicate,
)
from repro.core.ritree import RITree
from repro.core.temporal import UPPER_INF


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
def test_every_classic_relation_is_a_zero_parameter_family():
    for name in PREDICATES:
        family = get_family(name)
        assert family.parameters == ()
        assert compile_query(name) is PREDICATES[name]


def test_parameterized_families_are_registered():
    assert FAMILIES["range_duration"].parameters == ("dmin", "dmax")
    assert FAMILIES["range_duration_by"].parameters == ("dmin", "dmax")


def test_get_family_error_lists_registered_names():
    with pytest.raises(ValueError, match="range_duration"):
        get_family("no-such-family")


def test_compile_rejects_unknown_parameters():
    with pytest.raises(ValueError, match="dmid"):
        FAMILIES["range_duration"].compile(dmid=3)


def test_compile_query_rejects_object_plus_params():
    pred = range_duration(0, 10)
    with pytest.raises(ValueError, match="both"):
        compile_query(pred, {"dmin": 0})


def test_a_family_is_derived_from_its_atoms():
    """An unregistered family: candidates, SQL, defaults and inverse all
    come from the atom conjunction."""
    family = QueryFamily("short", "s <= u, e >= l, e-s <= dmax", ("dmax",))
    pred = family.compile(dmax=5)
    assert pred.name == "short[5]"
    assert pred.candidates(10, 20, None, None) == (10, 20)
    assert pred.sql_refine == '(i."upper" - i."lower") <= :dmax'
    assert pred.holds(0, 10, 8, 9) is False and pred.holds(5, 10, 8, 9) is True
    assert dict(family.compile().params) == {"dmax": DURATION_UNBOUNDED}
    inverse = pred.inverse
    assert inverse.family.atoms == (
        ("e", ">=", "l"),
        ("s", "<=", "u"),
        ("u-l", "<=", "dmax"),
    )
    assert inverse.candidates(0, 9, None, None) is None
    assert inverse.inverse.name == pred.name


@pytest.mark.parametrize(
    "atoms, parameters, message",
    [
        ("e-s >= dmin", ("dmin",), "no candidate range"),
        ("s <= e", (), "must compare"),
        ("s <= u, e >= l", ("k",), "differ"),
        ("s ~ u", (), "must compare"),
    ],
)
def test_a_family_outside_the_algebra_is_refused(atoms, parameters, message):
    with pytest.raises(ValueError, match=message):
        QueryFamily("refused", atoms, parameters)


# ----------------------------------------------------------------------
# range-duration semantics
# ----------------------------------------------------------------------
def test_range_duration_holds_is_intersection_plus_band():
    pred = range_duration(10, 50)
    assert pred.holds(0, 20, 15, 100)  # duration 20, intersects
    assert not pred.holds(0, 5, 15, 100)  # misses the window
    assert not pred.holds(0, 9, 0, 100)  # duration 9 < dmin
    assert not pred.holds(0, 60, 0, 100)  # duration 60 > dmax
    assert pred.holds(30, 80, 15, 100)  # duration 50 == dmax


def test_range_duration_empty_band_rejected():
    with pytest.raises(ValueError, match="empty duration band"):
        range_duration(10, 5)


def test_range_duration_default_band_is_unbounded():
    pred = range_duration()
    assert dict(pred.params) == {"dmin": 0, "dmax": DURATION_UNBOUNDED}
    # The UPPER_INF sentinel duration only fits the unbounded band.
    assert pred.holds(5, UPPER_INF, 0, 100)
    assert not range_duration(0, 10**9).holds(5, UPPER_INF, 0, 100)


def test_range_duration_wire_identity_roundtrips():
    pred = range_duration(5, 500)
    rebuilt = compile_query(pred.family.name, dict(pred.params))
    assert isinstance(rebuilt, IntervalPredicate)
    assert rebuilt.name == pred.name
    assert rebuilt.params == pred.params == (("dmin", 5), ("dmax", 500))


def test_range_duration_inverse_gates_on_probe_duration():
    pred = range_duration(10, 50)
    inverse = pred.inverse
    # A probe whose own duration misses the band is empty at candidate
    # time -- no store access needed.
    assert inverse.candidates(0, 5, None, None) is None
    assert inverse.candidates(0, 30, None, None) == (0, 30)
    # The inverse of the inverse is the direct query again.
    assert inverse.inverse.name == pred.name
    assert inverse.inverse.params == pred.params


def test_range_duration_candidates_cover_the_window():
    assert range_duration(0, 99).candidates(30, 70, None, None) == (30, 70)


def test_range_duration_query_on_a_tree():
    tree = RITree()
    tree.bulk_load([(0, 10, 1), (5, 105, 2), (50, 60, 3), (200, 900, 4)])
    assert sorted(tree.query(0, 100, predicate=range_duration(0, 20))) == [1, 3]
    assert sorted(tree.query(0, 100, predicate=range_duration(50))) == [2]
    assert tree.query(0, 100, predicate=range_duration(701)) == []


# ----------------------------------------------------------------------
# join-predicate resolution (error quality + family acceptance)
# ----------------------------------------------------------------------
def test_resolve_join_predicate_accepts_compiled_families():
    pred = range_duration(0, 10)
    assert resolve_join_predicate(pred) is pred
    assert resolve_join_predicate(None) is None
    assert resolve_join_predicate("intersects") is None


def test_resolve_join_predicate_error_lists_families():
    with pytest.raises(ValueError) as excinfo:
        resolve_join_predicate("range_dur")
    message = str(excinfo.value)
    assert "range_duration" in message
    assert "before" in message


# ----------------------------------------------------------------------
# the cost-model estimate
# ----------------------------------------------------------------------
def test_estimate_prices_duration_selectivity():
    records = [(i * 10, i * 10 + (5 if i % 2 else 500), i) for i in range(200)]
    tree = RITree()
    tree.bulk_load(records)
    summary = tree.analyze().summary
    narrow = range_duration(0, 10).estimate(summary, 0, 2500)
    wide = range_duration(0, 1000).estimate(summary, 0, 2500)
    plain = summary.intersecting(0, 2500)
    # Half the records are short: the narrow band prices below the wide
    # one, and no band prices above the plain intersection.
    assert narrow < wide
    assert wide <= plain * 1.01
