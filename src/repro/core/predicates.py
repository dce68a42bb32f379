"""First-class interval query predicates, compiled per backend.

The paper's Section 4.5 observes that beyond the intersection predicate
"there are 13 more fine-grained temporal relationships between intervals
... also queries based on these specialized predicates are efficiently
supported by the Relational Interval Tree".  This module makes that
family a first-class part of the store API: ``intersects``, ``stab``,
and Allen's thirteen relations are value objects that every
:class:`~repro.core.access.IntervalStore` backend compiles to its own
plan --

* the simulated engine compiles each predicate to one scan plan for its
  batched executor (:meth:`repro.core.ritree.RITree.plan`): a relation
  that pins one subject bound (:attr:`IntervalPredicate.pinned`) gets
  O(h) exact scans of that bound's index along the backbone path, every
  other predicate the Figure 10 plan of its candidate range;
* the sqlite backend rewrites the WHERE clause of the Figure 9
  statement: the transient tables are filled for the predicate's
  *candidate range* and the defining endpoint predicate is appended to
  every branch (:data:`IntervalPredicate.sql_refine`);
* any other store falls back to refining its enumerated records with
  the pure predicate (:meth:`IntervalPredicate.filter`), the oracle the
  compiled plans are tested against.

Semantics: a predicate relates a *subject* interval ``[s, e]`` (a stored
record, or the outer record of a join pair) to a *reference* interval
``[l, u]`` (the query interval, or the inner record).  ``holds(s, e, l,
u)`` is the defining endpoint formula; for Allen relations on proper
intervals it agrees with :func:`relate`, the classifier the tests use as
ground truth.

The join strategies of :mod:`repro.core.join` accept these predicates
too (``interval_join(..., predicate="before")``), in the spirit of
Piatov et al.'s sweeps for extended Allen relation predicates.  For the
*index* strategies, every predicate also knows its :attr:`~
IntervalPredicate.inverse` relation (before/after, meets/met_by,
overlaps/overlapped_by, during/contains, starts/started_by,
finishes/finished_by; intersects and equals are self-inverse): probing a
store per outer tuple asks the *stored-subject* question, so the probe's
candidate range is the inverse relation's.  On proper intervals the
inverse identity ``p.holds(a, b, c, d) == p.inverse.holds(c, d, a, b)``
is exact (Allen's algebra); degenerate (point) intervals may break the
symmetry at shared endpoints, which is why the compiled join plans scan
the inverse's *candidate range* but refine with the direct formula.

Query families
--------------
The fifteen relations above take exactly one reference interval ``[l,
u]``.  Predicates with *extra* parameters -- the range-duration queries
of Ceccarello & Gamper ("overlaps the window AND duration within a
band") being the canonical example -- are modelled as
:class:`QueryFamily` objects: a named, open-ended family whose
:meth:`~QueryFamily.compile` binds a typed parameter bundle and returns
a :class:`CompiledQuery`.  A compiled query IS an
:class:`IntervalPredicate` (same ``holds`` / ``candidates`` /
``sql_refine`` surface, so every backend's existing compilation hook
runs it unchanged) plus the bundle itself: ``family_name`` and
``param_dict`` travel over the service wire, ``sql_binds`` merges the
extra bind parameters into the rewritten Figure 9 statements, and the
optional ``estimator`` hook lets the join cost model price the family's
selectivity beyond the two-bound histograms.  The fifteen classic
relations are re-expressed as zero-parameter families in
:data:`FAMILIES`, so ``compile_query(name, params)`` is the single
resolution entry point for names, predicate objects, and parameterized
families alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .interval import validate_interval

#: The defining endpoint formula: holds(s, e, l, u).
PredicateTest = Callable[[int, int, int, int], bool]

#: Candidate-range transform: (l, u, floor, ceiling) -> (lo, hi) or None.
#: ``floor``/``ceiling`` are the store's smallest lower / largest upper
#: bound (only ``before``/``after`` consult them); ``None`` means the
#: result is provably empty without touching the store.
CandidateRange = Callable[
    [int, int, Optional[int], Optional[int]], Optional[tuple[int, int]]]


@dataclass(frozen=True)
class IntervalPredicate:
    """One interval predicate as a backend-independent value object.

    ``holds`` is the ground truth; ``candidates`` maps the query to the
    intersection range whose result set provably contains every match
    (so any backend's intersection machinery can produce candidates);
    ``sql_refine`` is the residual WHERE fragment the sqlite backend
    appends to the Figure 9 statement (``None`` means the candidates
    are exact and no refinement is needed); ``inverse_name`` names the
    relation with subject and reference swapped (``None`` for ``stab``,
    which relates an interval to a point).

    ``pinned`` names the subject bound (``"lower"`` or ``"upper"``) a
    bound-equality relation fixes to the point its ``candidates``
    return: ``meets``, ``finishes`` and ``finished_by`` pin the upper
    bound (to ``l``, ``u`` and ``u``), ``starts``, ``started_by``,
    ``equals`` and ``met_by`` the lower bound (to ``l``, ``l``, ``l``
    and ``u``).  Every interval with a given bound has its fork node on
    the backbone path toward that bound, so an index over the pinned
    bound answers with O(h) exact scans.  ``needs_extent`` is set when
    ``candidates`` consults the store's ``floor``/``ceiling`` extent
    (``before``/``after``); backends resolve the extent only then.
    """

    name: str
    holds: PredicateTest
    candidates: CandidateRange
    sql_refine: Optional[str]
    inverse_name: Optional[str] = None
    pinned: Optional[str] = None
    needs_extent: bool = False

    @property
    def inverse(self) -> "IntervalPredicate":
        """The subject-swapped relation: ``a p b`` iff ``b p.inverse a``.

        Exact on proper intervals; a join plan probing a store per outer
        tuple scans the inverse's candidate range (the stored record is
        the subject there) and refines with the direct formula.
        """
        if self.inverse_name is None:
            raise ValueError(f"predicate {self.name!r} has no inverse")
        return PREDICATES[self.inverse_name]

    def matches(self, subject: tuple[int, int], reference: tuple[int, int]
                ) -> bool:
        """Does ``subject`` stand in this relation to ``reference``?"""
        s, e = subject
        l, u = reference
        return self.holds(s, e, l, u)

    def filter(self, records: Sequence[tuple[int, int, int]],
               lower: int, upper: int) -> list[int]:
        """Refine ``(lower, upper, id)`` records by the pure predicate.

        The brute-force evaluation every compiled plan must agree with;
        also the generic fallback for stores without a native compile.
        """
        validate_interval(lower, upper)
        holds = self.holds
        return [interval_id for s, e, interval_id in records
                if holds(s, e, lower, upper)]


@dataclass(frozen=True)
class CompiledQuery(IntervalPredicate):
    """An :class:`IntervalPredicate` with a bound parameter bundle.

    Produced by :meth:`QueryFamily.compile`.  Because it *is* a
    predicate, every backend's compilation hook (`_query_relation`,
    the Figure 9 rewrite, the HINT partition filter, the router
    fan-out) runs it without modification; the extra fields carry what
    the classic fifteen relations never needed:

    ``family_name``/``params``
        the wire-format identity -- ``compile_query(family_name,
        param_dict)`` on the far side of the service protocol rebuilds
        an equivalent compiled query (``params`` is a tuple of
        ``(name, value)`` pairs so the object stays hashable).
    ``binds``
        extra named SQL bind parameters (e.g. ``:dmin``/``:dmax``)
        merged into the rewritten one-statement plans; exposed as a
        dict via :attr:`sql_binds`.
    ``inverse_factory``
        builds the subject-swapped compiled query (the classic
        relations resolve inverses by name, which a parameterized
        predicate cannot).
    ``estimator``
        optional cost-model hook ``estimator(summary, lower, upper)``
        returning the expected number of matching stored records for
        reference ``[lower, upper]``; lets the pair count of
        :meth:`~repro.core.costmodel.RITreeCostModel.estimate_join`
        (:func:`~repro.core.costmodel.expected_predicate_pairs`) price
        parameter selectivity (duration bands) that the name-keyed
        histogram formulas cannot see.
    """

    family_name: str = ""
    params: tuple[tuple[str, int], ...] = ()
    binds: tuple[tuple[str, int], ...] = ()
    inverse_factory: Optional[Callable[[], "CompiledQuery"]] = None
    estimator: Optional[Callable[..., float]] = None

    @property
    def param_dict(self) -> dict[str, int]:
        """The parameter bundle as a dict (service wire format)."""
        return dict(self.params)

    @property
    def sql_binds(self) -> dict[str, int]:
        """Extra named bind parameters for the rewritten SQL plans."""
        return dict(self.binds)

    @property
    def inverse(self) -> IntervalPredicate:
        if self.inverse_factory is not None:
            return self.inverse_factory()
        return IntervalPredicate.inverse.fget(self)


def _whole_query(l, u, floor, ceiling):
    return (l, u)


def _stab_lower(l, u, floor, ceiling):
    return (l, l)


def _stab_upper(l, u, floor, ceiling):
    return (u, u)


def _strictly_before(l, u, floor, ceiling):
    if floor is None or floor > l - 1:
        return None
    return (floor, l - 1)


def _strictly_after(l, u, floor, ceiling):
    if ceiling is None or u + 1 > ceiling:
        return None
    return (u + 1, ceiling)


#: The fifteen predicates of the store API.  Candidate-range soundness:
#: every relation except before/after forces the subject to intersect
#: the listed range (bound-equality and containment relations pin a
#: shared coordinate; ``during`` implies intersection with the query
#: itself), and before/after intersect the data-space envelope clipped
#: at the query bound.  A pinned relation's candidate range is the
#: single point its pinned bound must equal.
PREDICATES: dict[str, IntervalPredicate] = {
    predicate.name: predicate for predicate in (
        IntervalPredicate(
            "intersects",
            lambda s, e, l, u: s <= u and e >= l,
            _whole_query, None, "intersects"),
        IntervalPredicate(
            "stab",
            lambda s, e, l, u: s <= l and e >= l,
            _stab_lower, None, None),
        IntervalPredicate(
            "before",
            lambda s, e, l, u: e < l,
            _strictly_before, 'i."upper" < :lower', "after",
            needs_extent=True),
        IntervalPredicate(
            "after",
            lambda s, e, l, u: s > u,
            _strictly_after, 'i."lower" > :upper', "before",
            needs_extent=True),
        IntervalPredicate(
            "meets",
            lambda s, e, l, u: e == l and s < l,
            _stab_lower, 'i."upper" = :lower AND i."lower" < :lower',
            "met_by", pinned="upper"),
        IntervalPredicate(
            "met_by",
            lambda s, e, l, u: s == u and e > u,
            _stab_upper, 'i."lower" = :upper AND i."upper" > :upper',
            "meets", pinned="lower"),
        IntervalPredicate(
            "overlaps",
            lambda s, e, l, u: s < l < e < u,
            _stab_lower,
            'i."lower" < :lower AND i."upper" > :lower '
            'AND i."upper" < :upper',
            "overlapped_by"),
        IntervalPredicate(
            "overlapped_by",
            lambda s, e, l, u: l < s < u < e,
            _stab_upper,
            'i."lower" > :lower AND i."lower" < :upper '
            'AND i."upper" > :upper',
            "overlaps"),
        IntervalPredicate(
            "during",
            lambda s, e, l, u: l < s and e < u,
            _whole_query, 'i."lower" > :lower AND i."upper" < :upper',
            "contains"),
        IntervalPredicate(
            "contains",
            lambda s, e, l, u: s < l and u < e,
            _stab_lower, 'i."lower" < :lower AND i."upper" > :upper',
            "during"),
        IntervalPredicate(
            "starts",
            lambda s, e, l, u: s == l and e < u,
            _stab_lower, 'i."lower" = :lower AND i."upper" < :upper',
            "started_by", pinned="lower"),
        IntervalPredicate(
            "started_by",
            lambda s, e, l, u: s == l and e > u,
            _stab_lower, 'i."lower" = :lower AND i."upper" > :upper',
            "starts", pinned="lower"),
        IntervalPredicate(
            "finishes",
            lambda s, e, l, u: e == u and s > l,
            _stab_upper, 'i."upper" = :upper AND i."lower" > :lower',
            "finished_by", pinned="upper"),
        IntervalPredicate(
            "finished_by",
            lambda s, e, l, u: e == u and s < l,
            _stab_upper, 'i."upper" = :upper AND i."lower" < :lower',
            "finishes", pinned="upper"),
        IntervalPredicate(
            "equals",
            lambda s, e, l, u: s == l and e == u,
            _stab_lower, 'i."lower" = :lower AND i."upper" = :upper',
            "equals", pinned="lower"),
    )
}

#: The predicates meaningful as join predicates (``stab`` relates an
#: interval to a point, not to another interval).
JOIN_PREDICATES = tuple(name for name in PREDICATES if name != "stab")

#: Allen's thirteen relations in canonical order.
ALLEN_RELATIONS = (
    "before",
    "meets",
    "overlaps",
    "finished_by",
    "contains",
    "starts",
    "equals",
    "started_by",
    "during",
    "finishes",
    "overlapped_by",
    "met_by",
    "after",
)


def relate(s: int, e: int, l: int, u: int) -> str:
    """Classify stored ``[s, e]`` against query ``[l, u]``.

    Returns the unique Allen relation for proper intervals
    (``lower < upper``); the thirteen are mutually exclusive and jointly
    exhaustive there.  Written independently of the ``holds`` formulas
    so that tests can check them against it.
    """
    if e < l:
        return "before"
    if s > u:
        return "after"
    if e == l and s < l:
        return "meets"
    if s == u and e > u:
        return "met_by"
    if s == l and e == u:
        return "equals"
    if s == l:
        return "starts" if e < u else "started_by"
    if e == u:
        return "finishes" if s > l else "finished_by"
    if s < l:
        return "contains" if e > u else "overlaps"
    return "during" if e < u else "overlapped_by"


@dataclass(frozen=True)
class QueryFamily:
    """A named, parameterized family of interval predicates.

    ``compile(**params)`` binds a typed parameter bundle and returns
    the concrete :class:`IntervalPredicate` (usually a
    :class:`CompiledQuery`) every backend then compiles natively.  The
    fifteen classic relations are zero-parameter families, so the
    family registry is the one open extension seam: a new query class
    registers a factory here and rides through every backend, the
    service wire, and the cost model without further per-layer work.
    """

    name: str
    parameters: tuple[str, ...]
    factory: Callable[..., IntervalPredicate]
    description: str = ""

    def compile(self, **params) -> IntervalPredicate:
        """Bind ``params`` and return the compiled predicate."""
        unknown = sorted(set(params) - set(self.parameters))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for query family "
                f"{self.name!r}; accepted parameters: "
                f"{list(self.parameters)}")
        return self.factory(**params)


#: Durations are at most ``UPPER_INF - lower`` (< 2**61); this stands
#: in for "no upper duration bound" while keeping the bundle integral
#: for the SQL binds and the service wire.
DURATION_UNBOUNDED = 1 << 62


def range_duration(dmin: int = 0,
                   dmax: Optional[int] = None) -> CompiledQuery:
    """Compile a range-duration query: intersection plus duration band.

    The subject ``[s, e]`` matches reference ``[l, u]`` iff it
    intersects the window *and* ``dmin <= e - s <= dmax`` (Ceccarello &
    Gamper's range-duration predicate).  Durations are evaluated on
    *effective* bounds everywhere: now-relative rows materialize the
    store clock, while still-open ``UPPER_INF`` rows keep the sentinel
    and therefore only match unbounded (``dmax=None``) bands.

    The candidate range is the whole query window -- duration is a
    derived column the RI-tree does not index, so every backend fetches
    the Figure 9/10 intersection candidates and refines with the band:
    the engine trees filter fetched leaf slices, sqlite appends the
    ``(upper - lower) BETWEEN :dmin AND :dmax`` fragment to both
    branches of the one-statement plan, HINT filters its partition
    slices.  The inverse (reference-subject) compiled query is exact at
    candidate time: a probe whose own duration misses the band is
    provably empty before touching the store.
    """
    if dmax is None:
        dmax = DURATION_UNBOUNDED
    dmin, dmax = int(dmin), int(dmax)
    if dmin > dmax:
        raise ValueError(
            f"empty duration band: dmin={dmin} exceeds dmax={dmax}")
    params = (("dmin", dmin), ("dmax", dmax))

    def _direct_estimate(summary, lower, upper):
        return (summary.relation_count("intersects", lower, upper)
                * summary.duration_fraction(dmin, dmax))

    def _inverse_estimate(summary, lower, upper):
        if dmin <= upper - lower <= dmax:
            return summary.relation_count("intersects", lower, upper)
        return 0.0

    def _inverse() -> CompiledQuery:
        return CompiledQuery(
            name=f"range_duration_by[{dmin},{dmax}]",
            holds=lambda s, e, l, u:
                s <= u and e >= l and dmin <= u - l <= dmax,
            candidates=lambda l, u, floor, ceiling:
                (l, u) if dmin <= u - l <= dmax else None,
            sql_refine='(:upper - :lower) BETWEEN :dmin AND :dmax',
            inverse_name=None,
            family_name="range_duration_by",
            params=params,
            binds=params,
            inverse_factory=lambda: range_duration(dmin, dmax),
            estimator=_inverse_estimate,
        )

    return CompiledQuery(
        name=f"range_duration[{dmin},{dmax}]",
        holds=lambda s, e, l, u:
            s <= u and e >= l and dmin <= e - s <= dmax,
        candidates=_whole_query,
        sql_refine='(i."upper" - i."lower") BETWEEN :dmin AND :dmax',
        inverse_name=None,
        family_name="range_duration",
        params=params,
        binds=params,
        inverse_factory=_inverse,
        estimator=_direct_estimate,
    )


def _range_duration_by(dmin: int = 0,
                       dmax: Optional[int] = None) -> CompiledQuery:
    return range_duration(dmin, dmax).inverse


def _constant_family(predicate: IntervalPredicate) -> QueryFamily:
    return QueryFamily(
        name=predicate.name,
        parameters=(),
        factory=lambda predicate=predicate: predicate,
        description=f"the classic {predicate.name!r} relation",
    )


#: Every registered query family: the fifteen classic relations as
#: zero-parameter families plus the parameterized families.  Keyed by
#: family name; values resolve through :func:`compile_query`.
FAMILIES: dict[str, QueryFamily] = {
    name: _constant_family(predicate)
    for name, predicate in PREDICATES.items()
}
FAMILIES["range_duration"] = QueryFamily(
    name="range_duration",
    parameters=("dmin", "dmax"),
    factory=range_duration,
    description="intersects the window AND duration within [dmin, dmax]",
)
FAMILIES["range_duration_by"] = QueryFamily(
    name="range_duration_by",
    parameters=("dmin", "dmax"),
    factory=_range_duration_by,
    description="intersects a reference whose duration is within "
                "[dmin, dmax] (the range-duration inverse)",
)


def register_family(family: QueryFamily) -> QueryFamily:
    """Register a new query family; returns it for decorator-ish use."""
    if family.name in FAMILIES:
        raise ValueError(
            f"query family {family.name!r} is already registered")
    FAMILIES[family.name] = family
    return family


def get_family(family) -> QueryFamily:
    """Resolve a query family given by name or already as an object."""
    if isinstance(family, QueryFamily):
        return family
    try:
        return FAMILIES[family]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown query family {family!r}; registered families: "
            f"{sorted(FAMILIES)}") from None


def compile_query(predicate, params=None) -> IntervalPredicate:
    """The single resolution entry point for every predicate spelling.

    ``predicate`` may be an :class:`IntervalPredicate` (returned as
    is), a classic relation name, or a family name; ``params`` is the
    optional parameter bundle (any mapping or pair iterable) bound via
    the family's factory.  This is what the service ops use to rebuild
    a compiled query from its wire form (``family_name`` +
    ``param_dict``).
    """
    if isinstance(predicate, IntervalPredicate):
        if params:
            raise ValueError(
                "compile_query() got both a predicate object and a "
                "parameter bundle; pass the family name with params=")
        return predicate
    if params:
        return get_family(predicate).compile(**dict(params))
    if isinstance(predicate, str) and predicate in PREDICATES:
        return PREDICATES[predicate]
    return get_family(predicate).compile()


def get_predicate(predicate) -> IntervalPredicate:
    """Resolve a predicate given by name or already as an object."""
    if isinstance(predicate, IntervalPredicate):
        return predicate
    try:
        return PREDICATES[predicate]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown interval predicate {predicate!r}; expected one of "
            f"{sorted(PREDICATES)}, or a query family compiled from "
            f"{sorted(FAMILIES)}") from None


def resolve_join_predicate(predicate) -> Optional[IntervalPredicate]:
    """Validate a join predicate; ``None``/``intersects`` mean the default.

    A join pair ``(r, s)`` satisfies predicate ``p`` iff ``p.holds(r_l,
    r_u, s_l, s_u)`` -- the *outer* record is the subject, so
    ``predicate="before"`` joins outer intervals to the inner intervals
    they lie before.  Shared by every join entry point (the strategies
    of :mod:`repro.core.join`, ``join_pairs``/``join_count`` on the
    stores, the cost model's join estimators).
    """
    if predicate is None:
        return None
    try:
        pred = compile_query(predicate)
    except ValueError:
        raise ValueError(
            f"unknown join predicate {predicate!r}; expected one of "
            f"{sorted(JOIN_PREDICATES)}, a registered query family from "
            f"{sorted(FAMILIES)}, or a compiled predicate object"
        ) from None
    if pred.name == "stab":
        raise ValueError(
            "'stab' relates an interval to a point and cannot serve as a "
            "join predicate; use a store's stab()/query() instead"
        )
    if pred.name == "intersects":
        return None
    return pred

