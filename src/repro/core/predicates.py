"""Interval query predicates in one algebra, compiled per backend.

The paper's Section 4.5 notes that "13 more fine-grained temporal
relationships between intervals" are "efficiently supported by the
Relational Interval Tree".  Here every predicate -- ``intersects``,
``stab``, Allen's thirteen relations and the parameterized families such
as Ceccarello & Gamper's range-duration band -- is a :class:`QueryFamily`:
a name, its parameter names and a conjunction of *atoms*.  An atom
compares two terms: the subject bounds ``s``, ``e`` (a stored record, or
a join's outer record), the reference bounds ``l``, ``u`` (the query, or
the inner record), the durations ``e-s``, ``u-l``, or a parameter.
``overlaps`` is ``s < l, e > l, e < u``; ``range_duration`` is
``s <= u, e >= l, e-s >= dmin, e-s <= dmax``.

Derived from the atoms once per family: ``holds`` (one Python function),
``sql_refine`` (the atoms the candidate range does not imply, in
sqlite's dialect), the candidate range and its ``needs_extent``,
``disjoint`` and ``pinned`` shape, the inverse (``s`` swapped with
``l``, ``e`` with ``u``, exact on every interval) and the cost model's
:meth:`IntervalPredicate.estimate`.  Every backend evaluates a compiled
:class:`IntervalPredicate` on its own index: the candidate range's scan
plan refined by ``holds`` (:meth:`repro.core.ritree.RITree.plan`, the
HINT partition walk), the Figure 9 statement refined by ``sql_refine``
(sqlite), or :meth:`IntervalPredicate.filter` over enumerated records,
the oracle the compiled plans are tested against.  Joins take the outer
record as the subject and probe stores with the inverse.

:func:`compile_query` resolves relation names, family names with a
parameter bundle and predicate objects; :func:`relate` classifies a pair
of proper intervals independently of the atoms, as ground truth for the
tests.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Sequence

from .interval import validate_interval

#: One atom ``(left, op, right)``; ``left`` is a term, ``right`` a term
#: or a parameter name.
Atom = tuple[str, str, str]

#: Durations are at most ``UPPER_INF - lower`` (< 2**61); this stands
#: in for "no upper duration bound" while keeping the bundle integral
#: for the SQL binds and the service wire.
DURATION_UNBOUNDED = 1 << 62

#: The subject-reference swap; its keys are the terms an atom compares.
_SWAP = {"s": "l", "e": "u", "l": "s", "u": "e", "e-s": "u-l", "u-l": "e-s"}
_FLIP = {"<": ">", "<=": ">=", "==": "==", ">=": "<=", ">": "<"}


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


#: The candidate ranges that need no store extent, narrowest first, and
#: the atoms of the subject's intersection with the window they return.
_WINDOWS = {
    _stab_lower: (("s", "<=", "l"), ("e", ">=", "l")),
    _stab_upper: (("s", "<=", "u"), ("e", ">=", "u")),
    _whole_query: (("s", "<=", "u"), ("e", ">=", "l")),
}

#: ``(terms, parameter, equality, conjunction, band)`` of one dialect.
_PYTHON = (
    {"s": "s", "e": "e", "l": "l", "u": "u", "e-s": "e - s", "u-l": "u - l"},
    "{}",
    "==",
    " and ",
    "{1} <= {0} <= {2}",
)
_SQLITE = (
    {
        "s": 'i."lower"',
        "e": 'i."upper"',
        "l": ":lower",
        "u": ":upper",
        "e-s": '(i."upper" - i."lower")',
        "u-l": "(:upper - :lower)",
    },
    ":{}",
    "=",
    " AND ",
    "{0} BETWEEN {1} AND {2}",
)


def _render(atoms: Sequence[Atom], dialect) -> str:
    """The conjunction of ``atoms`` as one expression of ``dialect``.

    A ``>=`` atom followed by a ``<=`` atom on the same term renders as
    one band (``a <= t <= b`` in Python, ``t BETWEEN a AND b`` in SQL).
    """
    terms, parameter, equality, conjunction, band = dialect

    def term(name: str) -> str:
        return terms[name] if name in terms else parameter.format(name)

    parts = []
    rest = list(atoms)
    while rest:
        left, op, right = rest.pop(0)
        if op == ">=" and rest and rest[0][:2] == (left, "<="):
            high = rest.pop(0)[2]
            parts.append(band.format(term(left), term(right), term(high)))
        else:
            op = equality if op == "==" else op
            parts.append(f"{term(left)} {op} {term(right)}")
    return conjunction.join(parts)


def _implies(atoms: Sequence[Atom], atom: Atom) -> bool:
    """Do ``atoms`` (with ``s <= e`` and ``l <= u``) imply ``atom``?

    Decided for the two atoms a window's intersection is made of,
    ``s <= T`` and ``e >= T``; any other atom only by its presence.
    Because ``s <= e``, either subject bound at most ``T`` puts ``s`` at
    most ``T``, and either bound at least ``T`` puts ``e`` at least
    ``T``; because ``l <= u``, a bound below ``l`` is below ``u``.
    """
    left, op, right = atom
    if (left, op) == ("s", "<="):
        ops, looser = ("<", "<=", "=="), ("l", "u")
    elif (left, op) == ("e", ">="):
        ops, looser = (">", ">=", "=="), ("u", "l")
    else:
        return atom in atoms
    return any(
        a_left in ("s", "e")
        and a_op in ops
        and (a_right == right or (a_right, right) == looser)
        for a_left, a_op, a_right in atoms
    )


def _limits(family: str, atoms: Sequence[Atom], inclusive: int) -> tuple:
    """``(low, high)`` of one term, each ``(term, offset)`` or ``None``.

    ``atoms`` all bound the same term, at most one from each side.  The
    low is the largest value the term exceeds (``inclusive=0``, a CDF's
    exclusive end) or the smallest it may take (``inclusive=1``); the
    high is the largest value it may take.
    """
    lows = [(r, inclusive - (o != ">")) for _, o, r in atoms if o in (">", ">=", "==")]
    highs = [(r, -(o == "<")) for _, o, r in atoms if o in ("<", "<=", "==")]
    if len(lows) > 1 or len(highs) > 1:
        raise ValueError(f"query family {family!r}: two limits on one side of a term")
    return (lows or [None])[0], (highs or [None])[0]


class QueryFamily:
    """A named conjunction of atoms over the subject, the reference and
    the parameters; :meth:`compile` binds the parameters.

    Everything else is derived here, once per family: ``candidates``
    (the rule-chosen candidate-range function), ``needs_extent`` (it
    reads the store's ``floor``/``ceiling``), ``disjoint`` (the subject
    bound that lies outside the reference in a single ``e < l``
    (``"upper"``) or ``s > u`` (``"lower"``) atom; the sweep and HINT
    answer those by bisection), ``pinned`` (the subject bound an
    equality atom fixes to the candidate point), ``residual`` (the atoms
    the candidate range's intersection does not imply), ``sql_refine``
    (the residual in sqlite's dialect, ``None`` when the candidates are
    exact) and :attr:`inverse`.
    """

    def __init__(
        self,
        name: str,
        atoms: str | Sequence[Atom],
        parameters: Sequence[str] = (),
    ) -> None:
        if isinstance(atoms, str):
            atoms = [tuple(atom.split()) for atom in atoms.split(",")]
        self.name = name
        self.atoms: tuple[Atom, ...] = tuple(tuple(atom) for atom in atoms)
        self.parameters = tuple(parameters)
        bound, durations, reference = self._classify()
        self.disjoint = None
        self.pinned = None
        pin = next((atom for atom in bound if atom[1] == "=="), None)
        if self.atoms == (("e", "<", "l"),):
            candidates, self.disjoint = _strictly_before, "upper"
        elif self.atoms == (("s", ">", "u"),):
            candidates, self.disjoint = _strictly_after, "lower"
        elif pin is not None:
            self.pinned = "lower" if pin[0] == "s" else "upper"
            candidates = _stab_lower if pin[2] == "l" else _stab_upper
        else:
            for candidates, window in _WINDOWS.items():
                if all(_implies(self.atoms, atom) for atom in window):
                    break
            else:
                raise ValueError(
                    f"query family {name!r}: the atoms imply no candidate range"
                )
        self.needs_extent = self.disjoint is not None
        window = _WINDOWS.get(candidates, ())
        self.residual = tuple(a for a in self.atoms if not _implies(window, a))
        self.sql_refine = _render(self.residual, _SQLITE) if self.residual else None
        # The estimate's plan: equality point masses, or per-bound CDF
        # limits (lower bound first), and the duration band.
        self._points = [
            ("point_lower" if left == "s" else "point_upper", right)
            for left, op, right in bound
            if op == "=="
        ]
        self._exact = not any(atom in self.residual for atom in bound)
        self._bounds = [
            (cdf, *_limits(name, [a for a in bound if a[0] == side], 0))
            for side, cdf in (("s", "cdf_lower"), ("e", "cdf_upper"))
            if any(a[0] == side for a in bound) and not self._points
        ]
        # The parameters bound one duration: a low one defaults to 0, a
        # high one to DURATION_UNBOUNDED, and the band must not be empty.
        self._band = _limits(name, [a for a in self.atoms if a[2] in parameters], 1)
        self._duration = bool(durations)
        self._bind = self._render_bind(candidates, reference)
        self._constant = None if self.parameters else self._compiled(())

    def _classify(self) -> tuple[list, list, list]:
        """The subject-bound, subject-duration and reference-only atoms;
        an atom of no kind is refused."""
        kinds: tuple[list, list, list] = ([], [], [])
        for atom in self.atoms:
            left, op, right = atom
            param = right in self.parameters
            if op not in _FLIP:
                kind = None
            elif left in ("s", "e") and right in ("l", "u"):
                kind = 0
            elif left == "e-s" and param:
                kind = 1
            elif left in ("l", "u", "u-l") and (param or right in ("l", "u")):
                kind = 2
            else:
                kind = None
            if kind is None:
                raise ValueError(
                    f"query family {self.name!r}: atom {' '.join(atom)!r} must "
                    f"compare s or e with l or u, or e-s, u-l, l or u with a "
                    f"parameter of {self.parameters}"
                )
            kinds[kind].append(atom)
        named = {atom[2] for atom in self.atoms} - set(_SWAP)
        if named != set(self.parameters):
            raise ValueError(
                f"query family {self.name!r}: parameters {self.parameters} "
                f"differ from those its atoms name, {sorted(named)}"
            )
        return kinds

    def _render_bind(self, candidates, reference: list) -> Callable:
        """Compile ``bind(*values) -> (holds, candidates)`` once.

        ``holds`` is the conjunction of every atom as one Python
        function, so each call is one interpreter frame; reference-only
        atoms also guard the candidate window, which is then inlined.
        """
        source = [
            f"def bind({', '.join(self.parameters)}):",
            "    def holds(s, e, l, u):",
            f"        return {_render(self.atoms, _PYTHON)}",
            "    return holds, candidates",
        ]
        if reference:
            (_, _, hi), (_, _, lo) = _WINDOWS[candidates]
            source[3:3] = [
                "    def candidates(l, u, floor, ceiling):",
                f"        if {_render(reference, _PYTHON)}:",
                f"            return ({lo}, {hi})",
                "        return None",
            ]
        namespace = {"candidates": candidates}
        exec("\n".join(source), namespace)
        return namespace["bind"]

    def _compiled(self, values: tuple) -> IntervalPredicate:
        name = f"{self.name}[{','.join(map(str, values))}]" if values else self.name
        params = tuple(zip(self.parameters, values))
        return IntervalPredicate(name, self, params, *self._bind(*values))

    def compile(self, **params) -> IntervalPredicate:
        """Bind ``params`` and return the compiled predicate.

        A parameter left out (or ``None``) takes its band's open end:
        ``0`` below, :data:`DURATION_UNBOUNDED` above.
        """
        if self._constant is not None and not params:
            return self._constant
        unknown = sorted(set(params) - set(self.parameters))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for query family "
                f"{self.name!r}; accepted parameters: {list(self.parameters)}"
            )
        band = {}
        for limit, default in zip(self._band, (0, DURATION_UNBOUNDED)):
            if limit is not None:
                value = params.get(limit[0])
                band[limit[0]] = default if value is None else int(value)
        if len(band) == 2:
            (low, lo), (high, hi) = band.items()
            if lo > hi:
                raise ValueError(f"empty duration band: {low}={lo} exceeds {high}={hi}")
        return self._compiled(tuple(map(band.__getitem__, self.parameters)))

    @cached_property
    def inverse(self) -> QueryFamily:
        """The subject-swapped family: ``s`` with ``l``, ``e`` with ``u``.

        The registered family with the same atoms (in any order) when
        there is one -- ``before``/``after``, ``range_duration``/
        ``range_duration_by`` -- else a new, unregistered family whose
        inverse is this one.
        """
        atoms = []
        for left, op, right in self.atoms:
            left, right = _SWAP[left], _SWAP.get(right, right)
            if right in ("s", "e"):
                left, op, right = right, _FLIP[op], left
            atoms.append((left, op, right))
        swapped = set(atoms)
        for family in FAMILIES.values():
            if family.parameters == self.parameters and set(family.atoms) == swapped:
                return family
        inverse = QueryFamily(f"inverse({self.name})", atoms, self.parameters)
        inverse.__dict__["inverse"] = self
        return inverse


class IntervalPredicate:
    """One :class:`QueryFamily` bound to its parameter values.

    ``holds`` is the ground truth; ``candidates`` maps the query to the
    window whose intersecting records provably contain every match
    (``None`` means provably empty); ``sql_refine``, ``pinned``,
    ``needs_extent`` and ``disjoint`` are the family's derived fields,
    copied here so the per-query code reads plain attributes.
    ``params`` is the ``(name, value)`` bundle (a tuple, so the object
    stays hashable): the service wire ships ``family.name`` with it, and
    it is the set of extra SQL bind parameters.
    """

    __slots__ = (
        "name",
        "family",
        "params",
        "holds",
        "candidates",
        "sql_refine",
        "pinned",
        "needs_extent",
        "disjoint",
    )

    def __init__(self, name, family, params, holds, candidates) -> None:
        self.name = name
        self.family = family
        self.params = params
        self.holds = holds
        self.candidates = candidates
        self.sql_refine = family.sql_refine
        self.pinned = family.pinned
        self.needs_extent = family.needs_extent
        self.disjoint = family.disjoint

    def __repr__(self) -> str:
        return f"IntervalPredicate({self.name!r})"

    @property
    def inverse(self) -> IntervalPredicate:
        """The subject-swapped predicate: ``a p b`` iff ``b p.inverse a``.

        A join plan probing a store per outer tuple scans the inverse's
        candidate range (the stored record is the subject there).
        """
        return self.family.inverse.compile(**dict(self.params))

    def filter(
        self, records: Sequence[tuple[int, int, int]], lower: int, upper: int
    ) -> list[int]:
        """Refine ``(lower, upper, id)`` records by the pure predicate.

        The brute-force evaluation every compiled plan must agree with;
        also the generic fallback for stores without a native compile.
        """
        validate_interval(lower, upper)
        holds = self.holds
        return [i for s, e, i in records if holds(s, e, lower, upper)]

    def estimate(self, summary, lower: int, upper: int) -> float:
        """Expected records of ``summary`` standing in this relation to
        ``[lower, upper]``, from the bound marginals alone.

        ``summary`` is a :class:`~repro.core.costmodel.BoundSummary`.  A
        failed reference-only atom gives 0.  A pinned relation costs the
        smallest point mass of its equality atoms (its strict side
        conditions are dropped: the planner needs order-of-magnitude
        fidelity, not unbiasedness).  When the atoms are exactly the
        candidate range's intersection, the estimate is that
        intersection count; otherwise it is the product of the per-bound
        CDF masses (an independence approximation), capped at the
        candidate intersection count unless the candidates read the
        extent.  Duration atoms multiply by the duration histogram's
        band fraction.
        """
        n = summary.count
        if n == 0:
            return 0.0
        family = self.family
        candidate = None
        if not family.needs_extent:
            candidate = self.candidates(lower, upper, None, None)
            if candidate is None:
                return 0.0
        values = {"l": lower, "u": upper}
        if self.params:
            values.update(self.params)
        if family.pinned is not None:
            count = n * min(
                getattr(summary, point)(values[term]) for point, term in family._points
            )
        elif family._exact:
            count = summary.intersecting(*candidate)
        else:
            mass = 1.0
            for cdf, low, high in family._bounds:
                cdf = getattr(summary, cdf)
                above = 1.0 if high is None else cdf(values[high[0]] + high[1])
                below = 0.0 if low is None else cdf(values[low[0]] + low[1])
                mass *= max(0.0, above - below)
            count = n * mass
            if candidate is not None:
                count = min(count, summary.intersecting(*candidate))
        if family._duration:
            low, high = family._band
            count *= summary.duration_fraction(
                0 if low is None else values[low[0]] + low[1],
                DURATION_UNBOUNDED if high is None else values[high[0]] + high[1],
            )
        return count


#: Every registered query family: the fifteen classic relations as
#: zero-parameter families, then the parameterized families.  Adding a
#: family means adding its atom conjunction here.
FAMILIES: dict[str, QueryFamily] = {
    family.name: family
    for family in (
        QueryFamily("intersects", "s <= u, e >= l"),
        QueryFamily("stab", "s <= l, e >= l"),
        QueryFamily("before", "e < l"),
        QueryFamily("after", "s > u"),
        QueryFamily("meets", "e == l, s < l"),
        QueryFamily("met_by", "s == u, e > u"),
        QueryFamily("overlaps", "s < l, e > l, e < u"),
        QueryFamily("overlapped_by", "s > l, s < u, e > u"),
        QueryFamily("during", "s > l, e < u"),
        QueryFamily("contains", "s < l, e > u"),
        QueryFamily("starts", "s == l, e < u"),
        QueryFamily("started_by", "s == l, e > u"),
        QueryFamily("finishes", "e == u, s > l"),
        QueryFamily("finished_by", "e == u, s < l"),
        QueryFamily("equals", "s == l, e == u"),
        # Intersects the window and lasts dmin to dmax; then its inverse,
        # which intersects a reference lasting dmin to dmax.
        QueryFamily(
            "range_duration",
            "s <= u, e >= l, e-s >= dmin, e-s <= dmax",
            ("dmin", "dmax"),
        ),
        QueryFamily(
            "range_duration_by",
            "s <= u, e >= l, u-l >= dmin, u-l <= dmax",
            ("dmin", "dmax"),
        ),
    )
}

#: The fifteen predicates of the store API, compiled once.
PREDICATES: dict[str, IntervalPredicate] = {
    name: family.compile() for name, family in FAMILIES.items() if not family.parameters
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
    exhaustive there.  Written independently of the atoms so that tests
    can check them against it.
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


def range_duration(dmin: int = 0, dmax: Optional[int] = None) -> IntervalPredicate:
    """Compile a range-duration query: intersection plus duration band.

    The subject ``[s, e]`` matches reference ``[l, u]`` iff it
    intersects the window *and* ``dmin <= e - s <= dmax`` (Ceccarello &
    Gamper's range-duration predicate); ``dmax=None`` is unbounded.
    Durations are evaluated on *effective* bounds everywhere:
    now-relative rows materialize the store clock, while still-open
    ``UPPER_INF`` rows keep the sentinel and therefore only match
    unbounded bands.  Duration is a derived column the RI-tree does not
    index, so every backend fetches the intersection candidates of the
    window and refines with the band.
    """
    return FAMILIES["range_duration"].compile(dmin=dmin, dmax=dmax)


def get_family(family) -> QueryFamily:
    """Resolve a query family given by name or already as an object."""
    if isinstance(family, QueryFamily):
        return family
    try:
        return FAMILIES[family]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown query family {family!r}; registered families: "
            f"{sorted(FAMILIES)}"
        ) from None


def compile_query(predicate, params=None) -> IntervalPredicate:
    """The single resolution entry point for every predicate spelling.

    ``predicate`` may be an :class:`IntervalPredicate` (returned as
    is), a classic relation name, or a family name; ``params`` is the
    optional parameter bundle (any mapping or pair iterable) bound via
    :meth:`QueryFamily.compile`.  This is what the service ops use to
    rebuild a compiled query from its wire form (``family.name`` +
    ``params``).
    """
    if isinstance(predicate, IntervalPredicate):
        if params:
            raise ValueError(
                "compile_query() got both a predicate object and a "
                "parameter bundle; pass the family name with params="
            )
        return predicate
    if params:
        return get_family(predicate).compile(**dict(params))
    if isinstance(predicate, str) and predicate in PREDICATES:
        return PREDICATES[predicate]
    return get_family(predicate).compile()


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
