"""SQL for the RI-tree: the paper's relation and queries as sqlite plans them.

Figure 2 of the paper::

    CREATE TABLE Intervals (node int, lower int, upper int, id int);
    CREATE INDEX lowerIndex ON Intervals (node, lower);
    CREATE INDEX upperIndex ON Intervals (node, upper);

Section 4.3 adds: "For this example the attribute id was included in the
indexes".  The index layout here (:data:`INDEX_COLUMNS`) keeps Figure 2's
key prefixes and Section 4.3's ``id``, and also carries the *other*
bound in each index: ``lowerIndex (node, lower, upper, id)`` and
``upperIndex (node, upper, lower, id)``.  Every seek is the paper's, but
a predicate or family refinement reads both bounds (Allen's relations,
the ``range_duration`` band), and with both bounds in the entry sqlite
answers it from the index alone (``USING COVERING INDEX``) instead of
seeking the table once per candidate row.  Section 5 calls for "a
persistent data dictionary ... to store index specific system parameters
such as root or minstep"; that is the ``{name}_params`` table.

The final intersection query is Figure 9 with its ``leftNodes`` branch
split by row shape (:func:`figure9_sql`): sqlite plans the Figure 10
seek ``upperIndex (node=? AND upper>?)`` only for an equality on
``node``, not behind the folded ``BETWEEN``.  Single-node rows take the
equality, the Section 4.3 fold row keeps the ``BETWEEN``, and the
relations and results stay the paper's.

Beyond the paper's single-query statements, :func:`figure9_sql` builds
the *set-at-a-time* variant used by the unified store API: the transient
node tables gain batch twins keyed by a probe id, so a whole probe
relation (an ``intersection_many`` batch, the outer side of an interval
join) is answered by ONE statement -- the same Figure 9 form joined
against the probe relation, leaving the nested-loop plan to the
engine's own optimizer.  :class:`~repro.sql.SQLRITree` compiles every
query from these two functions; predicates refine the form with a
WHERE fragment (:func:`join_refine_fragment` on the batch side).

Column names are double-quoted because ``lower`` and ``upper`` collide with
SQL function names on some engines.
"""

from __future__ import annotations

from typing import Optional

from ..core.temporal import FORK_NOW

#: The stored row's *effective* upper bound: now-relative rows (reserved
#: fork node of Section 4.6) grow with the clock, so predicate
#: refinements read their upper bound from the ``:now`` parameter; the
#: ``UPPER_INF`` sentinel of infinite rows already behaves as +infinity
#: under every endpoint comparison inside the supported data space.
EFFECTIVE_UPPER = (
    f'(CASE WHEN i."node" = {FORK_NOW} THEN :now ELSE i."upper" END)'
)


#: The two composite indexes, by name suffix: Figure 2's ``(node, bound)``
#: key, then the other bound, then Section 4.3's ``id``.
INDEX_COLUMNS = {
    "lowerIndex": ("node", "lower", "upper", "id"),
    "upperIndex": ("node", "upper", "lower", "id"),
}


def create_interval_table(name: str = "Intervals") -> list[str]:
    """DDL statements instantiating an RI-tree relation.

    The relation of Figure 2 and its two indexes in the
    :data:`INDEX_COLUMNS` layout: Figure 2's key prefixes, so every seek
    of the Figure 9 statement is the paper's, plus Section 4.3's ``id``
    and the other bound, so predicate and family refinements, which
    read both bounds, never touch the table.
    """
    indexes = [
        f"CREATE INDEX {name}_{suffix} ON {name} ("
        + ", ".join(f'"{column}"' for column in columns)
        + ")"
        for suffix, columns in INDEX_COLUMNS.items()
    ]
    return [
        f"CREATE TABLE {name} "
        f'("node" INTEGER, "lower" INTEGER, "upper" INTEGER, "id" INTEGER)',
        *indexes,
    ]


def create_params_table(name: str = "Intervals") -> list[str]:
    """The persistent data dictionary of Section 5."""
    return [
        f'CREATE TABLE {name}_params ("key" TEXT PRIMARY KEY, "value" INTEGER)',
    ]


def create_transient_tables() -> list[str]:
    """The transient query relations of Section 4.2/4.3.

    ``leftNodes`` carries the binary schema ``(min, max)`` introduced by the
    Section 4.3 transformation; ``rightNodes`` keeps the unary ``(node)``.
    They live in the session's temporary space, "causing no I/O effort".
    """
    return [
        'CREATE TEMP TABLE IF NOT EXISTS leftNodes ("min" INTEGER, "max" INTEGER)',
        'CREATE TEMP TABLE IF NOT EXISTS rightNodes ("node" INTEGER)',
    ]


def create_batch_transient_tables() -> list[str]:
    """Batch twins of the transient tables, keyed by a probe id.

    ``batchProbes`` is the probe relation itself (an ``INTEGER PRIMARY
    KEY`` makes it a rowid lookup inside the join); ``batchLeftNodes`` /
    ``batchRightNodes`` hold every probe's transient node collections
    side by side.  One fill cycle, one statement, the whole batch.

    ``lower``/``upper`` are the bounds the Figure 9 branches scan -- the
    probe's own bounds for the intersection join, the *candidate range*
    of the inverse relation for a predicate join; ``plower``/``pupper``
    carry the probe's original bounds for the predicate refinement (NULL
    and unused on the intersection path).
    """
    return [
        "CREATE TEMP TABLE IF NOT EXISTS batchProbes "
        '("qid" INTEGER PRIMARY KEY, "lower" INTEGER, "upper" INTEGER, '
        '"plower" INTEGER, "pupper" INTEGER)',
        "CREATE TEMP TABLE IF NOT EXISTS batchLeftNodes "
        '("qid" INTEGER, "min" INTEGER, "max" INTEGER)',
        "CREATE TEMP TABLE IF NOT EXISTS batchRightNodes "
        '("qid" INTEGER, "node" INTEGER)',
    ]


def figure9_sql(
    name: str,
    *,
    batch: bool,
    lower: str,
    upper: str,
    refine: str = "",
    fold_refine: Optional[str] = None,
) -> str:
    """The final intersection query of Figure 9 in sqlite's plannable form.

    Figure 9 has two branches: ``leftNodes`` rows scan ``upperIndex`` for
    ``upper >= :lower`` and ``rightNodes`` rows scan ``lowerIndex`` for
    ``lower <= :upper``.  Figure 10's plan runs one range scan per
    ``leftNodes`` row *starting at* ``(node, :lower)``.  sqlite cannot
    plan that seek behind ``i."node" BETWEEN l."min" AND l."max"``: it
    seeks ``node>? AND node<?`` only and tests ``upper`` row by row, so a
    single-node row reads its whole node.  The left branch is therefore
    split by row shape.  Rows with ``min = max`` join on ``i."node" =
    l."min"``, planned as ``upperIndex (node=? AND upper>?)``; the Section
    4.3 fold row (``min < max``) keeps the ``BETWEEN``.  Every row matches
    exactly one branch, so the result is Figure 9's.

    ``batch`` joins the probe relation (``batchProbes``, keyed by
    ``qid``) against its own transient rows and selects ``(qid, id)``.
    ``lower`` / ``upper`` are the SQL expressions the branches scan from;
    ``refine``, when given, is ANDed into every branch; ``fold_refine``,
    when given, replaces it in the fold branch.
    """
    if batch:
        columns = 'q."qid", i."id"'
        left = "batchLeftNodes l, batchProbes q"
        right = "batchRightNodes r, batchProbes q"
        left_key = 'l."qid" = q."qid" AND '
        right_key = 'r."qid" = q."qid" AND '
    else:
        columns = 'i."id"'
        left, right = "leftNodes l", "rightNodes r"
        left_key = right_key = ""
    extra = f"\n  AND {refine}" if refine else ""
    fold_extra = extra if fold_refine is None else f"\n  AND {fold_refine}"
    return (
        f"\nSELECT {columns} FROM {name} i, {left}\n"
        f'WHERE {left_key}l."min" = l."max"\n'
        f'  AND i."node" = l."min" AND i."upper" >= {lower}{extra}\n'
        "UNION ALL\n"
        f"SELECT {columns} FROM {name} i, {left}\n"
        f'WHERE {left_key}l."min" < l."max"\n'
        f'  AND i."node" BETWEEN l."min" AND l."max" AND i."upper" >= {lower}'
        f"{fold_extra}\n"
        "UNION ALL\n"
        f"SELECT {columns} FROM {name} i, {right}\n"
        f'WHERE {right_key}i."node" = r."node" AND i."lower" <= {upper}{extra}\n'
    )


#: The preliminary three-branch OR query -- paper Figure 8 (for the ablation
#: benchmark comparing it with the final form above).
PRELIMINARY_INTERSECTION_SQL = """
SELECT "id" FROM {name} i
WHERE EXISTS (SELECT 1 FROM leftNodes l
              WHERE i."node" = l."min" AND l."min" = l."max")
      AND i."upper" >= :lower
   OR EXISTS (SELECT 1 FROM rightNodes r WHERE i."node" = r."node")
      AND i."lower" <= :upper
   OR i."node" BETWEEN :lowshift AND :upshift
"""

#: Single-statement insertion -- paper Figure 5.
INSERT_SQL = (
    'INSERT INTO {name} ("node", "lower", "upper", "id") '
    "VALUES (:node, :lower, :upper, :id)"
)

#: Single-statement deletion (Section 3.3: deletion mirrors insertion).
#: It removes one copy of a record stored more than once.
DELETE_SQL = (
    'DELETE FROM {name} WHERE rowid = (SELECT rowid FROM {name} '
    'WHERE "node" = :node AND "lower" = :lower '
    'AND "upper" = :upper AND "id" = :id LIMIT 1)'
)

#: IST range query -- paper Figure 11.
IST_QUERY_SQL = """
SELECT "id" FROM {name} i
WHERE i."upper" >= :lower AND i."lower" <= :upper
"""


def join_refine_fragment(refine: str) -> str:
    """Subject-swap a predicate's WHERE fragment for the batch join.

    ``sql_refine`` states the predicate with the *stored* row as the
    subject and the query parameters as the reference.  In a predicate
    join the **probe** is the subject, so the roles swap: the probe's
    original bounds (``q."plower"`` / ``q."pupper"``) take the stored
    columns' places and the stored columns take the parameters' --
    yielding the predicate's *direct* formula over the pair, which keeps
    degenerate (point) intervals on the oracle's boundary
    conventions (the inverse formula may disagree there).

    Every swapped column reference is wrapped in sqlite's unary ``+`` so
    the refinement stays a *residual* filter: left bare, the optimizer
    chases a refinement equality into an AUTOMATIC COVERING INDEX (a
    per-statement scan-and-build) or inverts the join order into a full
    scan of the interval relation, instead of driving the plan through
    the two Figure 2 indexes via the transient node collections.  The
    stored upper bound reads through :data:`EFFECTIVE_UPPER`, so
    now-relative rows (Section 4.6) refine against the clock (the
    ``:now`` parameter), exactly as the simulated engine's leaf-slice
    refinement materialises them.
    """
    return (
        refine.replace('i."lower"', '\x00PL\x00')
        .replace('i."upper"', '\x00PU\x00')
        .replace(":lower", '+i."lower"')
        .replace(":upper", "+" + EFFECTIVE_UPPER)
        .replace('\x00PL\x00', '+q."plower"')
        .replace('\x00PU\x00', '+q."pupper"')
    )
