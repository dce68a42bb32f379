"""The object-relational wrapping on a real SQL engine (paper Section 5).

Shows the RI-tree living entirely inside sqlite3 behind the unified
:class:`~repro.core.access.IntervalStore` API:

* the literal Figure 2 DDL and Figure 9 two-branch ``UNION ALL`` query,
* a whole query batch answered set-at-a-time (``intersection_many``:
  one transient-table fill cycle, ONE statement),
* the interval join evaluated as a single SQL statement over a TEMP
  probe relation, planned from the store's ``analyze()`` statistics
  exactly like the simulated engine plans,
* Allen-relation predicate queries compiled to a WHERE-clause rewrite,
* the persistent parameter dictionary surviving a database re-open,
* an updatable view + trigger + user-defined function that hides all
  index maintenance behind plain ``INSERT`` statements -- the paper's
  "end users can use the Relational Interval Tree just like a built-in
  index".

Run:  PYTHONPATH=src python examples/sqlite_integration.py
"""

import os
import sqlite3
import tempfile

from repro.core.join import AutoJoin
from repro.sql import SQLRITree


def main() -> None:
    path = os.path.join(tempfile.mkdtemp(), "reservations.db")
    connection = sqlite3.connect(path)

    # --- create and fill through the view/trigger wrapping -------------
    tree = SQLRITree(connection, name="Reservations")
    view = tree.create_view()
    reservations = [
        (900, 1030, 1),  # room booked 9:00-10:30
        (1000, 1200, 2),  # overlapping booking
        (1300, 1400, 3),
        (1330, 1500, 4),
    ]
    connection.executemany(
        f'INSERT INTO {view} ("lower", "upper", "id") VALUES (?, ?, ?)',
        reservations,
    )
    tree.sync_params()
    print(f"{tree.interval_count} reservations inserted through the view")

    # --- query with the paper's Figure 9 statement ----------------------
    print("conflicts with 10:00-13:15:", sorted(tree.intersection(1000, 1315)))
    print("who is in the room at 13:45:", sorted(tree.stab(1345)))

    # --- a whole batch, one statement ------------------------------------
    windows = [(900, 1000), (1200, 1300), (1400, 1500)]
    batch = [sorted(ids) for ids in tree.intersection_many(windows)]
    print("batched answers (one set-at-a-time statement):", batch)
    assert batch == [sorted(tree.intersection(lo, hi)) for lo, hi in windows]

    # --- predicate queries: the WHERE-clause rewrite ----------------------
    print("bookings strictly during 12:30-15:30:", tree.query(1230, 1530, predicate="during"))
    print("bookings meeting a 12:00 start:", tree.query(1200, 1300, predicate="meets"))
    print("bookings before 13:00:", tree.query(1300, 1400, predicate="before"))

    # --- the set-at-a-time SQL join, planned like the simulated engine ----
    maintenance = [(950, 1100, 91), (1320, 1360, 92)]
    pairs = tree.join_pairs(maintenance)
    print("maintenance windows x reservations (one SQL statement):",
          sorted(pairs))
    auto = AutoJoin(method=tree)
    auto_pairs = auto.pairs(maintenance, None)
    decision = auto.last_decision
    print(f"auto planner chose {decision.choice!r} "
          f"(predicted {decision.result_count:.0f} pairs)")
    assert sorted(auto_pairs) == sorted(pairs)

    # --- the Figure 10 execution plan -----------------------------------
    print("\nquery plan (cf. paper Figure 10):")
    for line in tree.explain_query(1000, 1315):
        print("   ", line)

    # --- persistence -----------------------------------------------------
    connection.commit()
    connection.close()
    reopened_connection = sqlite3.connect(path)
    reopened = SQLRITree(reopened_connection, name="Reservations", attach=True)
    print("\nreopened database; parameters restored:",
          reopened.backbone.params())
    print("conflicts with 10:00-13:15 after reopen:",
          sorted(reopened.intersection(1000, 1315)))

    assert sorted(reopened.intersection(1000, 1315)) == [1, 2, 3]
    reopened_connection.close()
    os.unlink(path)
    print("OK")


if __name__ == "__main__":
    main()
