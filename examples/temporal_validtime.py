"""Valid-time table with ``now`` and ``infinity`` (paper Section 4.6).

Models an employee-assignment table: each row is valid over a time
interval.  Open assignments end at *now* (they grow with the clock);
planned indefinite contracts end at *infinity*.  The one disk RI-tree
(``RITree``, the ``ritree`` backend) keeps all three kinds of row in one
relation and answers timeslice and period queries without ever
reorganising the index as the clock advances -- the point of the
reserved fork nodes.

Also demonstrates the fine-grained Allen relations of Section 4.5.

Run:  python examples/temporal_validtime.py
"""

from repro.core import UPPER_INF, UPPER_NOW, RITree

ASSIGNMENTS = {
    1: "Ada    - compiler team (2010-2015)",
    2: "Grace  - compiler team (2012, open-ended contract)",
    3: "Edsger - verification team (2013, active until now)",
    4: "Barbara- databases team (2014-2016)",
    5: "Alan   - databases team (2016, active until now)",
    6: "Ken    - verification team (2025, active until now)",
}


def main() -> None:
    clock = 2018
    table = RITree(now=clock)

    # One insert for every row: the sentinel upper UPPER_INF stores
    # [start, infinity), UPPER_NOW stores [start, now].
    table.insert(2010, 2015, interval_id=1)
    table.insert(2012, UPPER_INF, interval_id=2)
    table.insert(2013, UPPER_NOW, interval_id=3)
    table.insert(2014, 2016, interval_id=4)
    table.insert(2016, UPPER_NOW, interval_id=5)

    def show(label, ids):
        print(label)
        for interval_id in sorted(ids):
            print("   ", ASSIGNMENTS[interval_id])

    show(f"timeslice {clock} (who is active now?):", table.stab(clock))
    show("period [2014, 2015]:", table.intersection(2014, 2015))

    # Time passes; now-relative rows follow the clock with zero index work.
    clock = 2025
    table.advance_to(clock)
    show(f"timeslice {clock} after advancing the clock:", table.stab(clock))

    # Edsger's assignment ended in 2022 and Ken takes over: one
    # append_batch call appends Ken's open row and closes Edsger's.
    # Closures are (start, id, end) triples; the call applies whole or
    # not at all (one insert, one delete, one metadata log record).
    table.append_batch([(2025, UPPER_NOW, 6)], closes=[(2013, 3, 2022)])
    show(f"timeslice {clock} after Ken replaced Edsger:", table.stab(clock))

    # Fine-grained temporal relationships (Section 4.5).
    print("\nAllen relations against the period [2014, 2016]:")
    relations = {}
    for relation in ("overlaps", "during", "finishes", "met_by"):
        ids = relations[relation] = table.query(2014, 2016, predicate=relation)
        names = [ASSIGNMENTS[i].split("-")[0].strip() for i in sorted(ids)]
        print(f"    {relation:13s} -> {names}")

    assert sorted(table.stab(2025)) == [2, 5, 6]
    assert sorted(table.intersection(2014, 2015)) == [1, 2, 3, 4]
    # Alan's [2016, now] starts where the period ends.
    assert relations["met_by"] == [5]
    print("\nOK")


if __name__ == "__main__":
    main()
