"""Finite-domain constraint filtering with interval indexes (Section 1).

The paper's introduction motivates interval management "for handling
interval and finite domain constraints in declarative systems [KS 91]
[KRVV 93] [HP 94]".  This example plays that role: a scheduling system
holds many unary constraints of the form ``variable in [a, b]`` and must
answer, for a candidate assignment or a domain restriction, which
constraints are affected.

* ``stab(v)`` finds every constraint consistent with value ``v``;
* ``intersection(a, b)`` finds every constraint whose domain overlaps a
  proposed restriction — the supports to revise in an arc-consistency
  pass;
* Allen's ``during``/``contains`` relations (Section 4.5) split them into
  constraints subsumed by, or subsuming, the restriction.

Run:  python examples/constraint_domains.py
"""

from repro.core import RITree

# Constraints over a shared variable "start time of task T" (minutes).
CONSTRAINTS = {
    1: ("crane available", 480, 720),
    2: ("crew shift", 540, 1020),
    3: ("daylight", 360, 1080),
    4: ("noise permit", 600, 660),
    5: ("inspection slot", 615, 645),
    6: ("second crew shift", 1020, 1440),
}


def main() -> None:
    index = RITree()
    for constraint_id, (_, lower, upper) in CONSTRAINTS.items():
        index.insert(lower, upper, constraint_id)

    def names(ids):
        return [CONSTRAINTS[i][0] for i in sorted(ids)]

    # Which constraints admit starting at 10:30 (630)?
    consistent = index.stab(630)
    print("constraints consistent with start=630:", names(consistent))

    # Propagation: the solver restricts the domain to [600, 660].
    restriction = (600, 660)
    touched = index.intersection(*restriction)
    print("constraints touched by restriction [600, 660]:", names(touched))

    # Constraints strictly inside the restriction survive unchanged;
    # constraints strictly containing it impose no further pruning.
    inside = index.query(*restriction, predicate="during")
    around = index.query(*restriction, predicate="contains")
    print("  subsumed by the restriction   :", names(inside))
    print("  subsuming the restriction     :", names(around))

    # A value with no support at all -> inconsistency detected in O(log n).
    assert index.stab(200) == []
    print("start=200 has no supporting constraint (inconsistent)")

    assert sorted(consistent) == [1, 2, 3, 4, 5]
    assert sorted(touched) == [1, 2, 3, 4, 5]
    assert inside == [5]
    assert sorted(around) == [1, 2, 3]
    print("OK")


if __name__ == "__main__":
    main()
