"""Allen's 13 interval relations on the disk RI-tree (paper Section 4.5).

Every relation runs through ``query(predicate=...)`` on ``RITree``, with
and without Section 4.6 rows, and must agree with the oracle store; the
relations that pin one bound keep their O(h) exact-scan plans.
"""

import random

import pytest

from repro.core import RITree
from repro.core.predicates import ALLEN_RELATIONS, PREDICATES
from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.methods.memory import BruteForceIntervals

NOW = 5_100


def _records(seed, count=1200):
    rng = random.Random(seed)
    records = []
    for i in range(count):
        lower = rng.randrange(0, 5000)
        records.append((lower, lower + rng.randrange(1, 300), i))
    return records


@pytest.fixture(scope="module")
def loaded_tree():
    tree = RITree()
    records = _records(31337)
    for lower, upper, interval_id in records:
        tree.insert(lower, upper, interval_id)
    return tree, BruteForceIntervals(records), records


@pytest.fixture(scope="module")
def temporal_tree():
    """Finite rows plus now-relative and infinite rows, some of them
    sharing bounds with finite rows and with the clock."""
    records = _records(4242, count=600)
    rng = random.Random(7)
    special = [
        (rng.choice(records)[rng.randrange(2)], UPPER_NOW, 1000 + i) for i in range(40)
    ]
    special += [
        (rng.choice(records)[rng.randrange(2)], UPPER_INF, 2000 + i) for i in range(40)
    ]
    special += [(NOW, UPPER_NOW, 3000), (NOW, UPPER_INF, 3001)]
    tree = RITree(now=NOW)
    tree.bulk_load(records)
    tree.append_batch(special)
    oracle = BruteForceIntervals()
    oracle.advance_to(NOW)
    oracle.append_batch(records + special)
    return tree, oracle, records + special


def _windows(rng, records):
    """Random windows, and windows sharing a bound with stored rows."""
    windows = []
    for _ in range(25):
        l = rng.randrange(0, 5200)
        windows.append((l, l + rng.randrange(1, 400)))
    for lower, upper, _ in rng.sample(records, 15):
        upper = NOW if upper == UPPER_NOW else min(upper, 6000)
        windows += [(lower, upper), (max(lower - 40, 0), lower), (upper, upper + 40)]
    windows += [(NOW - 40, NOW), (NOW, NOW + 40), (NOW, NOW)]
    return windows


@pytest.mark.parametrize("relation", ALLEN_RELATIONS)
def test_each_relation_query_equals_brute_force(loaded_tree, temporal_tree, relation):
    rng = random.Random(ALLEN_RELATIONS.index(relation))
    for tree, oracle, records in (loaded_tree, temporal_tree):
        for l, u in _windows(rng, records):
            got = sorted(tree.query(l, u, predicate=relation))
            expected = sorted(oracle.query(l, u, predicate=relation))
            assert got == expected, (type(tree).__name__, relation, l, u)


def test_relations_partition_the_database(loaded_tree):
    tree, _oracle, records = loaded_tree
    l, u = 2000, 2500
    union: list[int] = []
    for relation in ALLEN_RELATIONS:
        union.extend(tree.query(l, u, predicate=relation))
    # every interval in exactly one relation
    assert sorted(union) == sorted(i for _, _, i in records)


def test_exact_bound_relations_use_path_scans(loaded_tree):
    """meets/starts/etc. answer with O(h) probes -- far fewer logical reads
    than an intersection query returning the same region."""
    tree, _oracle, _records = loaded_tree
    tree.db.clear_cache()
    with tree.db.measure() as eq:
        tree.query(2000, 2300, predicate="equals")
    with tree.db.measure() as inter:
        tree.intersection(0, 5300)
    assert eq.logical_reads < inter.logical_reads


@pytest.mark.parametrize(
    "relation", [name for name in ALLEN_RELATIONS if PREDICATES[name].pinned]
)
def test_pinned_relations_scan_one_exact_range_per_path_node(
    loaded_tree, temporal_tree, relation
):
    """One exact ``(node, x)`` range of the pinned bound's index per
    backbone node on the path toward the pinned point and, for a pinned
    lower bound, per reserved node; a pinned upper bound scans the
    reserved nodes as ``stab(x)`` does.  No more reads than refining
    the ``stab(x)`` candidate plan."""
    pred = PREDICATES[relation]
    for tree, _oracle, records in (loaded_tree, temporal_tree):
        for lower, upper, _ in records[:40:4]:
            upper = min(upper, NOW)
            x = pred.candidates(lower, upper, None, None)[0]
            path = tree.backbone.walk_toward(tree.backbone.shift(x))
            reserved = list(tree._reserved_nodes(x, x))
            upper_ranges, lower_ranges = tree.plan(lower, upper, relation)
            assert len(upper_ranges) + len(lower_ranges) == len(path) + len(reserved)
            if pred.pinned == "upper":
                exact, stab = upper_ranges, lower_ranges
                assert [lo[0] for lo, _ in stab] == reserved
                assert all(hi[:2] == (lo[0], x) for lo, hi in stab)
            else:
                exact = lower_ranges
                assert upper_ranges == []
            pinned_nodes = path + (reserved if pred.pinned == "lower" else [])
            assert [lo[0] for lo, _ in exact] == pinned_nodes
            assert all(lo[:2] == hi[:2] == (lo[0], x) for lo, hi in exact)
            with tree.db.measure() as pinned:
                tree.query(lower, upper, predicate=relation)
            with tree.db.measure() as candidates:
                list(tree._record_batches(tree.plan(x, x)))
            assert pinned.logical_reads <= candidates.logical_reads


def test_unknown_relation_rejected(loaded_tree):
    tree, _oracle, _records = loaded_tree
    with pytest.raises(ValueError):
        tree.query(1, 2, predicate="sideways")


def test_relations_on_empty_tree():
    for tree in (RITree(), RITree(now=7)):
        for relation in ALLEN_RELATIONS:
            assert tree.query(5, 10, predicate=relation) == []
