"""The one scan-plan compiler of the disk RI-tree, ``RITree.plan``.

For every predicate, and for a parameterized family, the ranges the
compiler returns are exactly the ranges the executor hands to the
B+-trees, and the query answers agree with the brute-force oracle: on
empty trees, on a tree of finite rows and on one also holding
now-relative and infinite rows.
"""

import random
import sys

import pytest

from repro.core import RITree
from repro.core.predicates import PREDICATES, range_duration
from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.engine.bptree import BPlusTree
from repro.methods.memory import BruteForceIntervals

NOW = 3_000
PREDICATE_CASES = [*PREDICATES, range_duration(20, 150)]


def _records(seed, count):
    rng = random.Random(seed)
    records = []
    for i in range(count):
        lower = rng.randrange(0, 3_000)
        records.append((lower, lower + rng.randrange(0, 200), i))
    return records


def _oracle(records):
    oracle = BruteForceIntervals()
    oracle.advance_to(NOW)
    oracle.append_batch(records)
    return oracle


def _stores():
    """``(label, tree, oracle, records)`` for every tree under test."""
    plain = _records(5, 400)
    tree = RITree()
    tree.bulk_load(plain)
    finite = _records(6, 300)
    rng = random.Random(7)
    special = [(rng.choice(finite)[0], UPPER_NOW, 1_000 + i) for i in range(20)]
    special += [(rng.choice(finite)[1], UPPER_INF, 2_000 + i) for i in range(20)]
    special += [(NOW, UPPER_NOW, 3_000), (NOW, UPPER_INF, 3_001)]
    temporal = RITree(now=NOW)
    temporal.bulk_load(finite)
    temporal.append_batch(special)
    return [
        ("empty", RITree(), _oracle([]), []),
        ("empty-temporal", RITree(now=NOW), _oracle([]), []),
        ("ritree", tree, _oracle(plain), plain),
        ("temporal", temporal, _oracle(finite + special), finite + special),
    ]


STORES = _stores()
STORE_CASES = [pytest.param(*store, id=store[0]) for store in STORES]


def _windows(records):
    """Random windows, windows on stored bounds and around the clock."""
    rng = random.Random(len(records))
    windows = [(0, 3_500), (NOW, NOW), (NOW - 50, NOW + 50), (NOW + 10, NOW + 90)]
    for _ in range(6):
        lower = rng.randrange(-100, 3_400)
        windows.append((lower, lower + rng.randrange(0, 300)))
    for lower, upper, _ in rng.sample(records, min(len(records), 6)):
        upper = min(upper, NOW)
        windows += [(lower, upper), (upper, upper + 30), (lower - 30, lower)]
    return windows


@pytest.fixture
def scans(monkeypatch):
    """Every ``(tree, lo, hi)`` the executor asks a B+-tree to scan."""
    calls = []
    real = BPlusTree.scan_batches_padded

    def spy(tree, lo, hi, column=None):
        calls.append((tree, lo, hi))
        return real(tree, lo, hi, column)

    monkeypatch.setattr(BPlusTree, "scan_batches_padded", spy)
    return calls


def _planned_scans(tree, plan):
    if plan is None:
        return []
    upper_ranges, lower_ranges = plan
    upper_scans = [(tree._upper_tree, lo, hi) for lo, hi in upper_ranges]
    return upper_scans + [(tree._lower_tree, lo, hi) for lo, hi in lower_ranges]


def _predicate_id(predicate):
    return getattr(predicate, "name", predicate)


@pytest.mark.parametrize("label, tree, oracle, records", STORE_CASES)
@pytest.mark.parametrize("predicate", PREDICATE_CASES, ids=_predicate_id)
def test_plans_are_the_scans_and_answer_as_the_oracle(
    scans, label, tree, oracle, records, predicate
):
    for lower, upper in _windows(records or [(0, 100, 0)]):
        plan = tree.plan(lower, upper, predicate)
        scans.clear()
        got = tree.query(lower, upper, predicate=predicate)
        assert scans == _planned_scans(tree, plan), (label, lower, upper)
        expected = oracle.query(lower, upper, predicate=predicate)
        assert sorted(got) == sorted(expected), (label, lower, upper)


def test_reserved_nodes_follow_the_live_rows():
    tree = RITree(now=50)
    assert tree._reserved_nodes(0, 10) == ()
    tree.insert(5, UPPER_INF, interval_id=1)
    tree.insert(8, UPPER_NOW, interval_id=2)
    inf, now = tree._reserved_nodes(0, 10)
    assert tree._reserved_nodes(60, 70) == (inf,)
    tree.delete(5, UPPER_INF, interval_id=1)
    assert tree._reserved_nodes(0, 10) == (now,)
    assert RITree()._reserved_nodes(0, 10) == ()


def test_pinned_query_pads_no_key_in_a_helper():
    """Pinned plans pad their keys inline: no ``pad_low``/``pad_high``."""
    _label, tree, _oracle, records = STORES[2]
    lower, upper, _ = records[0]
    padded = []

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code.co_name in ("pad_low", "pad_high"):
            padded.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        tree.query(lower, upper, predicate="equals")
    finally:
        sys.setprofile(None)
    assert padded == []
