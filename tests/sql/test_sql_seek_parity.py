"""The split Figure 9 statements return exactly the oracle's answers.

The sqlite statements split Figure 9's left branch by row shape: single
left nodes (``min = max``) seek ``upperIndex (node=? AND upper>?)`` and
the Section 4.3 fold row keeps the ``BETWEEN``.  These tests pin the
result sets against :class:`BruteForceIntervals` where the seek decides
what is read -- a near-root node crowded with intervals that end before
the query, stabs whose fold row has ``min = max``, reserved Section 4.6
rows -- and the batch fill at the multi-row ``INSERT`` chunk edges
(0, 1, 100 and 101 probes).
"""

import random

import pytest

from repro.core.predicates import range_duration
from repro.core.temporal import UPPER_INF, UPPER_NOW
from repro.core.transient import collect_query_nodes
from repro.methods.memory import BruteForceIntervals
from repro.sql import SQLRITree

NOW = 900
#: Intervals straddling 512 fork at a node near the root; most end
#: before the queries right of it, which the seek must skip, not keep.
CROWDED = [(512 - k, 512 + k % 37, k) for k in range(1, 300)]


def _records(seed: int) -> list[tuple[int, int, int]]:
    rng = random.Random(seed)
    records = list(CROWDED)
    for interval_id in range(1_000, 1_400):
        lower = rng.randrange(0, 1_000)
        records.append((lower, lower + rng.randrange(0, 60), interval_id))
    return records


def _stores(seed: int):
    records = _records(seed)
    tree = SQLRITree(now=NOW)
    tree.bulk_load(records)
    oracle = BruteForceIntervals(records)
    oracle.advance_to(NOW)
    for store in (tree, oracle):
        store.insert(700, UPPER_INF, 5_000)
        store.insert(40, UPPER_INF, 5_001)
        store.insert(600, UPPER_NOW, 5_002)
        store.insert(880, UPPER_NOW, 5_003)
    return tree, oracle


def _windows(seed: int, count: int) -> list[tuple[int, int]]:
    rng = random.Random(seed + 1)
    windows = [(600, 640), (548, 548), (513, 513), (512, 512), (860, 860), (950, 990)]
    while len(windows) < count:
        lower = rng.randrange(-20, 1_050)
        windows.append((lower, lower + rng.choice((0, 0, 3, 25, 140))))
    return windows[:count]


@pytest.mark.parametrize("seed", [0, 1])
def test_single_queries_match_oracle(seed):
    tree, oracle = _stores(seed)
    duration = range_duration(5, 40)
    for lower, upper in _windows(seed, 60):
        expected = sorted(oracle.intersection(lower, upper))
        assert sorted(tree.intersection(lower, upper)) == expected
        assert tree.intersection_count(lower, upper) == len(expected)
        assert sorted(tree.query(lower, upper, predicate=duration)) == sorted(
            oracle.query(lower, upper, predicate=duration)
        )


def test_fixture_reaches_the_split_branches():
    """The windows put the crowded node on the single-node branch and
    give the stabs a fold row with ``min = max``."""
    tree, oracle = _stores(0)
    crowded = 'SELECT DISTINCT "node" FROM Intervals WHERE "id" < 1000'
    [(crowded_node,)] = tree.conn.execute(crowded).fetchall()
    left = collect_query_nodes(tree.backbone, 600, 640).left
    assert (crowded_node, crowded_node) in left[:-1]
    fold = collect_query_nodes(tree.backbone, 512, 512).left[-1]
    assert fold[0] == fold[1]
    # Every crowded row ends before the window: the seek skips them all.
    kept = set(oracle.intersection(600, 640)) & {k for _l, _u, k in CROWDED}
    assert not kept


@pytest.mark.parametrize("size", [0, 1, 100, 101])
def test_batches_match_oracle_at_chunk_edges(size):
    tree, oracle = _stores(size)
    windows = _windows(size, size)
    probes = [(lower, upper, 9_000 + i) for i, (lower, upper) in enumerate(windows)]
    assert [sorted(ids) for ids in tree.intersection_many(windows)] == [
        sorted(oracle.intersection(lower, upper)) for lower, upper in windows
    ]
    for predicate in (None, "during", "overlaps", range_duration(5, 40)):
        expected = sorted(oracle.join_pairs(probes, predicate=predicate))
        assert sorted(tree.join_pairs(probes, predicate=predicate)) == expected
        assert tree.join_count(probes, predicate=predicate) == len(expected)
    assert tree.verify().ok
