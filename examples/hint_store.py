"""One workload, three backends: RI-tree, SQL RI-tree, HINT.

Loads the same interval relation into the simulated-disk RI-tree, the
sqlite3-backed RI-tree and the main-memory HINT store, shows that
queries, predicate queries and joins agree across all three, and lets
the auto join planner explain why it treats the memory-resident backend
differently from the disk-resident ones.  The SQL RI-tree is opened on a
temporary database file so that it stays disk-resident: an in-memory
sqlite database would be priced like HINT, with no physical reads.

Run:  python examples/hint_store.py
"""

import random
import sqlite3
import tempfile
from pathlib import Path

from repro.core import AutoJoin, HintStore, RITree
from repro.sql import SQLRITree


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        connection = sqlite3.connect(Path(workdir) / "intervals.db")
        try:
            run(connection)
        finally:
            connection.close()


def run(connection: sqlite3.Connection) -> None:
    rng = random.Random(7)
    records = [
        (lower, lower + rng.randrange(1, 400), interval_id)
        for interval_id, lower in enumerate(
            rng.randrange(0, 20_000) for _ in range(600)
        )
    ]
    probes = [
        (lower, lower + rng.randrange(1, 800), 100_000 + i)
        for i, lower in enumerate(
            rng.randrange(0, 20_000) for _ in range(40)
        )
    ]

    stores = {
        "RI-tree     ": RITree(),
        "SQL-RI-tree ": SQLRITree(connection),
        "HINT        ": HintStore(),
    }
    for store in stores.values():
        store.bulk_load(records)

    # The same questions, the same answers, three different layouts.
    answers = {
        label: (
            sorted(store.intersection(4_000, 4_500)),
            sorted(store.query(3_000, 9_000, predicate="during")),
            sorted(store.join_pairs(probes)),
        )
        for label, store in stores.items()
    }
    reference = next(iter(answers.values()))
    assert all(a == reference for a in answers.values())
    for label, (ids, during, pairs) in answers.items():
        print(
            f"{label} intersection(4000, 4500) -> {len(ids)} ids, "
            f"during(3000, 9000) -> {len(during)}, "
            f"join -> {len(pairs)} pairs"
        )

    # Storage accounting: HINT replicates long intervals across
    # partitions, the RI-tree always stores exactly two entries each.
    for label, store in stores.items():
        print(
            f"{label} {store.interval_count} intervals, "
            f"{store.index_entry_count} index entries "
            f"(redundancy {store.redundancy:.2f})"
        )

    # The auto planner prices each backend through its own cost model.
    # The HINT store reports zero physical reads (memory-resident), so
    # the decision comes down to interpreter work alone.
    for label, store in stores.items():
        if store.cost_model() is None:
            continue
        auto = AutoJoin(method=store)
        pairs = auto.pairs(probes, [])
        decision = auto.last_decision
        print(
            f"{label} auto join -> {auto.last_dispatch}: "
            f"index {decision.index.physical_reads:.0f} physical reads / "
            f"{decision.index.frame_cost:.0f} frames, "
            f"sweep {decision.sweep.physical_reads:.0f} physical reads / "
            f"{decision.sweep.frame_cost:.0f} frames"
        )
        assert sorted(pairs) == reference[2]

    hint = stores["HINT        "]
    assert hint.cost_model().estimate_join(probes).index.physical_reads == 0.0
    on_disk = stores["SQL-RI-tree "].cost_model().estimate_join(probes)
    assert on_disk.sweep.physical_reads > 0.0
    assert hint.verify().ok
    print("OK")


if __name__ == "__main__":
    main()
