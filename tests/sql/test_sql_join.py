"""The unified store API on sqlite3: joins, batches, planner, satellites.

The acceptance surface of the protocol split: on randomized two-sided
workloads the sqlite backend's set-at-a-time SQL join, the sweep over its
enumerated relation, and the ``auto`` planner must be pair-set-identical
to the simulated-engine strategies and the counting oracle, with the
``auto`` dispatch consistent with the estimates of the store's
``analyze()`` snapshot; plus the update-path economies (dirty-flag
parameter persistence, the empty-backbone fast path) observed at the
statement level through sqlite's trace hook, and the planner's view of
the store: an in-memory database prices no physical reads, a file-backed
one keeps its disk pricing, and estimates read only ANALYZE-time
statistics.
"""

import json
import sqlite3

import pytest

from repro.core import UPPER_INF, UPPER_NOW, RITree, RITreeCostModel
from repro.core.join import AutoJoin, NestedLoopJoin, SweepJoin
from repro.core.predicates import JOIN_PREDICATES, PREDICATES
from repro.methods.memory import BruteForceIntervals
from repro.sql import SQLRITree
from repro.workloads import join_workload
from repro.workloads.joins import expected_pair_count

from ..conftest import make_intervals
from ..core.test_planner_golden import GOLDEN, INNER_N, PROBE_SIZES, _join, _predicates


def two_sided(seed, outer_n=120, inner_n=900, outer_d=4000, inner_d=700):
    workload = join_workload(
        outer_n=outer_n, inner_n=inner_n, outer_d=outer_d, inner_d=inner_d, seed=seed
    )
    return workload.outer.records, workload.inner.records


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sql_join_matches_engine_and_oracles(seed):
    outer, inner = two_sided(seed)
    sql_tree = SQLRITree()
    sql_tree.bulk_load(inner)
    engine_tree = RITree()
    engine_tree.bulk_load(inner)

    sql_pairs = sql_tree.join_pairs(outer)
    reference = sorted(BruteForceIntervals(inner).join_pairs(outer))
    assert len(sql_pairs) == len(set(sql_pairs))
    assert reference == sorted(sql_pairs)
    assert reference == sorted(engine_tree.join_pairs(outer))
    assert reference == sorted(SweepJoin().pairs(outer, inner))
    assert len(reference) == expected_pair_count(outer, inner)
    assert sql_tree.join_count(outer) == len(reference)


@pytest.mark.parametrize("seed", [4, 5])
def test_auto_on_sql_backend_is_consistent_with_the_planner(seed):
    outer, inner = two_sided(seed)
    sql_tree = SQLRITree()
    sql_tree.bulk_load(inner)
    planned = sql_tree.cost_model().estimate_join(outer)
    auto = AutoJoin(method=sql_tree)
    pairs = auto.pairs(outer, inner)
    assert auto.last_decision.choice == planned.choice
    assert sorted(pairs) == sorted(SweepJoin().pairs(outer, inner))
    assert auto.count(outer, inner) == len(pairs)


def test_planner_decisions_across_regimes():
    """Pinned workloads on either side of the index/sweep crossover."""
    outer, inner = two_sided(3, outer_n=5, inner_n=8000, outer_d=2000, inner_d=1000)
    few_probes = SQLRITree()
    few_probes.bulk_load(inner)
    assert few_probes.cost_model().estimate_join(outer).choice == "index-nested-loop"

    outer, inner = two_sided(0, outer_n=200, inner_n=2000, outer_d=2000, inner_d=2000)
    many_probes = SQLRITree()
    many_probes.bulk_load(inner)
    assert many_probes.cost_model().estimate_join(outer).choice == "sweep"


def test_sql_analyze_estimates_track_reality(rng):
    records = make_intervals(rng, 2000, domain=100_000, mean_length=800)
    sql_tree = SQLRITree()
    sql_tree.bulk_load(records)
    model = RITreeCostModel(sql_tree.analyze())
    assert model.summary.count == len(records)
    probes = make_intervals(rng, 150, domain=100_000, mean_length=1200)
    estimate = model.estimate_join(probes)
    actual = sql_tree.join_count(probes)
    # Histogram resolution bounds the estimation error; a loose 25%
    # envelope keeps the test meaningful without pinning the quantiles.
    assert estimate.result_count == pytest.approx(actual, rel=0.25)


def test_sql_analyze_quantiles_match_python_equidepth(rng):
    """NTILE boundaries agree with BoundSummary's own quantiles ±1 rank."""
    records = make_intervals(rng, 1500, domain=50_000, mean_length=500)
    sql_tree = SQLRITree()
    sql_tree.bulk_load(records)
    model = sql_tree.cost_model()
    for lower, upper in [(0, 500), (10_000, 12_000), (0, 55_000)]:
        sql_estimate = model.summary.intersecting(lower, upper)
        exact = sum(1 for s, e, _ in records if s <= upper and e >= lower)
        assert sql_estimate == pytest.approx(exact, abs=0.04 * len(records))


def test_sql_cost_model_is_cached_and_refreshable():
    sql_tree = SQLRITree()
    sql_tree.bulk_load([(i, i + 10, i) for i in range(200)])
    model = sql_tree.cost_model()
    assert sql_tree.cost_model() is model
    assert model.summary.count == 200
    sql_tree.bulk_load([(5000 + i, 5010 + i, 1000 + i) for i in range(100)])
    assert sql_tree.cost_model().summary.count == 200  # stale until refresh
    assert sql_tree.cost_model(refresh=True).summary.count == 300


def test_intersection_many_one_fill_cycle(rng):
    """The batch path answers every query with a single statement pair."""
    records = make_intervals(rng, 600, domain=40_000, mean_length=500)
    sql_tree = SQLRITree()
    sql_tree.bulk_load(records)
    queries = []
    for _ in range(30):
        lower = rng.randrange(0, 44_000)
        queries.append((lower, lower + rng.randrange(0, 2500)))
    statements = []
    sql_tree.conn.set_trace_callback(statements.append)
    batched = sql_tree.intersection_many(queries)
    sql_tree.conn.set_trace_callback(None)
    selects = [s for s in statements if s.lstrip().startswith("SELECT")]
    assert len(selects) == 1, selects
    for (lower, upper), ids in zip(queries, batched):
        assert sorted(ids) == sorted(sql_tree.intersection(lower, upper))


def test_params_written_only_when_changed():
    """Satellite: per-row inserts persist the dictionary O(changes) times."""
    sql_tree = SQLRITree()
    sql_tree.insert(0, 1024, 0)  # fixes offset (one parameter change)
    statements = []
    sql_tree.conn.set_trace_callback(statements.append)
    for i in range(1, 120):
        sql_tree.insert(0, 1024, i)  # same fork node, parameters stable
    sql_tree.conn.set_trace_callback(None)
    param_writes = [s for s in statements if "Intervals_params" in s]
    assert param_writes == []
    inserts = [s for s in statements if s.lstrip().startswith("INSERT")]
    assert len(inserts) == 119


def test_params_still_persist_across_reopen_with_dirty_flag(tmp_path):
    import sqlite3

    path = tmp_path / "dirty.db"
    conn = sqlite3.connect(path)
    tree = SQLRITree(conn, name="P")
    tree.append_batch([(100, 200, 1), (-50, 20, 2), (5000, 6000, 3)])
    params = tree.backbone.params()
    conn.commit()
    conn.close()
    reopened = SQLRITree(sqlite3.connect(path), name="P", attach=True)
    assert reopened.backbone.params() == params
    assert sorted(reopened.intersection(-100, 10_000)) == [1, 2, 3]


def test_empty_tree_queries_issue_no_statements():
    """Satellite: the empty-backbone fast path skips every round-trip."""
    sql_tree = SQLRITree()
    statements = []
    sql_tree.conn.set_trace_callback(statements.append)
    assert sql_tree.intersection(0, 1000) == []
    assert sql_tree.intersection_count(0, 1000) == 0
    assert sql_tree.intersection_many([(0, 10), (20, 30)]) == [[], []]
    assert sql_tree.join_count([(0, 10, 1)]) == 0
    sql_tree.conn.set_trace_callback(None)
    assert statements == []


def test_failed_append_batch_does_not_poison_param_persistence(tmp_path):
    """A rolled-back batch must not leave the dirty flag claiming the
    parameter dictionary is up to date on disk."""
    import sqlite3

    path = tmp_path / "rollback.db"
    conn = sqlite3.connect(path)
    tree = SQLRITree(conn, name="R", now=100)
    conn.commit()

    # The rows grow the roots and shrink minstep; the closure of an
    # open row that does not exist rolls the transaction back.
    with pytest.raises(KeyError):
        tree.append_batch([(0, 10, 1), (100, 2000, 2)], closes=[(5, 9, 50)])
    # The transaction rolled back; the next successful insert must
    # persist the current parameters again (snapshot was invalidated).
    tree.insert(50, 900, 3)
    conn.commit()
    conn.close()
    reopened = SQLRITree(sqlite3.connect(path), name="R", attach=True)
    assert sorted(reopened.intersection(0, 10_000)) == [3]


def test_stored_records_materialise_temporal_bounds():
    """Sweep over stored_records must join the same pairs as the
    reserved-node scans, also for now-relative and infinite rows."""
    sql_tree = SQLRITree(now=100)
    engine_tree = RITree(now=100)
    oracle = _temporal_oracle(100)
    for store in (sql_tree, engine_tree, oracle):
        store.insert(0, 30, 3)
        store.insert(5, UPPER_NOW, 1)
        store.insert(50, UPPER_INF, 2)
    probes = [(150, 160, 9), (10, 20, 8)]
    reference = sorted(oracle.join_pairs(probes))
    assert reference == [(8, 1), (8, 3), (9, 2)]
    assert sorted(sql_tree.join_pairs(probes)) == reference
    records = {i: (s, e) for s, e, i in sql_tree.stored_records()}
    assert records[1] == (5, 100)  # effective upper = now
    for store in (sql_tree, engine_tree):
        assert sorted(store.stored_records()) == sorted(oracle.stored_records())
        assert sorted(SweepJoin().pairs(probes, store.stored_records())) == reference


def _temporal_oracle(now):
    oracle = BruteForceIntervals()
    oracle.advance_to(now)
    return oracle


def test_reserved_fork_rows_still_reach_queries():
    """The fast path must not skip Section 4.6's reserved rows."""
    sql_tree = SQLRITree(now=1000)
    sql_tree.insert(500, UPPER_INF, 1)
    sql_tree.insert(900, UPPER_NOW, 2)
    # Backbone is still empty (reserved rows bypass it), but results exist.
    assert sorted(sql_tree.intersection(950, 960)) == [1, 2]
    assert sql_tree.intersection_count(950, 960) == 2
    assert sorted(sql_tree.join_pairs([(950, 960, 77)])) == [(77, 1), (77, 2)]


def test_append_batch_runs_in_one_transaction():
    sql_tree = SQLRITree(now=100)
    sql_tree.insert(7, UPPER_NOW, 99)
    statements = []
    sql_tree.conn.set_trace_callback(statements.append)
    sql_tree.append_batch([(i, i + 5, i) for i in range(50)],
                          closes=[(7, 99, 60)])
    sql_tree.conn.set_trace_callback(None)
    begins = [s for s in statements if s.strip().upper().startswith("BEGIN")]
    assert len(begins) <= 1
    assert sql_tree.interval_count == 51
    assert (7, 60, 99) in sql_tree.stored_records()


def test_harness_join_batch_runs_on_the_sql_backend():
    """run_join_batch drives any IntervalStore; sqlite rows carry no
    engine I/O counters but keep the planner decision and pair count."""
    from repro.bench.harness import run_join_batch

    outer, inner = two_sided(6, outer_n=60, inner_n=400)
    sql_tree = SQLRITree()
    sql_tree.bulk_load(inner)
    batch = run_join_batch(sql_tree, outer, count_only=True, plan=True)
    assert batch.method == "SQL-RI-tree"
    assert batch.probes == len(outer)
    assert batch.pairs == expected_pair_count(outer, inner)
    assert batch.physical_io == 0 and batch.logical_io == 0
    assert batch.decision["choice"] in ("index-nested-loop", "sweep")
    row = batch.as_row()
    assert row["planner choice"] == batch.decision["choice"]


def test_batch_join_plan_searches_both_indexes(rng):
    records = make_intervals(rng, 500, domain=30_000, mean_length=400)
    sql_tree = SQLRITree()
    sql_tree.bulk_load(records)
    plan = "\n".join(sql_tree.explain_join([(100, 2000, 1), (5000, 9000, 2)]))
    assert "lowerIndex" in plan
    assert "upperIndex (node=? AND upper>?)" in plan
    assert "AUTOMATIC" not in plan
    assert "SCAN i" not in plan


# ----------------------------------------------------------------------
# predicate joins (one statement, both indexes, engine parity)
# ----------------------------------------------------------------------
def test_sql_predicate_join_matches_engine_and_oracle(rng):
    records = make_intervals(rng, 400, domain=20_000, mean_length=400)
    inner = records[:300]
    probes = [(s, e, 50_000 + i) for i, (s, e, _) in enumerate(records[300:])]
    sql_tree = SQLRITree()
    sql_tree.bulk_load(inner)
    engine_tree = RITree()
    engine_tree.bulk_load(inner)
    oracle = BruteForceIntervals(inner)
    for name in JOIN_PREDICATES:
        expected = sorted(oracle.join_pairs(probes, predicate=name))
        assert sorted(sql_tree.join_pairs(probes, predicate=name)) == expected, name
        assert sql_tree.join_count(probes, predicate=name) == len(expected), name
        assert sorted(engine_tree.join_pairs(probes, predicate=name)) == expected, name


def test_sql_predicate_join_is_one_statement(rng):
    """The acceptance criterion: a predicate-join probe batch is ONE
    SELECT, and EXPLAIN shows both Figure 2 indexes driving the plan
    (no AUTOMATIC index, no base-table scan)."""
    records = make_intervals(rng, 500, domain=30_000, mean_length=400)
    inner = records[:400]
    probes = [(s, e, 60_000 + i) for i, (s, e, _) in enumerate(records[400:])]
    sql_tree = SQLRITree()
    sql_tree.bulk_load(inner)
    for name in ("before", "during", "equals", "met_by"):
        statements = []
        sql_tree.conn.set_trace_callback(statements.append)
        sql_tree.join_pairs(probes, predicate=name)
        sql_tree.conn.set_trace_callback(None)
        selects = [s for s in statements if s.lstrip().startswith("SELECT")]
        # The probe batch is answered by exactly ONE statement, the one
        # joining the probe relation; before/after read the stored
        # extent from memory, not with a MIN/MAX aggregate.
        assert len(selects) == 1, (name, selects)
        assert "batchProbes" in selects[0], (name, selects)
        plan = "\n".join(sql_tree.explain_join(probes, predicate=name))
        assert "lowerIndex" in plan, (name, plan)
        assert "upperIndex (node=? AND upper>?)" in plan, (name, plan)
        assert "AUTOMATIC" not in plan, (name, plan)
        assert "SCAN i" not in plan, (name, plan)


def test_sql_predicate_join_count_is_one_statement(rng):
    records = make_intervals(rng, 300, domain=20_000, mean_length=300)
    inner = records[:250]
    probes = [(s, e, 70_000 + i) for i, (s, e, _) in enumerate(records[250:])]
    sql_tree = SQLRITree()
    sql_tree.bulk_load(inner)
    statements = []
    sql_tree.conn.set_trace_callback(statements.append)
    count = sql_tree.join_count(probes, predicate="overlaps")
    sql_tree.conn.set_trace_callback(None)
    selects = [s for s in statements if s.lstrip().startswith("SELECT")]
    assert len(selects) == 1
    assert count == len(sql_tree.join_pairs(probes, predicate="overlaps"))


def test_sql_predicate_join_handles_reserved_rows():
    """Allen predicate joins on sqlite evaluate reserved Section 4.6
    rows on their *effective* bounds (now-relative uppers read the
    clock through the EFFECTIVE_UPPER rewrite; infinite rows keep the
    +infinity sentinel), matching the engine and the sweep over
    stored_records -- so the auto planner's result set cannot depend on
    which strategy it dispatches."""
    sql_tree = SQLRITree(now=100)
    oracle = _temporal_oracle(100)
    for store in (sql_tree, oracle):
        store.insert(0, 30, 1)
        store.insert(40, 60, 2)
        store.insert(5, UPPER_NOW, 8)
        store.insert(50, UPPER_INF, 9)
    probes = [(31, 39, 700), (0, 200, 701), (0, 40, 702), (101, 150, 703)]
    effective = oracle.stored_records()
    for name in JOIN_PREDICATES:
        expected = sorted(oracle.join_pairs(probes, predicate=name))
        assert sorted(sql_tree.join_pairs(probes, predicate=name)) == expected, name
        assert (
            sorted(NestedLoopJoin(predicate=name).pairs(probes, effective)) == expected
        ), name
        assert (
            sorted(SweepJoin(predicate=name).pairs(probes, effective)) == expected
        ), name
    # The reviewer regression: 'before' must reach the infinite row
    # whatever strategy the planner picks.
    assert sorted(sql_tree.join_pairs([(0, 40, 700)], predicate="before")) == [(700, 9)]
    auto = AutoJoin(method=sql_tree, predicate="before")
    assert sorted(auto.pairs([(0, 40, 700)], inner=[])) == [(700, 9)]
    # The default (intersection) join reaches the reserved rows too.
    assert sorted(sql_tree.join_pairs([(90, 95, 702)])) == [(702, 8), (702, 9)]


def test_sql_predicate_query_matches_engine_on_temporal_rows():
    """query('after', ...) et al. agree across backends with temporal
    rows present -- incl. the engine's clamped candidate ceiling (no
    duplicate ids from the reserved-node scans)."""
    sql_tree = SQLRITree(now=100)
    engine_tree = RITree(now=100)
    oracle = _temporal_oracle(100)
    for store in (sql_tree, engine_tree, oracle):
        store.insert(0, 30, 1)
        store.insert(40, 60, 2)
        store.insert(5, UPPER_NOW, 8)
        store.insert(50, UPPER_INF, 9)
    for name in sorted(PREDICATES):
        if name == "stab":
            continue
        for lower, upper in [(0, 35), (31, 39), (90, 120), (150, 200)]:
            expected = sorted(oracle.query(lower, upper, predicate=name))
            got_sql = sorted(sql_tree.query(lower, upper, predicate=name))
            got_engine = sorted(engine_tree.query(lower, upper, predicate=name))
            assert got_sql == expected, (name, lower, upper)
            assert got_engine == expected, (name, lower, upper)
            assert len(got_engine) == len(set(got_engine))


def test_auto_predicate_join_plans_on_the_sql_backend(rng):
    records = make_intervals(rng, 400, domain=25_000, mean_length=400)
    inner = records[:320]
    probes = [(s, e, 80_000 + i) for i, (s, e, _) in enumerate(records[320:])]
    sql_tree = SQLRITree()
    sql_tree.bulk_load(inner)
    for name in ("before", "during"):
        planned = sql_tree.cost_model().estimate_join(probes, predicate=name)
        auto = AutoJoin(method=sql_tree, predicate=name)
        pairs = auto.pairs(probes, inner=[])
        assert auto.last_decision.choice == planned.choice
        assert auto.last_dispatch == auto.last_decision.choice
        assert sorted(pairs) == sorted(
            BruteForceIntervals(inner).join_pairs(probes, predicate=name)
        ), name


# ----------------------------------------------------------------------
# memory residency and ANALYZE-time geometry
# ----------------------------------------------------------------------
#: ``(index, sweep)`` physical reads a file-backed store prices on the
#: golden workload: the disk numbers of the planner fixture for the sqlite
#: RI-tree, priced from ``dbstat`` pages of the four-column indexes.
FILE_BACKED_PHYSICAL_READS = {
    "join/12/none": (29.867693208615997, 25.0),
    "join/12/during": (44.714884866310584, 25.0),
    "join/12/before": (46.90532318595477, 25.0),
    "join/12/range_duration": (29.45772716674147, 25.0),
    "join/600/none": (36.0, 29.0),
    "join/600/during": (46.93463468931302, 29.0),
    "join/600/before": (46.93463468931302, 29.0),
    "join/600/range_duration": (46.93463468931302, 29.0),
}


def golden_sql_tree(connection=None):
    """The planner fixture's workload: 3,000 stored rows, 600 probes."""
    workload = join_workload(max(PROBE_SIZES), INNER_N, seed=13)
    tree = SQLRITree(connection)
    tree.bulk_load(workload.inner.records)
    return workload.outer.records, workload.inner.records, tree


def test_in_memory_store_prices_no_physical_reads():
    outer, _inner, tree = golden_sql_tree()
    model = tree.cost_model()
    for size in PROBE_SIZES:
        for label, pred in _predicates().items():
            estimate = model.estimate_join(outer[:size], predicate=pred)
            assert estimate.index.physical_reads == 0.0, (size, label)
            assert estimate.sweep.physical_reads == 0.0, (size, label)
            assert estimate.index.logical_reads > 0.0, (size, label)


def test_file_backed_store_keeps_its_disk_pricing(tmp_path):
    import sqlite3

    golden = json.loads(GOLDEN.read_text())["sql-ritree"]
    outer, _inner, tree = golden_sql_tree(sqlite3.connect(tmp_path / "golden.db"))
    model = tree.cost_model()
    for size in PROBE_SIZES:
        for label, pred in _predicates().items():
            key = f"join/{size}/{label}"
            expected = golden[key]
            index_reads, sweep_reads = FILE_BACKED_PHYSICAL_READS[key]
            expected["index"]["physical_reads"] = index_reads
            expected["sweep"]["physical_reads"] = sweep_reads
            estimate = model.estimate_join(outer[:size], predicate=pred)
            assert _join(estimate) == expected, key


def test_auto_dispatches_the_index_join_on_a_small_in_memory_batch():
    """12 probes against 3,000 rows: the sweep would read every stored
    row, the index join touches a few leaves, and nothing is on disk."""
    outer, inner, tree = golden_sql_tree()
    probes = outer[:12]
    auto = AutoJoin(method=tree)
    pairs = auto.pairs(probes, inner)
    assert auto.last_decision.choice == "index-nested-loop"
    assert auto.last_dispatch == "index-nested-loop"
    assert sorted(pairs) == sorted(SweepJoin().pairs(probes, inner))


def test_estimates_issue_no_statements_between_analyze_passes():
    outer, _inner, tree = golden_sql_tree()
    model = tree.cost_model()
    statements = []
    tree.conn.set_trace_callback(statements.append)
    # The cached model prices every predicate (none, during, before,
    # range_duration) from its snapshot alone.
    for size in PROBE_SIZES:
        for pred in _predicates().values():
            tree.cost_model().estimate_join(outer[:size], predicate=pred)
    assert tree.cost_model() is model
    assert model.statistics.geometry.table_blocks > 0
    assert statements == []
    refreshed = tree.cost_model(refresh=True)
    assert refreshed is not model and tree.cost_model() is refreshed
    tree.conn.set_trace_callback(None)
    pragmas = [s for s in statements if s.startswith("PRAGMA")]
    assert pragmas == [
        "PRAGMA page_size",
        "PRAGMA cache_size",
        "PRAGMA database_list",
    ]
    assert len([s for s in statements if "dbstat" in s]) == 1
    # One COUNT, then one MIN and one NTILE pass per histogram (lower,
    # effective upper, duration).
    assert len([s for s in statements if s.startswith("SELECT COUNT(*)")]) == 1
    assert len([s for s in statements if s.startswith("SELECT MIN(")]) == 3
    assert len([s for s in statements if "NTILE" in s]) == 3


class _NoDbstatConnection(sqlite3.Connection):
    """A sqlite connection whose build ships no ``dbstat`` table."""

    failures: list

    def execute(self, sql, *args):
        if "dbstat" in sql:
            self.failures.append(sql)
            raise sqlite3.OperationalError("no such table: dbstat")
        return super().execute(sql, *args)


def test_missing_dbstat_is_paid_once_per_analyze():
    """A build without ``dbstat`` prices the analytic B+-tree layout and
    pays its failed lookup once per ANALYZE, not once per estimate."""
    from repro.core.costmodel import analytic_geometry

    conn = sqlite3.connect(":memory:", factory=_NoDbstatConnection)
    conn.failures = []
    outer, _inner, tree = golden_sql_tree(conn)
    model = tree.cost_model()
    for size in PROBE_SIZES:
        model.estimate_join(outer[:size])
    assert len(conn.failures) == 1
    geometry = model.statistics.geometry
    analytic = analytic_geometry(INNER_N, geometry.block_size, geometry.cache_blocks)
    assert geometry.leaf_blocks == analytic.leaf_blocks
    assert geometry.table_blocks == analytic.table_blocks
    assert geometry.memory_resident
    tree.cost_model(refresh=True)
    assert len(conn.failures) == 2
