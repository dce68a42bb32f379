"""Measurement harness for the Section 6 experiments.

Reproduces the paper's experimental protocol on the engine substrate:

* databases are built per method with the paper's server geometry (2 KB
  blocks, 200-block buffer cache, Section 6.1);
* competitor indexes (and, for comparability, the RI-tree) are *bulk
  loaded*, as in the paper ("the good clustering properties of the bulk
  loaded indexes", Section 6.3);
* the buffer cache is cleared once before each query batch, then the batch
  runs warm -- a server answering a query stream;
* per query batch we record **average physical disk-block accesses** and
  **average response time** per query, the two y-axes of Figures 13-17,
  plus the realised selectivity so the calibration is auditable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.access import AccessMethod, IntervalRecord, IntervalStore
from ..engine.database import Database

QueryInterval = tuple[int, int]

#: The paper's server geometry (Section 6.1).
PAPER_BLOCK_SIZE = 2048
PAPER_CACHE_BLOCKS = 200


def paper_database() -> Database:
    """A fresh engine instance with the paper's block/cache geometry."""
    return Database(block_size=PAPER_BLOCK_SIZE, cache_blocks=PAPER_CACHE_BLOCKS)


def build_method(
    factory: Callable[[Database], AccessMethod],
    records: Sequence[IntervalRecord],
    bulk: bool = True,
) -> AccessMethod:
    """Create a method on a fresh paper-geometry database and load it:
    bottom-up, or (``bulk=False``, Section 6.3's dynamic environment)
    by single insertions."""
    method = factory(paper_database())
    if bulk:
        method.bulk_load(records)
    else:
        for lower, upper, interval_id in records:
            method.insert(lower, upper, interval_id)
    method.db.flush()
    return method


@dataclass
class BatchResult:
    """Aggregate measurements of one query batch against one method."""

    method: str
    queries: int
    physical_io_per_query: float
    logical_io_per_query: float
    response_time_per_query: float
    results_per_query: float
    selectivity: float

    def as_row(self) -> dict:
        """Flat dict for table printing."""
        return {
            "method": self.method,
            "queries": self.queries,
            "physical I/O": round(self.physical_io_per_query, 1),
            "logical I/O": round(self.logical_io_per_query, 1),
            "time [ms]": round(self.response_time_per_query * 1000, 3),
            "avg results": round(self.results_per_query, 1),
            "selectivity [%]": round(self.selectivity * 100, 3),
        }


def run_query_batch(
    method: AccessMethod, queries: Sequence[QueryInterval], cold_start: bool = True
) -> BatchResult:
    """Run ``queries`` against ``method`` and aggregate the measurements.

    Queries go through :meth:`~repro.core.access.AccessMethod.intersection_count`,
    which executes the same scans (and therefore the same I/O) as
    ``intersection`` but lets batched methods skip materialising id lists
    -- the harness measures query execution, not list building.
    """
    if not queries:
        raise ValueError("empty query batch")
    if cold_start:
        method.db.clear_cache()
    total_results = 0
    stats = method.db.stats
    before = stats.snapshot()
    started = time.perf_counter()
    for lower, upper in queries:
        total_results += method.intersection_count(lower, upper)
    elapsed = time.perf_counter() - started
    delta = stats.snapshot() - before
    count = len(queries)
    n = max(method.interval_count, 1)
    return BatchResult(
        method=method.method_name,
        queries=count,
        physical_io_per_query=delta.physical_reads / count,
        logical_io_per_query=delta.logical_reads / count,
        response_time_per_query=elapsed / count,
        results_per_query=total_results / count,
        selectivity=(total_results / count) / n,
    )


@dataclass
class JoinBatchResult:
    """Aggregate measurements of one index-nested-loop join run."""

    method: str
    probes: int
    pairs: int
    physical_io: int
    logical_io: int
    response_time: float
    #: The planner's prediction (``JoinEstimate.as_dict()``) when the run
    #: was planned (``run_join_batch(..., plan=True)``); ``None`` otherwise.
    decision: Optional[dict] = None
    #: The evaluation the harness actually drove.  ``run_join_batch``
    #: always probes the store's own join path (index-nested-loop),
    #: whatever the planner's ``choice`` says -- surfacing both keeps
    #: plan rows honest about which join was measured.
    dispatch: str = "index-nested-loop"
    #: Join predicate name the batch ran under (None = overlap join).
    predicate: Optional[str] = None

    @property
    def io_per_pair(self) -> float:
        """Physical block accesses per emitted join pair."""
        return self.physical_io / max(self.pairs, 1)

    def as_row(self) -> dict:
        """Flat dict for table printing."""
        row = {
            "method": self.method,
            "probes": self.probes,
            "pairs": self.pairs,
            "physical I/O": self.physical_io,
            "logical I/O": self.logical_io,
            "time [ms]": round(self.response_time * 1000, 3),
            "I/O per pair": round(self.io_per_pair, 4),
        }
        if self.predicate is not None:
            row["predicate"] = self.predicate
        if self.decision is not None:
            chosen = self.decision[
                "index" if self.decision["choice"] == "index-nested-loop" else "sweep"
            ]
            row["planner choice"] = self.decision["choice"]
            row["dispatched"] = self.dispatch
            row["predicted pairs"] = self.decision["result_count"]
            row["predicted physical I/O"] = chosen["physical_reads"]
        return row


def run_join_batch(
    method: IntervalStore | str,
    probes: Sequence[IntervalRecord],
    cold_start: bool = True,
    count_only: bool = True,
    plan: bool = False,
    predicate=None,
    inner: Optional[Sequence[IntervalRecord]] = None,
    store_opts: Optional[dict] = None,
) -> JoinBatchResult:
    """Join ``probes`` against ``method``'s stored intervals, measured.

    The index join as the harness sees it: the store holds the inner
    relation and the whole probe batch runs through
    :meth:`~repro.core.access.IntervalStore.join_count` /
    :meth:`~repro.core.access.IntervalStore.join_pairs` (``count_only``
    selects between them; the default materialises no pair list).
    ``predicate`` runs the batch as an Allen-relation predicate join
    through the same entry points.

    ``method`` is any :class:`~repro.core.access.IntervalStore`, or a
    backend *name* resolved through :func:`repro.core.stores.
    create_store` (``store_opts`` forwarded to the factory); a named
    backend is bulk-loaded with ``inner`` before the measured window,
    so callers can drive any registered backend -- the sharded router
    included -- without constructing it themselves.  For
    engine-backed methods the batch's I/O is observed through
    :meth:`~repro.engine.database.Database.measure` -- the same counters
    (and, per probe, the same scans) as the Figure 13 query batches.
    Stores on a foreign engine (the sqlite3 backend) have no such
    counters; their rows report zero I/O and wall time only.

    With ``plan=True`` the store's cost model (where it has one) prices
    the batch *before* the caches are cleared, and the prediction --
    expected pair count, per-strategy logical/physical I/O -- rides along
    on :attr:`JoinBatchResult.decision`, so reports can put predicted and
    measured cost side by side.  Planning happens outside the measured
    window: the ANALYZE scan is statistics maintenance, not query work.
    """
    from ..core.predicates import resolve_join_predicate

    if isinstance(method, str):
        from ..core.stores import create_store

        method = create_store(method, **(store_opts or {}))
        if inner:
            method.bulk_load(inner)
    elif inner is not None:
        raise ValueError(
            "inner= loads a backend constructed by name; this store is "
            "already built"
        )
    pred = resolve_join_predicate(predicate)
    decision = None
    if plan:
        model = method.cost_model()
        if model is not None:
            decision = model.estimate_join(probes, predicate=pred).as_dict()
    db = getattr(method, "db", None)
    if cold_start and db is not None:
        db.clear_cache()
    started = time.perf_counter()

    def evaluate() -> int:
        if count_only:
            return method.join_count(probes, predicate=pred)
        return len(method.join_pairs(probes, predicate=pred))

    if db is not None:
        with db.measure() as delta:
            pairs = evaluate()
        physical, logical = delta.physical_reads, delta.logical_reads
    else:
        pairs = evaluate()
        physical = logical = 0
    elapsed = time.perf_counter() - started
    return JoinBatchResult(
        method=method.method_name,
        probes=len(probes),
        pairs=pairs,
        physical_io=physical,
        logical_io=logical,
        response_time=elapsed,
        decision=decision,
        predicate=None if pred is None else pred.name,
    )


@dataclass
class ExperimentResult:
    """One reproduced table/figure: labelled rows plus free-form notes."""

    experiment_id: str
    title: str
    paper_reference: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        """Append a result row (keys must match ``columns``)."""
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append(values)

    def note(self, text: str) -> None:
        """Attach a free-form observation."""
        self.notes.append(text)

    def to_markdown(self) -> str:
        """Render rows as a GitHub-style markdown table."""
        lines = [
            f"### {self.experiment_id}: {self.title}",
            f"*Paper reference: {self.paper_reference}*",
            "",
        ]
        header = " | ".join(str(c) for c in self.columns)
        separator = " | ".join("---" for _ in self.columns)
        lines.append(f"| {header} |")
        lines.append(f"| {separator} |")
        for row in self.rows:
            cells = " | ".join(str(row[c]) for c in self.columns)
            lines.append(f"| {cells} |")
        for note in self.notes:
            lines.append("")
            lines.append(f"> {note}")
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.to_markdown())
        print()

    def series(
        self, x_column: str, y_column: str, label_column: str = "method"
    ) -> dict[str, list[tuple]]:
        """Group rows into figure series: label -> [(x, y), ...]."""
        out: dict[str, list[tuple]] = {}
        for row in self.rows:
            out.setdefault(str(row[label_column]), []).append(
                (row[x_column], row[y_column])
            )
        return out
