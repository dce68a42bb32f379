"""The Section 6 experiments, one function per table/figure.

Every experiment returns an :class:`~repro.bench.harness.ExperimentResult`
whose rows are the series the paper plots.  Absolute numbers differ from the
paper (Python substrate vs. PL/SQL on a Pentium Pro/180); the *shapes* --
who wins, by what factor, where trends bend -- are the reproduction target.
See the "Paper vs measured" section of docs/benchmarks.md.

Scaling: experiments accept a scale preset (``tiny`` for smoke tests,
``small`` -- the default and the smallest that separates the methods --
and ``full`` for paper-size runs).
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable, Optional

from ..core.backbone import FixedHeightBackbone, VirtualBackbone
from ..core.ritree import RITree
from ..core.temporal import UPPER_INF
from ..engine.database import Database
from ..methods.ist import ISTree
from ..methods.tindex import TileIndex, tune_fixed_level
from ..methods.windowlist import WindowList
from ..sql.ritree_sql import SQLRITree
from ..workloads import distributions, queries as query_gen
from .harness import (
    BatchResult,
    ExperimentResult,
    build_method,
    paper_database,
    run_query_batch,
)

#: Scale presets: every size knob of every experiment.
SCALES: dict[str, dict] = {
    "tiny": dict(
        fig12_sizes=[500, 1000, 2000],
        fig13_n=2000,
        fig13_selectivities=[0.005, 0.015, 0.03],
        fig13_queries=10,
        fig14_sizes=[500, 1000, 2000],
        fig14_queries=8,
        fig15_n=2000,
        fig15_selectivities=[0.0, 0.005, 0.012],
        fig15_queries=8,
        fig16_n=2000,
        fig16_means=[0, 500, 1000, 2000],
        fig16_queries=8,
        fig17_n=4000,
        fig17_distances=[0, 50_000, 100_000, 150_000, 200_000],
        fig17_queries=5,
        windowlist_n=2000,
        windowlist_queries=20,
        tune_sample=200,
        tune_queries=10,
        tune_levels=range(2, 15),
        ablation_n=2000,
        ablation_queries=15,
        join_outer_n=200,
        join_inner_n=2000,
        join_outer_d=2000,
        join_inner_d=2000,
        crossover_outer_ns=[5, 20, 80, 320],
        crossover_inner_ns=[2000],
        crossover_inner_ds=[500, 2000],
        predicate_outer_n=120,
        predicate_inner_n=1200,
        predicate_grid_outer_ns=[5, 80],
        predicate_grid_inner_n=8000,
        predicate_grid_relations=["before", "during", "met_by"],
        range_duration_n=1500,
        range_duration_temporal_rows=40,
        range_duration_queries=6,
        range_duration_bands=[(0.0, 0.5), (0.2, 0.8), (0.75, 1.0)],
        range_duration_shard_counts=[1, 2, 4],
        range_duration_probe_n=60,
        range_duration_grid_outer_ns=[5, 80],
        range_duration_grid_inner_n=8000,
        range_duration_grid_bands=[(0.0, 0.35), (0.0, 1.0), (0.6, 1.0)],
        service_n=1500,
        service_ops=500,
        service_shards=2,
        service_domain=20_000,
        service_concurrencies=[1, 16],
        service_repeats=3,
        ingest_batches=16,
        ingest_batch_size=40,
        ingest_flush=120,
        ingest_checkpoint=3,
        ingest_open_fraction=0.12,
        ingest_mean_length=400,
        ingest_check_every=4,
        ingest_crash_batches=3,
        ingest_crash_batch_size=10,
        ingest_crash_flush=20,
        ingest_serve_n=1200,
        ingest_serve_batches=10,
        ingest_serve_batch_size=60,
        ingest_serve_shards=2,
        ingest_serve_domain=20_000,
        ingest_serve_queries=60,
        ingest_serve_concurrency=4,
    ),
    "small": dict(
        fig12_sizes=[1000, 5000, 20_000, 50_000],
        fig13_n=20_000,
        fig13_selectivities=[0.005, 0.01, 0.015, 0.02, 0.025, 0.03],
        fig13_queries=50,
        fig14_sizes=[1000, 10_000, 100_000],
        fig14_queries=20,
        fig15_n=20_000,
        fig15_selectivities=[0.0, 0.002, 0.005, 0.012],
        fig15_queries=20,
        fig16_n=20_000,
        fig16_means=[0, 250, 500, 1000, 1500, 2000],
        fig16_queries=20,
        fig17_n=40_000,
        fig17_distances=[
            0, 25_000, 50_000, 75_000, 100_000, 125_000, 150_000, 175_000, 200_000
        ],
        fig17_queries=10,
        windowlist_n=20_000,
        windowlist_queries=50,
        tune_sample=1000,
        tune_queries=20,
        tune_levels=range(2, 15),
        ablation_n=20_000,
        ablation_queries=30,
        join_outer_n=1500,
        join_inner_n=15_000,
        join_outer_d=2000,
        join_inner_d=2000,
        crossover_outer_ns=[5, 10, 20, 40, 80, 160, 320, 640],
        crossover_inner_ns=[4000, 8000],
        crossover_inner_ds=[1000, 2000],
        predicate_outer_n=400,
        predicate_inner_n=4000,
        predicate_grid_outer_ns=[5, 20, 80, 320],
        predicate_grid_inner_n=8000,
        predicate_grid_relations=["before", "during", "met_by", "overlaps"],
        range_duration_n=8000,
        range_duration_temporal_rows=200,
        range_duration_queries=16,
        range_duration_bands=[(0.0, 0.5), (0.2, 0.8), (0.75, 1.0)],
        range_duration_shard_counts=[1, 2, 4],
        range_duration_probe_n=300,
        range_duration_grid_outer_ns=[5, 20, 80, 320],
        range_duration_grid_inner_n=8000,
        range_duration_grid_bands=[
            (0.0, 0.25), (0.0, 0.6), (0.0, 1.0), (0.5, 1.0)
        ],
        service_n=20_000,
        service_ops=4_000,
        service_shards=4,
        service_domain=100_000,
        service_concurrencies=[1, 4, 16],
        service_repeats=3,
        ingest_batches=60,
        ingest_batch_size=200,
        ingest_flush=600,
        ingest_checkpoint=5,
        ingest_open_fraction=0.1,
        ingest_mean_length=1000,
        ingest_check_every=10,
        ingest_crash_batches=4,
        ingest_crash_batch_size=15,
        ingest_crash_flush=30,
        ingest_serve_n=10_000,
        ingest_serve_batches=40,
        ingest_serve_batch_size=250,
        ingest_serve_shards=4,
        ingest_serve_domain=100_000,
        ingest_serve_queries=400,
        ingest_serve_concurrency=8,
    ),
    "full": dict(
        fig12_sizes=[1000, 10_000, 100_000, 300_000, 1_000_000],
        fig13_n=100_000,
        fig13_selectivities=[0.005, 0.01, 0.015, 0.02, 0.025, 0.03],
        fig13_queries=100,
        fig14_sizes=[1000, 10_000, 100_000, 1_000_000],
        fig14_queries=20,
        fig15_n=100_000,
        fig15_selectivities=[0.0, 0.002, 0.005, 0.012],
        fig15_queries=20,
        fig16_n=100_000,
        fig16_means=[0, 250, 500, 1000, 1500, 2000],
        fig16_queries=20,
        fig17_n=200_000,
        fig17_distances=[
            0, 25_000, 50_000, 75_000, 100_000, 125_000, 150_000, 175_000, 200_000
        ],
        fig17_queries=20,
        windowlist_n=100_000,
        windowlist_queries=100,
        tune_sample=1000,
        tune_queries=20,
        tune_levels=range(2, 15),
        ablation_n=100_000,
        ablation_queries=50,
        join_outer_n=5000,
        join_inner_n=100_000,
        join_outer_d=2000,
        join_inner_d=2000,
        crossover_outer_ns=[5, 10, 20, 40, 80, 160, 320, 640, 1280],
        crossover_inner_ns=[8000, 15_000, 30_000],
        crossover_inner_ds=[500, 2000, 4000],
        predicate_outer_n=800,
        predicate_inner_n=8000,
        predicate_grid_outer_ns=[5, 20, 80, 320, 1280],
        predicate_grid_inner_n=15_000,
        predicate_grid_relations=["before", "during", "met_by", "overlaps", "equals"],
        range_duration_n=40_000,
        range_duration_temporal_rows=1000,
        range_duration_queries=30,
        range_duration_bands=[
            (0.0, 0.35), (0.0, 0.5), (0.2, 0.8), (0.5, 1.0), (0.75, 1.0)
        ],
        range_duration_shard_counts=[1, 2, 4, 8],
        range_duration_probe_n=1000,
        range_duration_grid_outer_ns=[5, 20, 80, 320, 1280],
        range_duration_grid_inner_n=15_000,
        range_duration_grid_bands=[
            (0.0, 0.25), (0.0, 0.6), (0.0, 1.0), (0.5, 1.0)
        ],
        service_n=100_000,
        service_ops=20_000,
        service_shards=4,
        service_domain=500_000,
        service_concurrencies=[1, 4, 16, 64],
        service_repeats=3,
        ingest_batches=200,
        ingest_batch_size=500,
        ingest_flush=2000,
        ingest_checkpoint=8,
        ingest_open_fraction=0.1,
        ingest_mean_length=1000,
        ingest_check_every=25,
        ingest_crash_batches=5,
        ingest_crash_batch_size=20,
        ingest_crash_flush=40,
        ingest_serve_n=50_000,
        ingest_serve_batches=100,
        ingest_serve_batch_size=500,
        ingest_serve_shards=4,
        ingest_serve_domain=500_000,
        ingest_serve_queries=2000,
        ingest_serve_concurrency=16,
    ),
}

#: T-index builds above this entry estimate are skipped (with a note) to
#: keep default runs inside laptop memory budgets.  Override with the
#: REPRO_TINDEX_LIMIT environment variable for paper-size T-index runs.
TINDEX_ENTRY_LIMIT = int(os.environ.get("REPRO_TINDEX_LIMIT", 6_000_000))


def get_scale(name: Optional[str] = None) -> dict:
    """Resolve a scale preset by name (default ``small``)."""
    chosen = name or "small"
    try:
        return dict(SCALES[chosen], name=chosen)
    except KeyError:
        raise ValueError(
            f"unknown scale {chosen!r}; expected one of {sorted(SCALES)}"
        ) from None


# ----------------------------------------------------------------------
# method factories
# ----------------------------------------------------------------------
def ritree_factory(db: Database) -> RITree:
    """RI-tree on the shared engine geometry."""
    return RITree(db)


def ist_factory(db: Database) -> ISTree:
    """IST with the D-ordering used by the paper's evaluation."""
    return ISTree(db)


def tindex_factory(fixed_level: int) -> Callable[[Database], TileIndex]:
    """T-index factory bound to a tuned fixed level."""

    def factory(db: Database) -> TileIndex:
        return TileIndex(db, fixed_level=fixed_level)

    return factory


def tuned_level_for(
    workload: distributions.Workload,
    scale: dict,
    selectivity: float = 0.01,
    seed: int = 11,
) -> int:
    """The paper's tuning protocol: sample intervals, replay queries."""
    sample_size = min(scale["tune_sample"], len(workload.records))
    sample = workload.records[:sample_size]
    tuning_queries = query_gen.range_queries(
        workload, selectivity, scale["tune_queries"], seed=seed
    )
    return tune_fixed_level(sample, tuning_queries, levels=scale["tune_levels"])


# ----------------------------------------------------------------------
# Table 1 -- the data distributions
# ----------------------------------------------------------------------
def table1_workloads(
    scale_name: Optional[str] = None, seed: int = 0
) -> ExperimentResult:
    """Reproduce Table 1: generate each distribution, report its shape."""
    scale = get_scale(scale_name)
    n = scale["fig13_n"]
    result = ExperimentResult(
        experiment_id="table1",
        title=f"Sample interval databases (n={n}, d=2000)",
        paper_reference="Table 1, Section 6.1",
        columns=[
            "distribution",
            "n",
            "mean length",
            "min lower",
            "max upper",
            "points (len=0)",
        ],
    )
    for name in sorted(distributions.DISTRIBUTIONS):
        workload = distributions.make(name, n, 2000, seed=seed)
        lo, hi = workload.bounds()
        zero = sum(1 for lower, upper, _ in workload.records if upper == lower)
        result.add_row(
            **{
                "distribution": workload.name,
                "n": workload.n,
                "mean length": round(workload.mean_length, 1),
                "min lower": lo,
                "max upper": hi,
                "points (len=0)": zero,
            }
        )
    result.note(
        "Bounding points lie in [0, 2^20 - 1]; D3/D4 arrive in "
        "Poisson start order. Every distribution contains length-0 "
        "intervals, so minstep reaches its minimum (Section 6.1)."
    )
    return result


# ----------------------------------------------------------------------
# Section 6.1 -- Window-List vs RI-tree
# ----------------------------------------------------------------------
def windowlist_comparison(
    scale_name: Optional[str] = None, seed: int = 0
) -> ExperimentResult:
    """Section 6.1: "queries on Window-Lists produced twice as many I/O
    operations than on the dynamic RI-tree"."""
    scale = get_scale(scale_name)
    n = scale["windowlist_n"]
    workload = distributions.d1(n, 2000, seed=seed)
    query_batch = query_gen.range_queries(
        workload, 0.005, scale["windowlist_queries"], seed=seed + 1
    )
    result = ExperimentResult(
        experiment_id="sec6.1-windowlist",
        title=f"Window-List vs RI-tree, D1({n},2k), 0.5% queries",
        paper_reference="Section 6.1 (Window-List paragraph)",
        columns=[
            "method",
            "physical I/O",
            "logical I/O",
            "time [ms]",
            "avg results",
            "index entries",
        ],
    )
    methods = [
        build_method(lambda db: WindowList(db), workload.records),
        build_method(ritree_factory, workload.records),
    ]
    batch_results: list[BatchResult] = []
    for method in methods:
        batch = run_query_batch(method, query_batch)
        batch_results.append(batch)
        row = batch.as_row()
        result.add_row(
            **{
                "method": row["method"],
                "physical I/O": row["physical I/O"],
                "logical I/O": row["logical I/O"],
                "time [ms]": row["time [ms]"],
                "avg results": row["avg results"],
                "index entries": method.index_entry_count,
            }
        )
    wl, ri = batch_results
    if ri.physical_io_per_query > 0:
        ratio = wl.physical_io_per_query / ri.physical_io_per_query
        result.note(
            f"Window-List / RI-tree physical I/O ratio: {ratio:.2f} (paper: ~2)."
        )
    return result


# ----------------------------------------------------------------------
# Figure 12 -- storage occupation
# ----------------------------------------------------------------------
def fig12_storage(scale_name: Optional[str] = None, seed: int = 0) -> ExperimentResult:
    """Index entries vs database size on D4(*, 2k)."""
    scale = get_scale(scale_name)
    sizes = scale["fig12_sizes"]
    tuning_workload = distributions.d4(max(sizes[0], 1000), 2000, seed=seed)
    level = tuned_level_for(tuning_workload, scale, selectivity=0.006)
    result = ExperimentResult(
        experiment_id="fig12",
        title="Number of index entries for varying database size, D4(*,2k)",
        paper_reference="Figure 12, Section 6.2",
        columns=["db size", "method", "index entries", "redundancy"],
    )
    verified = False
    for n in sizes:
        workload = distributions.d4(n, 2000, seed=seed)
        tile = TileIndex(paper_database(), fixed_level=level)
        tindex_entries = sum(
            len(tile.tiles_for(lower, upper)) for lower, upper, _ in workload.records
        )
        if not verified and tindex_entries <= 500_000:
            tile.bulk_load(workload.records)
            assert tile.index_entry_count == tindex_entries
            verified = True
        for method_name, entries in (
            ("T-index", tindex_entries), ("IST", n), ("RI-tree", 2 * n)
        ):
            result.add_row(
                **{
                    "db size": n,
                    "method": method_name,
                    "index entries": entries,
                    "redundancy": round(entries / n, 2) if n else 0.0,
                }
            )
    result.note(
        f"T-index fixed level tuned to {level} by the Section 6.1 "
        "protocol. IST stores one entry per interval, the RI-tree "
        "two (lowerIndex + upperIndex); only the T-index entry "
        "count depends on interval decomposition (paper: factor "
        "10.1 at its optimum level)."
    )
    result.note(
        "T-index entry counts are computed from the decomposition "
        "and verified against a materialised index at the smallest "
        "size."
    )
    return result


# ----------------------------------------------------------------------
# Figure 13 -- I/O and response time vs query selectivity
# ----------------------------------------------------------------------
def fig13_selectivity(
    scale_name: Optional[str] = None, seed: int = 0
) -> ExperimentResult:
    """Disk accesses and response time for range queries on D1."""
    scale = get_scale(scale_name)
    n = scale["fig13_n"]
    workload = distributions.d1(n, 2000, seed=seed)
    level = tuned_level_for(workload, scale, selectivity=0.01)
    result = ExperimentResult(
        experiment_id="fig13",
        title=f"Range queries on D1({n},2k) by query selectivity",
        paper_reference="Figure 13, Section 6.3",
        columns=[
            "selectivity [%]", "method", "physical I/O", "time [ms]", "avg results"
        ],
    )
    methods = {
        "T-index": build_method(tindex_factory(level), workload.records),
        "IST": build_method(ist_factory, workload.records),
        "RI-tree": build_method(ritree_factory, workload.records),
    }
    speedups = []
    for selectivity in scale["fig13_selectivities"]:
        query_batch = query_gen.range_queries(
            workload, selectivity, scale["fig13_queries"], seed=seed + 7
        )
        per_method: dict[str, BatchResult] = {}
        for label, method in methods.items():
            batch = run_query_batch(method, query_batch)
            per_method[label] = batch
            result.add_row(
                **{
                    "selectivity [%]": round(selectivity * 100, 2),
                    "method": label,
                    "physical I/O": round(batch.physical_io_per_query, 1),
                    "time [ms]": round(batch.response_time_per_query * 1000, 2),
                    "avg results": round(batch.results_per_query, 1),
                }
            )
        ri = per_method["RI-tree"].physical_io_per_query
        if ri > 0:
            speedups.append(
                (
                    round(selectivity * 100, 2),
                    round(per_method["T-index"].physical_io_per_query / ri, 1),
                    round(per_method["IST"].physical_io_per_query / ri, 1),
                )
            )
    for sel, t_factor, ist_factor in speedups:
        result.note(
            f"selectivity {sel}%: RI-tree I/O speedup factor "
            f"{t_factor} vs T-index, {ist_factor} vs IST "
            "(paper at 0.5%: 10.8 / 46.3; at 3.0%: 22.8 / 13.6)."
        )
    result.note(f"T-index fixed level tuned to {level}.")
    return result


# ----------------------------------------------------------------------
# Figure 14 -- scaleup with database size
# ----------------------------------------------------------------------
def fig14_scaleup(scale_name: Optional[str] = None, seed: int = 0) -> ExperimentResult:
    """Disk accesses and response time vs database size on D4(*, 2k)."""
    scale = get_scale(scale_name)
    sizes = scale["fig14_sizes"]
    tuning_workload = distributions.d4(min(sizes[-1], 10_000), 2000, seed=seed)
    level = tuned_level_for(tuning_workload, scale, selectivity=0.006)
    result = ExperimentResult(
        experiment_id="fig14",
        title="Range queries on D4(*,2k), selectivity 0.6%, by db size",
        paper_reference="Figure 14, Section 6.3",
        columns=["db size", "method", "physical I/O", "time [ms]", "avg results"],
    )
    first_speedup = None
    last_speedup = None
    for n in sizes:
        workload = distributions.d4(n, 2000, seed=seed)
        query_batch = query_gen.range_queries(
            workload, 0.006, scale["fig14_queries"], seed=seed + 3
        )
        methods: dict[str, object] = {}
        tile_probe = TileIndex(paper_database(), fixed_level=level)
        tindex_entries = sum(
            len(tile_probe.tiles_for(lower, upper))
            for lower, upper, _ in workload.records
        )
        if tindex_entries <= TINDEX_ENTRY_LIMIT:
            methods["T-index"] = build_method(tindex_factory(level), workload.records)
        else:
            result.note(
                f"T-index skipped at n={n}: estimated "
                f"{tindex_entries} entries exceed the "
                f"{TINDEX_ENTRY_LIMIT} build limit."
            )
        methods["IST"] = build_method(ist_factory, workload.records)
        methods["RI-tree"] = build_method(ritree_factory, workload.records)
        per_method: dict[str, BatchResult] = {}
        for label, method in methods.items():
            batch = run_query_batch(method, query_batch)
            per_method[label] = batch
            result.add_row(
                **{
                    "db size": n,
                    "method": label,
                    "physical I/O": round(batch.physical_io_per_query, 1),
                    "time [ms]": round(batch.response_time_per_query * 1000, 2),
                    "avg results": round(batch.results_per_query, 1),
                }
            )
        if "T-index" in per_method:
            ri = per_method["RI-tree"]
            if ri.physical_io_per_query > 0:
                io_factor = (
                    per_method["T-index"].physical_io_per_query
                    / ri.physical_io_per_query
                )
                time_factor = (
                    per_method["T-index"].response_time_per_query
                    / max(ri.response_time_per_query, 1e-9)
                )
                if first_speedup is None:
                    first_speedup = (n, io_factor, time_factor)
                last_speedup = (n, io_factor, time_factor)
    if first_speedup and last_speedup and first_speedup != last_speedup:
        result.note(
            f"T-index/RI-tree speedup grows from {first_speedup[1]:.1f}x "
            f"I/O ({first_speedup[2]:.1f}x time) at n={first_speedup[0]} to "
            f"{last_speedup[1]:.1f}x I/O ({last_speedup[2]:.1f}x time) at "
            f"n={last_speedup[0]} (paper: 2 -> 42 I/O, 2.0 -> 4.9 time)."
        )
    result.note(f"T-index fixed level tuned to {level}.")
    return result


# ----------------------------------------------------------------------
# Figure 15 -- data-space granularity (minstep)
# ----------------------------------------------------------------------
def fig15_granularity(
    scale_name: Optional[str] = None, seed: int = 0
) -> ExperimentResult:
    """RI-tree response time on restricted D3 databases."""
    scale = get_scale(scale_name)
    n = scale["fig15_n"]
    ranges = [(0, 4000), (500, 3500), (1000, 3000), (1500, 2500)]
    result = ExperimentResult(
        experiment_id="fig15",
        title=f"RI-tree on restricted D3({n}) databases by minimum length",
        paper_reference="Figure 15, Section 6.3",
        columns=[
            "min length",
            "selectivity [%]",
            "physical I/O",
            "time [ms]",
            "avg results",
            "minstep",
            "height",
        ],
    )
    for min_len, max_len in ranges:
        workload = distributions.d3_restricted(n, min_len, max_len, seed=seed)
        tree = build_method(ritree_factory, workload.records)
        for selectivity in scale["fig15_selectivities"]:
            query_batch = query_gen.range_queries(
                workload, selectivity, scale["fig15_queries"], seed=seed + 5
            )
            batch = run_query_batch(tree, query_batch)
            result.add_row(
                **{
                    "min length": min_len,
                    "selectivity [%]": round(selectivity * 100, 2),
                    "physical I/O": round(batch.physical_io_per_query, 1),
                    "time [ms]": round(batch.response_time_per_query * 1000, 2),
                    "avg results": round(batch.results_per_query, 1),
                    "minstep": tree.backbone.minstep,
                    "height": tree.backbone.height(),
                }
            )
    result.note(
        "Larger minimum interval lengths raise minstep, so query "
        "walks prune earlier; response time should stay nearly "
        "flat across the x-axis and be dominated by the result "
        "count (paper: 'almost independent of the minimum length')."
    )
    return result


# ----------------------------------------------------------------------
# Figure 16 -- mean interval duration
# ----------------------------------------------------------------------
def fig16_duration(scale_name: Optional[str] = None, seed: int = 0) -> ExperimentResult:
    """Response time vs mean interval duration on D4(n, *)."""
    scale = get_scale(scale_name)
    n = scale["fig16_n"]
    result = ExperimentResult(
        experiment_id="fig16",
        title=f"Range queries on D4({n},*), selectivity 1.0%, by mean duration",
        paper_reference="Figure 16, Section 6.3",
        columns=[
            "mean duration",
            "method",
            "physical I/O",
            "time [ms]",
            "avg results",
            "T-index redundancy",
        ],
    )
    for mean in scale["fig16_means"]:
        workload = distributions.d4(n, mean, seed=seed)
        level = tuned_level_for(workload, scale, selectivity=0.01, seed=seed + 13)
        tindex = build_method(tindex_factory(level), workload.records)
        methods = {
            "IST": build_method(ist_factory, workload.records),
            "T-index": tindex,
            "RI-tree": build_method(ritree_factory, workload.records),
        }
        query_batch = query_gen.range_queries(
            workload, 0.01, scale["fig16_queries"], seed=seed + 5
        )
        for label, method in methods.items():
            batch = run_query_batch(method, query_batch)
            result.add_row(
                **{
                    "mean duration": mean,
                    "method": label,
                    "physical I/O": round(batch.physical_io_per_query, 1),
                    "time [ms]": round(batch.response_time_per_query * 1000, 2),
                    "avg results": round(batch.results_per_query, 1),
                    "T-index redundancy": (
                        round(tindex.redundancy, 2) if label == "T-index" else ""
                    ),
                }
            )
    result.note(
        "The T-index is re-tuned per mean duration (its optimum "
        "level shifts with interval length); its redundancy should "
        "fall toward 1 as durations approach 0 while the RI-tree "
        "stays at 2 entries/interval and remains at least as fast "
        "even for pure point databases (paper: 'slightly better')."
    )
    return result


# ----------------------------------------------------------------------
# Figure 17 -- sweeping point query
# ----------------------------------------------------------------------
def fig17_sweep(scale_name: Optional[str] = None, seed: int = 0) -> ExperimentResult:
    """Point-query position sweep on D2: the IST degeneration."""
    scale = get_scale(scale_name)
    n = scale["fig17_n"]
    workload = distributions.d2(n, 2000, seed=seed)
    # Tune with the experiment's own query type: point queries across the
    # swept region (the paper tunes per distribution and workload).
    sample_size = min(scale["tune_sample"], len(workload.records))
    tuning_points = query_gen.sweeping_point_queries(
        [d + 331 for d in scale["fig17_distances"]]
    )
    level = tune_fixed_level(
        workload.records[:sample_size], tuning_points, levels=scale["tune_levels"]
    )
    methods = {
        "IST": build_method(ist_factory, workload.records),
        "T-index": build_method(tindex_factory(level), workload.records),
        "RI-tree": build_method(ritree_factory, workload.records),
    }
    result = ExperimentResult(
        experiment_id="fig17",
        title=f"Sweeping point query on D2({n},2k)",
        paper_reference="Figure 17, Section 6.3",
        columns=[
            "distance to upper bound",
            "method",
            "physical I/O",
            "time [ms]",
            "avg results",
        ],
    )
    rng_offsets = list(range(scale["fig17_queries"]))
    for distance in scale["fig17_distances"]:
        base = distributions.DOMAIN_MAX - distance
        # A small cluster of nearby points per distance, averaged.
        query_batch = [
            (max(0, base - 31 * k), max(0, base - 31 * k)) for k in rng_offsets
        ]
        for label, method in methods.items():
            batch = run_query_batch(method, query_batch)
            result.add_row(
                **{
                    "distance to upper bound": distance,
                    "method": label,
                    "physical I/O": round(batch.physical_io_per_query, 1),
                    "time [ms]": round(batch.response_time_per_query * 1000, 2),
                    "avg results": round(batch.results_per_query, 1),
                }
            )
    result.note(
        "The IST (D-order: index on (upper, lower)) must scan every "
        "entry with upper >= query point, so its cost grows "
        "linearly with the distance from the data space's upper "
        "bound; RI-tree and T-index stay flat, with the RI-tree "
        "slightly ahead (paper Figure 17)."
    )
    result.note(f"T-index fixed level tuned to {level}.")
    return result


# ----------------------------------------------------------------------
# Ablations (design choices; their gates are in docs/benchmarks.md)
# ----------------------------------------------------------------------
def ablation_query_forms(
    scale_name: Optional[str] = None, seed: int = 0
) -> ExperimentResult:
    """A1: Figure 9 UNION ALL vs Figure 8 three-branch OR.

    Runs on sqlite3.  Figure 8 executes verbatim; Figure 9 splits its
    ``leftNodes`` branch by row shape so sqlite seeks ``(node, upper)``
    as Figure 10 does (:func:`repro.sql.schema.figure9_sql`).
    """
    scale = get_scale(scale_name)
    n = scale["ablation_n"]
    workload = distributions.d1(n, 2000, seed=seed)
    tree = SQLRITree()
    tree.bulk_load(workload.records)
    query_batch = query_gen.range_queries(
        workload, 0.01, scale["ablation_queries"], seed=seed + 1
    )
    result = ExperimentResult(
        experiment_id="ablation-A1",
        title=f"Query formulations on sqlite3, D1({n},2k), 1% selectivity",
        paper_reference="Figures 8 vs 9, Sections 4.2-4.3",
        columns=["query form", "time [ms]", "avg results"],
    )
    for label, runner in (
        ("Figure 9 (UNION ALL, folded BETWEEN)", tree.intersection),
        ("Figure 8 (3-branch OR)", tree.intersection_preliminary),
    ):
        started = time.perf_counter()
        total = 0
        for lower, upper in query_batch:
            total += len(runner(lower, upper))
        elapsed = time.perf_counter() - started
        result.add_row(
            **{
                "query form": label,
                "time [ms]": round(elapsed / len(query_batch) * 1000, 3),
                "avg results": round(total / len(query_batch), 1),
            }
        )
    result.note(
        "Both forms return identical results; the UNION ALL form "
        "lets the optimizer drive each branch from the matching "
        "composite index (paper Section 4.3)."
    )
    return result


def ablation_expansion(
    scale_name: Optional[str] = None, seed: int = 0
) -> ExperimentResult:
    """A2: dynamic root/offset adaptation vs fixed-height backbones.

    Data occupies a narrow band far from the origin, the situation the
    offset/root machinery of Section 3.4 exists for.
    """
    scale = get_scale(scale_name)
    n = scale["ablation_n"]
    rng_workload = distributions.d1(n, 200, seed=seed)
    # Compress starts into [900000, 916384): 2^14 wide, far from 0.
    records = [
        (900_000 + (lower % 16_384), 900_000 + (lower % 16_384) + (upper - lower), i)
        for i, (lower, upper, _) in enumerate(rng_workload.records)
    ]
    query_batch = [
        (900_000 + (13 * k) % 16_384, 900_000 + (13 * k) % 16_384 + 3000)
        for k in range(scale["ablation_queries"])
    ]
    variants = [
        ("adaptive (Section 3.4)", VirtualBackbone()),
        ("fixed height 20", FixedHeightBackbone(20)),
        ("fixed height 48", FixedHeightBackbone(48)),
    ]
    result = ExperimentResult(
        experiment_id="ablation-A2",
        title=f"Backbone expansion strategies, {n} intervals in a narrow band at 900k",
        paper_reference="Sections 3.3-3.5",
        columns=[
            "backbone", "height", "avg transient entries", "physical I/O", "time [ms]"
        ],
    )
    for label, backbone in variants:
        db = paper_database()
        tree = RITree(db, backbone=backbone)
        tree.bulk_load(records)
        db.flush()
        entries = (
            sum(tree.query_nodes(lo, up).total_entries for lo, up in query_batch)
            / len(query_batch)
        )
        batch = run_query_batch(tree, query_batch)
        result.add_row(
            **{
                "backbone": label,
                "height": tree.backbone.height(),
                "avg transient entries": round(entries, 1),
                "physical I/O": round(batch.physical_io_per_query, 1),
                "time [ms]": round(batch.response_time_per_query * 1000, 2),
            }
        )
    result.note(
        "The adaptive backbone shifts the band to the origin and "
        "sizes the root to the occupied range; fixed backbones pay "
        "one extra transient entry (and index probe) per wasted "
        "level."
    )
    return result


def ablation_minstep(
    scale_name: Optional[str] = None, seed: int = 0
) -> ExperimentResult:
    """A3: the minstep pruning lemma on vs off (Section 3.4)."""
    scale = get_scale(scale_name)
    n = scale["ablation_n"]
    workload = distributions.d3_restricted(n, 1500, 2500, seed=seed)
    query_batch = query_gen.range_queries(
        workload, 0.005, scale["ablation_queries"], seed=seed + 1
    )
    result = ExperimentResult(
        experiment_id="ablation-A3",
        title=f"minstep pruning on D3({n},[1500,2500]) (min length 1500)",
        paper_reference="Section 3.4 (Lemma) and Figure 15",
        columns=[
            "minstep pruning",
            "minstep",
            "avg transient entries",
            "physical I/O",
            "time [ms]",
        ],
    )
    for use_minstep in (True, False):
        db = paper_database()
        tree = RITree(db, backbone=VirtualBackbone(use_minstep=use_minstep))
        tree.bulk_load(workload.records)
        db.flush()
        entries = (
            sum(tree.query_nodes(lo, up).total_entries for lo, up in query_batch)
            / len(query_batch)
        )
        batch = run_query_batch(tree, query_batch)
        result.add_row(
            **{
                "minstep pruning": "on" if use_minstep else "off",
                "minstep": tree.backbone.minstep,
                "avg transient entries": round(entries, 1),
                "physical I/O": round(batch.physical_io_per_query, 1),
                "time [ms]": round(batch.response_time_per_query * 1000, 2),
            }
        )
    result.note(
        "With all intervals at least 1500 long, nothing registers "
        "below level ~10, so pruned walks stop ~10 levels early; "
        "disabling the lemma pays two index probes per skipped "
        "level per query."
    )
    return result


def ablation_temporal(
    scale_name: Optional[str] = None, seed: int = 0
) -> ExperimentResult:
    """A4: reserved fork nodes for infinity vs the naive MAXINT tree.

    Section 4.6's first attempt "set the fork node of an infinite interval
    to MAXINT but do not further modify the algorithms. Thus, the tree
    becomes very high but it is almost empty close to the root."
    """
    scale = get_scale(scale_name)
    n = scale["ablation_n"]
    workload = distributions.d2(n, 2000, seed=seed)
    infinite_lowers = [lower for lower, _, __ in workload.records[: n // 10]]
    query_batch = query_gen.range_queries(
        workload, 0.005, scale["ablation_queries"], seed=seed + 1
    )
    result = ExperimentResult(
        experiment_id="ablation-A4",
        title=f"Infinite intervals: reserved fork node vs naive MAXINT "
        f"({n} finite + {n // 10} infinite)",
        paper_reference="Section 4.6",
        columns=[
            "strategy", "height", "avg transient entries", "physical I/O",
            "time [ms]", "avg results",
        ],
    )
    # Strategy 1: Section 4.6's reserved fork node.
    reserved = RITree(paper_database())
    reserved.bulk_load(workload.records)
    for k, lower in enumerate(infinite_lowers):
        reserved.insert(lower, UPPER_INF, n + k)
    reserved.db.flush()
    # Strategy 2: naive registration with a huge upper bound.
    naive = RITree(paper_database())
    naive.bulk_load(
        workload.records
        + [(lower, 2**40, n + k) for k, lower in enumerate(infinite_lowers)]
    )
    naive.db.flush()
    for label, tree in (
        ("reserved fork node (Section 4.6)", reserved),
        ("naive MAXINT-high tree", naive),
    ):
        entries = (
            sum(tree.query_nodes(lo, up).total_entries for lo, up in query_batch)
            / len(query_batch)
        )
        batch = run_query_batch(tree, query_batch)
        result.add_row(
            **{
                "strategy": label,
                "height": tree.backbone.height(),
                "avg transient entries": round(entries, 1),
                "physical I/O": round(batch.physical_io_per_query, 1),
                "time [ms]": round(batch.response_time_per_query * 1000, 2),
                "avg results": round(batch.results_per_query, 1),
            }
        )
    result.note(
        "Results agree between strategies; the naive tree's root "
        "doubles out to 2^40, inflating every query walk, while "
        "the reserved node adds exactly one rightNodes entry."
    )
    return result


def dynamic_environment(
    scale_name: Optional[str] = None, seed: int = 0
) -> ExperimentResult:
    """Section 6.3's unplotted claim: bulk-load clustering vs dynamic builds.

    "The fast response times of T-index and IST ... are caused by the good
    clustering properties of the bulk loaded indexes and will deteriorate
    in a dynamic environment."  Here every method is built twice over the
    same D1 data -- once bulk loaded, once by single inserts in random
    arrival order -- and queried identically.
    """
    scale = get_scale(scale_name)
    n = min(scale["windowlist_n"], 10_000)
    workload = distributions.d1(n, 2000, seed=seed)
    shuffled = list(workload.records)
    random.Random(seed + 1).shuffle(shuffled)
    query_batch = query_gen.range_queries(
        workload, 0.005, scale["ablation_queries"], seed=seed + 2
    )
    result = ExperimentResult(
        experiment_id="dynamic",
        title=f"Bulk-loaded vs dynamically built indexes, D1({n},2k), 0.5% queries",
        paper_reference="Section 6.3 (clustering remark)",
        columns=["method", "build", "physical I/O", "time [ms]", "avg results"],
    )
    factories = {
        "RI-tree": ritree_factory,
        "IST": ist_factory,
        "T-index": tindex_factory(10),
    }
    deterioration: dict[str, tuple[float, float]] = {}
    for label, factory in factories.items():
        for build, bulk in (("bulk", True), ("dynamic", False)):
            method = build_method(factory, shuffled, bulk=bulk)
            batch = run_query_batch(method, query_batch)
            result.add_row(
                **{
                    "method": label,
                    "build": build,
                    "physical I/O": round(batch.physical_io_per_query, 1),
                    "time [ms]": round(batch.response_time_per_query * 1000, 2),
                    "avg results": round(batch.results_per_query, 1),
                }
            )
            pair = deterioration.setdefault(label, [0.0, 0.0])
            pair[0 if bulk else 1] = batch.physical_io_per_query
    for label, (bulk_io, dynamic_io) in deterioration.items():
        if bulk_io > 0:
            result.note(
                f"{label}: dynamic build costs "
                f"{dynamic_io / bulk_io:.2f}x the bulk-loaded I/O."
            )
    result.note(
        "Both competitors deteriorate more than the RI-tree, as "
        "the paper predicts.  The IST suffers most here: its "
        "tail scan touches a constant fraction of the index, so "
        "the lower dynamic fill factor pushes it past the buffer "
        "cache.  The T-index additionally loses heap/tile "
        "correlation for its secondary-filter fetches.  The "
        "RI-tree's short index-only probes barely notice."
    )
    return result


#: All experiments by id, for the CLI runner and the benchmark suite.
ALL_EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_workloads,
    "windowlist": windowlist_comparison,
    "fig12": fig12_storage,
    "fig13": fig13_selectivity,
    "fig14": fig14_scaleup,
    "fig15": fig15_granularity,
    "fig16": fig16_duration,
    "fig17": fig17_sweep,
    "dynamic": dynamic_environment,
    "ablation-a1": ablation_query_forms,
    "ablation-a2": ablation_expansion,
    "ablation-a3": ablation_minstep,
    "ablation-a4": ablation_temporal,
}
