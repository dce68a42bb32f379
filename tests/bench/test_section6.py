"""The ``section6`` bench's claim gates, fed hand-built experiment rows.

No experiment runs here: each case builds the rows of one Section 6
experiment where the paper's claim holds, then breaks the claim and
checks that exactly the named gate comes out false.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.bench import trajectory
from repro.bench.experiments import ALL_EXPERIMENTS

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench_section6  # noqa: E402


def rows(key, points, **extra):
    """Experiment rows from ``{x: {method: physical I/O}}``."""
    return [
        {key: x, "method": method, "physical I/O": io, "avg results": 5.0, **extra}
        for x, ios in points.items()
        for method, io in ios.items()
    ]


def fig16_rows(longest_ist):
    table = rows(
        "mean duration",
        {
            0: {"IST": 173.0, "T-index": 6.2, "RI-tree": 9.6},
            2000: {"IST": longest_ist, "T-index": 26.8, "RI-tree": 8.7},
        },
        **{"T-index redundancy": ""},
    )
    for row in table:
        if row["method"] == "T-index":
            row["T-index redundancy"] = 1.0 if row["mean duration"] == 0 else 10.1
    return table


CASES = {
    # IST below twice the RI-tree's I/O.
    "fig13_ist_io_at_least_2x_ritree": (
        "fig13",
        lambda ist: rows(
            "selectivity [%]",
            {
                0.5: {"T-index": 72.4, "IST": ist, "RI-tree": 6.1},
                3.0: {"T-index": 205.9, "IST": 112.2, "RI-tree": 12.5},
            },
        ),
        111.4,
        12.0,
    ),
    # IST growth not above the RI-tree's growth.
    "fig14_ist_growth_over_ritree_growth": (
        "fig14",
        lambda ist: rows(
            "db size",
            {
                1000: {"T-index": 2.9, "IST": ist, "RI-tree": 1.6},
                100_000: {"T-index": 122.2, "IST": 1102.2, "RI-tree": 20.0},
            },
        ),
        0.9,
        200.0,
    ),
    # IST at most 3x the RI-tree at the longest duration.
    "fig16_ist_io_over_3x_ritree_at_longest": ("fig16", fig16_rows, 173.2, 26.0),
    # The RI-tree not flat across the sweep.
    "fig17_ritree_flat": (
        "fig17",
        lambda ri: rows(
            "distance to upper bound",
            {
                0: {"IST": 0.4, "T-index": 20.3, "RI-tree": 1.1},
                200_000: {"IST": 14.0, "T-index": 23.0, "RI-tree": ri},
            },
        ),
        2.0,
        6.0,
    ),
    # T-index ratio below 0.9x the RI-tree ratio.
    "dynamic_hurts_tindex_more_than_ritree": (
        "dynamic",
        lambda tindex: rows(
            "build",
            {
                "bulk": {"RI-tree": 4.8, "IST": 5.8, "T-index": 25.5},
                "dynamic": {"RI-tree": 5.7, "IST": 21.0, "T-index": tindex},
            },
        ),
        31.6,
        26.0,
    ),
}


@pytest.mark.parametrize("gate", sorted(CASES))
def test_false_claim_fails_exactly_its_gate(gate):
    experiment_id, build, holds, breaks = CASES[gate]
    claims = bench_section6.CLAIMS[experiment_id]
    good = claims(build(holds))
    assert gate in good
    assert all(good.values()), good
    bad = claims(build(breaks))
    assert [name for name, held in bad.items() if not held] == [gate]


def test_every_experiment_has_claims():
    assert sorted(bench_section6.CLAIMS) == sorted(ALL_EXPERIMENTS)


def test_baseline_row_is_exact_and_runs_small():
    baseline = json.loads(
        (BENCH_DIR / "baselines" / "bench_trajectory_tiny.json").read_text()
    )
    row = next(r for r in baseline["rows"] if r["bench"] == "section6")
    assert row["scale"] == "small"
    rules = {trajectory.metric_rule(name) for name in row["metrics"]}
    assert rules == {trajectory.EXACT}
