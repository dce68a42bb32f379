"""End-to-end smoke tests of every experiment at tiny scale.

These validate row schemas and the always-true structural properties.  The
paper's who-wins claims are gates of the ``section6`` registry bench
(``benchmarks/bench_section6.py``), which runs the ``small`` preset: at
``tiny`` every database fits the buffer cache, so physical I/O cannot
separate the methods.
"""

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS, SCALES, get_scale


def test_scales_define_all_knobs():
    required = {"fig12_sizes", "fig13_n", "fig14_sizes", "fig15_n",
                "fig16_n", "fig17_n", "windowlist_n", "tune_sample",
                "ablation_n"}
    for name, scale in SCALES.items():
        missing = required - set(scale)
        assert not missing, (name, missing)


def test_get_scale_resolution():
    assert get_scale("tiny")["name"] == "tiny"
    assert get_scale("full")["name"] == "full"
    assert get_scale()["name"] == "small"
    with pytest.raises(ValueError):
        get_scale("gigantic")


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_experiment_runs_and_emits_rows(experiment_id):
    result = ALL_EXPERIMENTS[experiment_id]("tiny")
    assert result.rows, experiment_id
    for row in result.rows:
        assert set(result.columns) <= set(row)
    markdown = result.to_markdown()
    assert result.experiment_id in markdown


def test_fig12_entry_formulas():
    result = ALL_EXPERIMENTS["fig12"]("tiny")
    for row in result.rows:
        if row["method"] == "RI-tree":
            assert row["index entries"] == 2 * row["db size"]
        if row["method"] == "IST":
            assert row["index entries"] == row["db size"]


def test_fig13_methods_agree_on_result_counts():
    result = ALL_EXPERIMENTS["fig13"]("tiny")
    by_selectivity: dict[float, set] = {}
    for row in result.rows:
        by_selectivity.setdefault(row["selectivity [%]"], set()).add(
            row["avg results"])
    for selectivity, counts in by_selectivity.items():
        assert len(counts) == 1, (selectivity, counts)


def test_fig15_minstep_monotone():
    result = ALL_EXPERIMENTS["fig15"]("tiny")
    rows = sorted(result.rows, key=lambda r: r["min length"])
    minsteps = [r["minstep"] for r in rows]
    assert minsteps == sorted(minsteps)


def test_ablation_a1_equal_results():
    result = ALL_EXPERIMENTS["ablation-a1"]("tiny")
    counts = {row["avg results"] for row in result.rows}
    assert len(counts) == 1


def test_ablation_a4_reserved_height_lower():
    result = ALL_EXPERIMENTS["ablation-a4"]("tiny")
    heights = {row["strategy"]: row["height"] for row in result.rows}
    reserved = next(v for k, v in heights.items() if "reserved" in k)
    naive = next(v for k, v in heights.items() if "naive" in k)
    assert reserved < naive
