"""Competitor access methods and main-memory reference structures.

Relational competitors (paper Section 2.3 / Section 6):

* :class:`~repro.methods.tindex.TileIndex` -- Oracle8i Spatial's hybrid
  tiling in one dimension, with the paper's sample-based level tuning;
* :class:`~repro.methods.ist.ISTree` -- the Interval-Spatial Transformation
  (D-, V- and H-orderings as composite indexes);
* :class:`~repro.methods.map21.Map21` -- single-column z-encoding with
  static length partitions;
* :class:`~repro.methods.windowlist.WindowList` -- the static Window-List.

Main-memory structures (paper Section 2.1), used as substrates and
independent cross-checks: :class:`~repro.methods.memory.IntervalTree`
(Edelsbrunner) and :class:`~repro.methods.memory.SegmentTree` (Bentley).
:class:`~repro.methods.memory.BruteForceIntervals` is the one oracle
store every test and benchmark compares against.
"""

from .ist import ORDERINGS, ISTree
from .map21 import Map21
from .memory import (
    BruteForceIntervals,
    IntervalTree,
    PrioritySearchTree,
    SegmentTree,
)
from .tindex import DEFAULT_DOMAIN_BITS, TileIndex, tune_fixed_level
from .windowlist import WindowList

__all__ = [
    "BruteForceIntervals",
    "DEFAULT_DOMAIN_BITS",
    "ISTree",
    "IntervalTree",
    "Map21",
    "ORDERINGS",
    "PrioritySearchTree",
    "SegmentTree",
    "TileIndex",
    "WindowList",
    "tune_fixed_level",
]
