"""The paper's Section 6 competitors and the oracle store.

Relational competitors (paper Section 2.3, measured in Section 6):

* :class:`~repro.methods.tindex.TileIndex` -- Oracle8i Spatial's hybrid
  tiling in one dimension, with the paper's sample-based level tuning;
* :class:`~repro.methods.ist.ISTree` -- the Interval-Spatial Transformation
  in the D-order Section 6.1 evaluates, a composite ``(upper, lower)``
  index;
* :class:`~repro.methods.windowlist.WindowList` -- the static Window-List.

:class:`~repro.methods.memory.BruteForceIntervals` is the one oracle
store every test and benchmark compares against.
"""

from .ist import ISTree
from .memory import BruteForceIntervals
from .tindex import TileIndex, tune_fixed_level
from .windowlist import WindowList

__all__ = [
    "BruteForceIntervals",
    "ISTree",
    "TileIndex",
    "WindowList",
    "tune_fixed_level",
]
