"""The Tile Index (T-index) of Oracle8i Spatial [RS 99], in one dimension.

Paper Sections 2.3 and 6.1: the Tile Index is "a relational implementation
of the multi-dimensional Linear Quadtree.  Spatial objects are decomposed
and indexed at a user-defined fixed quadtree level. ... Intersection queries
are performed by an equijoin on the indexed fixed-sized tiles, followed by a
sequential scan on the corresponding variable-sized tiles."  The authors
"reimplemented the hybrid indexing package for one-dimensional data spaces";
this module does the same.

Model
-----
The paper's domain ``[0, 2**DOMAIN_BITS - 1]`` is partitioned into fixed
tiles of size ``2**(DOMAIN_BITS - fixed_level)``.  Storage is the classical
two-layer spatial-index layout:

* a *geometry table* holding one ``(lower, upper, id)`` row per interval,
  with a B+-tree on ``id`` (the GID index of the Oracle layout);
* a *tile entry table* with one ``(tile, id)`` row per fixed tile the
  interval overlaps, organised by a B+-tree on that key -- the redundancy
  of the paper's Figure 12.

An intersection query runs the two spatial filter stages:

* **primary filter**: one index range scan over the tiles covered by the
  query window.  Entries whose tile lies *fully inside* the window are
  results outright (the tile is covered, hence the interval intersects);
* **secondary filter**: entries in the window's two *boundary* tiles are
  only candidates; each distinct candidate joins back to the geometry
  table through the GID index (one B+-tree probe plus one base-table
  access -- the "sequential scan on the corresponding variable-sized
  tiles") and is tested exactly.

The secondary-filter joins are per-candidate index probes and scattered
base-table reads, which is what makes the T-index pay per *candidate* while
the RI-tree pays per *result block* -- the mechanism behind the paper's
Figures 13, 14 and 16.

Trade-off (Section 2.3): a high fixed level (small tiles) explodes
redundancy for long intervals; a low level (big tiles) floods the boundary
tiles with false candidates.  ``tune_fixed_level`` reproduces the paper's
protocol -- "we took a representative sample of 1,000 intervals from each
individual data distribution and determined the optimal setting".  The fixed
level is frozen at index creation; re-levelling requires a full rebuild
("adapting it ... requires bulk-loading the whole dataset anew"), the
drawback the RI-tree avoids.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.access import AccessMethod, IntervalRecord
from ..core.interval import validate_interval
from ..engine.database import Database
from ..workloads import DOMAIN_BITS

#: Engine geometry of the throwaway indexes :func:`tune_fixed_level`
#: builds: 2 KB blocks and a cache that holds any 1,000-interval sample.
TUNING_BLOCK_SIZE = 2048
TUNING_CACHE_BLOCKS = 64


class TileIndex(AccessMethod):
    """1-D hybrid tile index with a frozen fixed level.

    Parameters
    ----------
    fixed_level:
        Subdivision depth: the domain splits into ``2**fixed_level`` tiles.
        Must be in ``[0, DOMAIN_BITS]``.  The data space is the paper's
        ``[0, 2**DOMAIN_BITS - 1]``; intervals outside it are rejected (the
        Tile Index, unlike the RI-tree, cannot expand its data space
        dynamically -- Section 2.3).
    """

    method_name = "T-index"

    def __init__(
        self,
        db: Optional[Database] = None,
        fixed_level: int = 8,
        name: str = "Tile",
    ) -> None:
        super().__init__(db)
        if not 0 <= fixed_level <= DOMAIN_BITS:
            raise ValueError(f"fixed_level {fixed_level} outside [0, {DOMAIN_BITS}]")
        self.fixed_level = fixed_level
        self.tile_size = 2 ** (DOMAIN_BITS - fixed_level)
        self.geometry = self.db.create_table(
            f"{name}Geometry", ["lower", "upper", "id"]
        )
        self.geometry.create_index("gidIndex", ["id"])
        self.entries = self.db.create_table(f"{name}Entries", ["tile", "id"])
        self.entries.create_index("tileIndex", ["tile", "id"])

    # ------------------------------------------------------------------
    # decomposition
    # ------------------------------------------------------------------
    def tiles_for(self, lower: int, upper: int) -> range:
        """Fixed tiles overlapped by ``[lower, upper]``."""
        return range(lower // self.tile_size, upper // self.tile_size + 1)

    def _check_domain(self, lower: int, upper: int) -> None:
        if lower < 0 or upper >= 2**DOMAIN_BITS:
            raise ValueError(
                f"interval ({lower}, {upper}) outside the tile index domain "
                f"[0, 2^{DOMAIN_BITS} - 1]"
            )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """One geometry row plus one entry per covered fixed tile."""
        validate_interval(lower, upper)
        self._check_domain(lower, upper)
        self.geometry.insert((lower, upper, interval_id))
        for tile in self.tiles_for(lower, upper):
            self.entries.insert((tile, interval_id))

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Remove the geometry row and every tile entry."""
        validate_interval(lower, upper)
        georow = None
        for entry in self.geometry.index_scan(
            "gidIndex", (interval_id,), (interval_id,)
        ):
            candidate = self.geometry.fetch(entry[1])
            if candidate == (lower, upper, interval_id):
                georow = entry[1]
                break
        if georow is None:
            raise KeyError((lower, upper, interval_id))
        entry_rowids = []
        for tile in self.tiles_for(lower, upper):
            for entry in self.entries.index_scan(
                "tileIndex", (tile, interval_id), (tile, interval_id)
            ):
                entry_rowids.append(entry[2])
        for rowid in entry_rowids:
            self.entries.delete(rowid)
        self.geometry.delete(georow)

    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        """Load geometries, then bulk-build the clustered tile entries."""
        for lower, upper, _ in intervals:
            validate_interval(lower, upper)
            self._check_domain(lower, upper)
        self.geometry.bulk_load(intervals)
        rows = []
        for lower, upper, interval_id in intervals:
            for tile in self.tiles_for(lower, upper):
                rows.append((tile, interval_id))
        self.entries.bulk_load(rows)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def intersection(self, lower: int, upper: int) -> list[int]:
        """Primary filter (tile equijoin) + secondary filter (fetches).

        Unlike the RI-tree's duplicate-free plan, decomposed entries force
        de-duplication by id here -- part of the T-index's query overhead.
        """
        validate_interval(lower, upper)
        lower_clip = max(lower, 0)
        upper_clip = min(upper, 2**DOMAIN_BITS - 1)
        if lower_clip > upper_clip:
            return []
        first = lower_clip // self.tile_size
        last = upper_clip // self.tile_size
        seen: set[int] = set()
        results: list[int] = []
        # The tile equijoin consumes the scan as leaf slices; only the two
        # boundary tiles fall through to the per-candidate secondary filter.
        for batch in self.entries.index_scan_batches("tileIndex", (first,), (last,)):
            for tile, interval_id, _rowid in batch:
                if interval_id in seen:
                    continue
                if first < tile < last or self._tile_covered(tile, lower, upper):
                    # Primary filter suffices: the window covers this tile.
                    seen.add(interval_id)
                    results.append(interval_id)
                    continue
                # Secondary filter: join to the geometry through the GID
                # index (one B+-tree probe + one base-table access) and
                # test exactly.
                seen.add(interval_id)
                for gid_entry in self.geometry.index_scan(
                    "gidIndex", (interval_id,), (interval_id,)
                ):
                    geo_lower, geo_upper, _ = self.geometry.fetch(gid_entry[1])
                    if geo_lower <= upper and geo_upper >= lower:
                        results.append(interval_id)
                    break
        return results

    def _tile_covered(self, tile: int, lower: int, upper: int) -> bool:
        tile_lower = tile * self.tile_size
        tile_upper = tile_lower + self.tile_size - 1
        return lower <= tile_lower and tile_upper <= upper

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def interval_count(self) -> int:
        """Number of distinct stored intervals."""
        return self.geometry.row_count

    @property
    def index_entry_count(self) -> int:
        """Total tile entries (Figure 12's redundancy-inflated count)."""
        return len(self.entries.index("tileIndex").tree)


def tune_fixed_level(
    sample: Sequence[IntervalRecord],
    queries: Sequence[tuple[int, int]],
    levels: Optional[Sequence[int]] = None,
) -> int:
    """The paper's tuning protocol (Section 6.1).

    Builds a throwaway tile index per candidate level over ``sample``
    (the paper uses 1,000 intervals), replays ``queries`` against it and
    returns the level with the lowest total buffer traffic.

    A 1,000-interval sample fits any reasonable cache, so physical reads
    at tuning time are cold-start noise; the discriminating signal -- the
    one that predicts query performance at production scale -- is the
    number of page requests the query plan makes (logical reads).  Ties
    break toward physical reads, then the lower (coarser, smaller) level.
    """
    if not sample:
        raise ValueError("tuning needs a non-empty sample")
    if levels is None:
        levels = range(0, DOMAIN_BITS + 1)
    best_level = None
    best_cost = None
    for level in levels:
        db = Database(block_size=TUNING_BLOCK_SIZE, cache_blocks=TUNING_CACHE_BLOCKS)
        index = TileIndex(db, fixed_level=level)
        index.bulk_load(sample)
        db.clear_cache()
        with db.measure() as delta:
            for q_lower, q_upper in queries:
                index.intersection(q_lower, q_upper)
        cost = (delta.logical_reads, delta.physical_reads, level)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_level = level
    return best_level
