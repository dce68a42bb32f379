"""Domain-sharding router: one ``IntervalStore`` made of many.

The serving layer's path to "millions of users": the indexed domain is
split at *cut points* into contiguous slices, one backend store per
slice, and the router presents the whole ensemble as a single
:class:`~repro.core.access.IntervalStore`.  The split points come from
the :class:`~repro.core.costmodel.BoundSummary` equi-depth histograms
the cost model already builds (:func:`derive_cuts`), so shards carry
roughly equal record populations under the measured workload shape.

Replication and deduplication
-----------------------------
Shard ``t`` owns the slice ``(cuts[t-1], cuts[t]]`` (the first slice is
left-unbounded, the last right-unbounded), and a record's *home* shard
is the slice containing its lower bound.  A record crossing a cut is
**replicated** into every shard its extent touches -- queries then never
consult more shards than their window overlaps -- and the router keeps,
per shard, a multiset of the *left-crossing replicas* that entered it
(mirroring HINT's replica flags, one level up).

Merging follows the **first-occurrence convention**: a query ``[ql,
qu]`` is clipped to each touched shard's slice, the first touched shard
reports everything it matches, and every later shard's result drops its
left-crossing replicas -- each of which provably matches any clipped
window handed to that shard, because the clip starts exactly at the
slice start ``slo_t`` and a left replica has ``lower < slo_t <= upper``
(infinite replicas always match; ``now``-relative replicas match iff
the shared clock has reached ``slo_t``).  Counts subtract the same
per-shard replica totals without materialising ids, which is what keeps
``intersection_count``/``join_count`` replication-blind.

Temporal rows ride along: ``[l, oo)`` and ``[l, now]`` records replicate
from their home shard to every shard to its right (the clock may pass
any cut), every shard shares one router-advanced clock, and the
sentinel uppers of :mod:`repro.core.temporal` route through the
dedicated entry points exactly as on :class:`~repro.core.hint.
HintStore`.

Predicate queries evaluate on *full* record bounds (replicas are whole
copies, never truncated), so every replica-holding shard reports the
same verdict as the home shard; the router refines its replica
multisets with the same pure predicate to subtract the extras.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Optional, Sequence

from .access import IntervalRecord, IntervalStore
from .backbone import VirtualBackbone
from .costmodel import (
    DEFAULT_BUCKETS,
    BoundSummary,
    RecordStatistics,
    RITreeCostModel,
    memory_resident_geometry,
)
from .interval import validate_interval
from .predicates import (
    resolve_join_predicate,
    shim_positional_predicate,
)
from .temporal import UPPER_INF, UPPER_NOW, resolve_clock_argument
from .verify import VerificationReport


def derive_cuts(summary: BoundSummary, shard_count: int) -> list[int]:
    """Split points for ``shard_count`` shards from a bound histogram.

    Takes the equi-depth *lower*-bound boundaries of ``summary`` at
    ``shard_count - 1`` evenly spaced quantile positions, so each slice
    receives about the same number of interval starts -- the routing
    load balancer.  Duplicate boundaries (heavily skewed data) collapse,
    which may yield fewer cuts than requested; callers get the shard
    count they can actually use from ``len(cuts) + 1``.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if shard_count == 1:
        return []
    if summary.count == 0:
        raise ValueError(
            "cannot derive cuts from an empty summary; pass explicit "
            "cuts= instead")
    bounds = summary.lower_bounds
    segments = len(bounds) - 1
    cuts = {
        int(bounds[min(max(round(j * segments / shard_count), 0), segments)])
        for j in range(1, shard_count)
    }
    # A cut at or past the global maximum lower bound would leave the
    # last slice without any home records; such degenerate cuts drop.
    return sorted(c for c in cuts if c < bounds[-1])


class ShardedStore(IntervalStore):
    """Domain-sharding router over homogeneous backend shards.

    Parameters
    ----------
    shards:
        One constructed backend store per slice, ``len(cuts) + 1`` of
        them.  Build through :meth:`create` (which goes through
        :func:`repro.core.stores.create_store`) unless you need custom
        per-shard construction.
    cuts:
        Strictly increasing split points; shard ``t`` owns ``(cuts[t-1],
        cuts[t]]``.
    now:
        Initial shared clock (must match the shards' clocks).

    Example
    -------
    >>> from repro.core.stores import create_store
    >>> store = create_store("sharded", backend="hint", cuts=[100])
    >>> store.insert(90, 110, interval_id=1)   # crosses the cut
    >>> store.insert(10, 20, interval_id=2)
    >>> sorted(store.intersection(0, 200))     # replica deduplicated
    [1, 2]
    >>> store.intersection_count(95, 105)
    1
    """

    method_name = "sharded"
    name = "sharded-store"

    def __init__(
        self,
        shards: Sequence[IntervalStore],
        cuts: Sequence[int],
        now: int = 0,
    ) -> None:
        cuts = list(cuts)
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError(f"cuts must be strictly increasing: {cuts}")
        if len(shards) != len(cuts) + 1:
            raise ValueError(
                f"{len(cuts)} cuts require {len(cuts) + 1} shards, got "
                f"{len(shards)}")
        self.shards = list(shards)
        self.cuts = cuts
        self.method_name = (
            f"sharded[{len(self.shards)}]({self.shards[0].method_name})")
        self._now = now
        self._count = 0
        # Per-shard left-crossing replica multisets: full triples for
        # predicate refinement and stored_records(), id Counters for
        # intersection-result stripping, plain totals for count paths.
        n = len(self.shards)
        self._rep_fin: list[Counter] = [Counter() for _ in range(n)]
        self._rep_inf: list[Counter] = [Counter() for _ in range(n)]
        self._rep_now: list[Counter] = [Counter() for _ in range(n)]
        self._rep_fin_ids: list[Counter] = [Counter() for _ in range(n)]
        self._rep_inf_ids: list[Counter] = [Counter() for _ in range(n)]
        self._rep_now_ids: list[Counter] = [Counter() for _ in range(n)]
        self._rep_fin_n = [0] * n
        self._rep_inf_n = [0] * n
        self._rep_now_n = [0] * n
        # Routing observability (served through the service /stats op).
        self._stat_queries = [0] * n
        self._stat_predicate_queries = [0] * n
        self._stat_inserts = [0] * n
        self._stat_join_probes = [0] * n
        self._stat_appends = [0] * n
        self._stat_append_replicas = [0] * n
        # Optimizer statistics seam (finite bounds only, like HINT's).
        self._backbone = VirtualBackbone()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        backend: str = "hint",
        shard_count: Optional[int] = None,
        cuts: Optional[Sequence[int]] = None,
        records: Optional[Sequence[IntervalRecord]] = None,
        now: int = 0,
        buckets: int = DEFAULT_BUCKETS,
        backend_opts: Optional[dict] = None,
    ) -> "ShardedStore":
        """Build a router with shards constructed by backend name.

        Split points come from ``cuts`` when given; otherwise they are
        derived from the :class:`BoundSummary` of ``records`` via
        :func:`derive_cuts` (``shard_count`` slices), and the records
        are then bulk-loaded.  ``backend_opts`` are forwarded to every
        shard's factory call -- leave connection-like options unset so
        each shard gets its own (the default sqlite factory opens one
        in-memory database per shard).
        """
        from .stores import create_store

        if cuts is None:
            count = 1 if shard_count is None else shard_count
            if count > 1 and not records:
                raise ValueError(
                    "deriving cuts needs records=; pass cuts= to shard "
                    "an empty store")
            cuts = (derive_cuts(BoundSummary.from_records(records, buckets),
                                count)
                    if count > 1 else [])
        opts = dict(backend_opts or {})
        if now:
            opts["now"] = now
        shards = [create_store(backend, **opts)
                  for _ in range(len(cuts) + 1)]
        store = cls(shards, cuts, now=now)
        if records:
            store.bulk_load(records)
        return store

    # ------------------------------------------------------------------
    # slice geometry
    # ------------------------------------------------------------------
    def _shard_of(self, value: int) -> int:
        """Index of the slice containing ``value``."""
        return bisect_left(self.cuts, value)

    def _slice_lo(self, t: int) -> Optional[int]:
        """First value of slice ``t`` (``None`` = unbounded left)."""
        return self.cuts[t - 1] + 1 if t > 0 else None

    def _slice_hi(self, t: int) -> Optional[int]:
        """Last value of slice ``t`` (``None`` = unbounded right)."""
        return self.cuts[t] if t < len(self.cuts) else None

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Insert, replicating across every cut the extent touches.

        Sentinel uppers route to the temporal entry points, mirroring
        :class:`~repro.core.hint.HintStore`, so sentinel-bearing
        records load through the uniform ``bulk_load`` too.
        """
        if upper == UPPER_INF:
            self.insert_infinite(lower, interval_id)
            return
        if upper == UPPER_NOW:
            self.insert_until_now(lower, interval_id)
            return
        validate_interval(lower, upper)
        first = self._shard_of(lower)
        last = self._shard_of(upper)
        for t in range(first, last + 1):
            self.shards[t].insert(lower, upper, interval_id)
            self._stat_inserts[t] += 1
            if t > first:
                self._rep_fin[t][(lower, upper, interval_id)] += 1
                self._rep_fin_ids[t][interval_id] += 1
                self._rep_fin_n[t] += 1
        self._count += 1
        self._backbone.register(lower, upper)

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Remove one copy of the exact record from every touched shard."""
        if upper == UPPER_INF:
            self.delete_infinite(lower, interval_id)
            return
        if upper == UPPER_NOW:
            self.delete_until_now(lower, interval_id)
            return
        validate_interval(lower, upper)
        first = self._shard_of(lower)
        last = self._shard_of(upper)
        # The home shard goes first: if the record is absent, its
        # KeyError propagates before any replica shard was touched.
        for t in range(first, last + 1):
            self.shards[t].delete(lower, upper, interval_id)
            if t > first:
                self._drop_replica(self._rep_fin, self._rep_fin_ids, t,
                                   (lower, upper, interval_id), interval_id)
                self._rep_fin_n[t] -= 1
        self._count -= 1

    @staticmethod
    def _drop_replica(triples, ids, t, triple, interval_id) -> None:
        triples[t][triple] -= 1
        if not triples[t][triple]:
            del triples[t][triple]
        ids[t][interval_id] -= 1
        if not ids[t][interval_id]:
            del ids[t][interval_id]

    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        """Batch per shard: one backend ``bulk_load`` per slice."""
        batches: list[list[IntervalRecord]] = [[] for _ in self.shards]
        sentinels: list[IntervalRecord] = []
        for lower, upper, interval_id in intervals:
            if upper in (UPPER_INF, UPPER_NOW):
                sentinels.append((lower, upper, interval_id))
                continue
            validate_interval(lower, upper)
            first = self._shard_of(lower)
            last = self._shard_of(upper)
            for t in range(first, last + 1):
                batches[t].append((lower, upper, interval_id))
                self._stat_inserts[t] += 1
                if t > first:
                    self._rep_fin[t][(lower, upper, interval_id)] += 1
                    self._rep_fin_ids[t][interval_id] += 1
                    self._rep_fin_n[t] += 1
            self._count += 1
            self._backbone.register(lower, upper)
        for shard, batch in zip(self.shards, batches):
            if batch:
                shard.bulk_load(batch)
        for lower, upper, interval_id in sentinels:
            self.insert(lower, upper, interval_id)

    def append_batch(self, intervals: Sequence[IntervalRecord]) -> None:
        """Streaming append: one backend ``append_batch`` per touched shard.

        Routing and replica bookkeeping match :meth:`insert` /
        :meth:`insert_infinite` / :meth:`insert_until_now` exactly; the
        difference is dispatch shape -- records fan into per-shard
        batches first, then each shard takes its whole slice of the
        batch in ONE ``append_batch`` call (one group commit per shard
        for WAL-backed backends).  Appends are tracked separately from
        inserts in the routing stats (``appends`` / ``append_replicas``),
        so the service's ingest traffic is distinguishable from the
        point-insert path.
        """
        batches: list[list[IntervalRecord]] = [[] for _ in self.shards]
        for lower, upper, interval_id in intervals:
            if upper == UPPER_INF:
                self._require_temporal("insert_infinite")
                validate_interval(lower, lower)
                home = self._shard_of(lower)
                for t in range(home, len(self.shards)):
                    batches[t].append((lower, UPPER_INF, interval_id))
                    self._stat_appends[t] += 1
                    if t > home:
                        self._rep_inf[t][(lower, interval_id)] += 1
                        self._rep_inf_ids[t][interval_id] += 1
                        self._rep_inf_n[t] += 1
                        self._stat_append_replicas[t] += 1
                self._count += 1
                self._backbone.register(lower, lower)
            elif upper == UPPER_NOW:
                self._require_temporal("insert_until_now")
                validate_interval(lower, lower)
                if lower > self._now:
                    raise ValueError(
                        f"now-relative interval starts after now={self._now}")
                home = self._shard_of(lower)
                for t in range(home, len(self.shards)):
                    batches[t].append((lower, UPPER_NOW, interval_id))
                    self._stat_appends[t] += 1
                    if t > home:
                        self._rep_now[t][(lower, interval_id)] += 1
                        self._rep_now_ids[t][interval_id] += 1
                        self._rep_now_n[t] += 1
                        self._stat_append_replicas[t] += 1
                self._count += 1
                self._backbone.register(lower, lower)
            else:
                validate_interval(lower, upper)
                first = self._shard_of(lower)
                last = self._shard_of(upper)
                for t in range(first, last + 1):
                    batches[t].append((lower, upper, interval_id))
                    self._stat_appends[t] += 1
                    if t > first:
                        self._rep_fin[t][(lower, upper, interval_id)] += 1
                        self._rep_fin_ids[t][interval_id] += 1
                        self._rep_fin_n[t] += 1
                        self._stat_append_replicas[t] += 1
                self._count += 1
                self._backbone.register(lower, upper)
        for shard, batch in zip(self.shards, batches):
            if batch:
                shard.append_batch(batch)

    # ------------------------------------------------------------------
    # temporal rows (shared clock, replicate-right placement)
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current clock value, shared by every shard."""
        return self._now

    def advance_to(self, now: Optional[int] = None, *,
                   timestamp: Optional[int] = None) -> None:
        """Move the shared clock forward on every shard."""
        now = resolve_clock_argument(now, timestamp)
        if now < self._now:
            raise ValueError(
                f"clock moves forward only: {now} < now={self._now}")
        self._require_temporal("advance_to")
        for shard in self.shards:
            shard.advance_to(now)
        self._now = now

    def _require_temporal(self, op: str) -> None:
        shard = self.shards[0]
        if not hasattr(shard, op):
            raise NotImplementedError(
                f"backend {shard.method_name!r} has no temporal support "
                f"({op}); shard a temporal backend instead")

    def insert_infinite(self, lower: int, interval_id: int) -> None:
        """Insert ``[lower, oo)``: home shard plus every shard right."""
        self._require_temporal("insert_infinite")
        home = self._shard_of(lower)
        for t in range(home, len(self.shards)):
            self.shards[t].insert_infinite(lower, interval_id)
            self._stat_inserts[t] += 1
            if t > home:
                self._rep_inf[t][(lower, interval_id)] += 1
                self._rep_inf_ids[t][interval_id] += 1
                self._rep_inf_n[t] += 1
        self._count += 1
        self._backbone.register(lower, lower)

    def insert_until_now(self, lower: int, interval_id: int) -> None:
        """Insert ``[lower, now]``; placed like an infinite row because
        the clock may later pass any cut."""
        self._require_temporal("insert_until_now")
        if lower > self._now:
            raise ValueError(
                f"now-relative interval starts after now={self._now}")
        home = self._shard_of(lower)
        for t in range(home, len(self.shards)):
            self.shards[t].insert_until_now(lower, interval_id)
            self._stat_inserts[t] += 1
            if t > home:
                self._rep_now[t][(lower, interval_id)] += 1
                self._rep_now_ids[t][interval_id] += 1
                self._rep_now_n[t] += 1
        self._count += 1
        self._backbone.register(lower, lower)

    def delete_infinite(self, lower: int, interval_id: int) -> None:
        """Delete an infinite row from its home shard and all replicas."""
        self._require_temporal("delete_infinite")
        home = self._shard_of(lower)
        for t in range(home, len(self.shards)):
            self.shards[t].delete_infinite(lower, interval_id)
            if t > home:
                self._drop_replica(self._rep_inf, self._rep_inf_ids, t,
                                   (lower, interval_id), interval_id)
                self._rep_inf_n[t] -= 1
        self._count -= 1

    def delete_until_now(self, lower: int, interval_id: int) -> None:
        """Delete a now-relative row from home shard and all replicas."""
        self._require_temporal("delete_until_now")
        home = self._shard_of(lower)
        for t in range(home, len(self.shards)):
            self.shards[t].delete_until_now(lower, interval_id)
            if t > home:
                self._drop_replica(self._rep_now, self._rep_now_ids, t,
                                   (lower, interval_id), interval_id)
                self._rep_now_n[t] -= 1
        self._count -= 1

    def close_now_interval(self, lower: int, interval_id: int,
                           upper: int) -> None:
        """Terminate ``[lower, now]`` at a fixed ``upper``."""
        validate_interval(lower, upper)
        self.delete_until_now(lower, interval_id)
        self.insert(lower, upper, interval_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def intersection(self, lower: int, upper: int) -> list[int]:
        validate_interval(lower, upper)
        first = self._shard_of(lower)
        last = self._shard_of(upper)
        self._stat_queries[first] += 1
        if first == last:
            return self.shards[first].intersection(lower, upper)
        hi = self._slice_hi(first)
        out = self.shards[first].intersection(lower, min(upper, hi))
        for t in range(first + 1, last + 1):
            self._stat_queries[t] += 1
            lo = self._slice_lo(t)
            hi = self._slice_hi(t)
            ids = self.shards[t].intersection(
                lo, upper if hi is None else min(upper, hi))
            out.extend(self._strip(ids, self._replica_ids(t)))
        return out

    def _replica_ids(self, t: int) -> Counter:
        """Ids (with multiplicity) every clipped query must drop in ``t``.

        Every left-crossing replica of shard ``t`` matches any window
        clipped to start at the slice start; ``now``-relative replicas
        only once the clock has reached it.
        """
        remove = self._rep_fin_ids[t] + self._rep_inf_ids[t]
        lo = self._slice_lo(t)
        if self._rep_now_n[t] and self._now >= lo:
            remove = remove + self._rep_now_ids[t]
        return remove

    def _replica_total(self, t: int) -> int:
        """Count analogue of :meth:`_replica_ids`."""
        total = self._rep_fin_n[t] + self._rep_inf_n[t]
        if self._rep_now_n[t] and self._now >= self._slice_lo(t):
            total += self._rep_now_n[t]
        return total

    @staticmethod
    def _strip(ids: list[int], remove: Counter) -> list[int]:
        """Drop ``remove[id]`` occurrences of each id (first-occurrence
        dedup: the kept copy was already reported by an earlier shard)."""
        if not remove:
            return ids
        need = dict(remove)
        out = []
        for interval_id in ids:
            pending = need.get(interval_id, 0)
            if pending:
                need[interval_id] = pending - 1
            else:
                out.append(interval_id)
        return out

    def intersection_count(self, lower: int, upper: int) -> int:
        validate_interval(lower, upper)
        first = self._shard_of(lower)
        last = self._shard_of(upper)
        self._stat_queries[first] += 1
        if first == last:
            return self.shards[first].intersection_count(lower, upper)
        hi = self._slice_hi(first)
        total = self.shards[first].intersection_count(lower, min(upper, hi))
        for t in range(first + 1, last + 1):
            self._stat_queries[t] += 1
            lo = self._slice_lo(t)
            hi = self._slice_hi(t)
            total += self.shards[t].intersection_count(
                lo, upper if hi is None else min(upper, hi))
            total -= self._replica_total(t)
        return total

    def _query_relation(self, pred, lower: int, upper: int) -> list[int]:
        """Fan a relation predicate out; refine replicas with the same
        pure predicate to subtract the extra copies.

        Relation predicates see *full* record bounds on every shard (no
        clipping -- replicas are whole copies), so each replica-holding
        shard reaches the same verdict as the home shard and the
        replica multiset refines with the identical formula.
        """
        out: list[int] = []
        holds = pred.holds
        for t, shard in enumerate(self.shards):
            self._stat_queries[t] += 1
            self._stat_predicate_queries[t] += 1
            ids = shard.query(lower, upper, predicate=pred)
            remove: Counter = Counter()
            for (s, e, interval_id), n in self._rep_fin[t].items():
                if holds(s, e, lower, upper):
                    remove[interval_id] += n
            for (s, interval_id), n in self._rep_inf[t].items():
                if holds(s, UPPER_INF, lower, upper):
                    remove[interval_id] += n
            for (s, interval_id), n in self._rep_now[t].items():
                if holds(s, self._now, lower, upper):
                    remove[interval_id] += n
            out.extend(self._strip(ids, remove))
        return out

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def _clipped_probes(self, probes):
        """Clip every probe to each touched shard's slice.

        Returns per-shard probe batches plus, per shard, the pair strip
        Counter and the count correction: a probe entering shard ``t``
        as a non-first shard matches every left-crossing replica of
        ``t`` (same argument as single queries), so each such probe
        drops the full replica id multiset from its pairs.
        """
        batches: list[list[IntervalRecord]] = [[] for _ in self.shards]
        strips: list[Counter] = [Counter() for _ in self.shards]
        corrections = [0] * len(self.shards)
        replica_ids = [self._replica_ids(t) for t in range(len(self.shards))]
        replica_totals = [self._replica_total(t)
                          for t in range(len(self.shards))]
        for lower, upper, probe_id in probes:
            validate_interval(lower, upper)
            first = self._shard_of(lower)
            last = self._shard_of(upper)
            self._stat_join_probes[first] += 1
            hi = self._slice_hi(first)
            batches[first].append(
                (lower, upper if hi is None else min(upper, hi), probe_id))
            for t in range(first + 1, last + 1):
                self._stat_join_probes[t] += 1
                lo = self._slice_lo(t)
                hi = self._slice_hi(t)
                batches[t].append(
                    (lo, upper if hi is None else min(upper, hi), probe_id))
                for interval_id, n in replica_ids[t].items():
                    strips[t][(probe_id, interval_id)] += n
                corrections[t] += replica_totals[t]
        return batches, strips, corrections

    def join_pairs(
        self, probes: Sequence[IntervalRecord], *legacy, predicate=None
    ) -> list[tuple[int, int]]:
        """Batched overlap join: one backend probe batch per shard.

        Predicate joins refine the router's ``stored_records`` (which
        already deduplicates) through the base-class path -- correct on
        every predicate, at nested-loop cost.
        """
        predicate = shim_positional_predicate(legacy, predicate, "join_pairs")
        pred = resolve_join_predicate(predicate)
        if pred is not None:
            return super().join_pairs(probes, predicate=pred)
        batches, strips, _ = self._clipped_probes(probes)
        pairs: list[tuple[int, int]] = []
        for shard, batch, strip in zip(self.shards, batches, strips):
            if not batch:
                continue
            got = shard.join_pairs(batch)
            pairs.extend(self._strip(got, strip) if strip else got)
        return pairs

    def join_count(
        self, probes: Sequence[IntervalRecord], *legacy, predicate=None
    ) -> int:
        """Replication-blind join cardinality (the no-double-count rule)."""
        predicate = shim_positional_predicate(legacy, predicate, "join_count")
        pred = resolve_join_predicate(predicate)
        if pred is not None:
            return len(self.join_pairs(probes, predicate=pred))
        batches, _, corrections = self._clipped_probes(probes)
        total = 0
        for shard, batch, correction in zip(
                self.shards, batches, corrections):
            if batch:
                total += shard.join_count(batch) - correction
        return total

    # ------------------------------------------------------------------
    # enumeration / planning
    # ------------------------------------------------------------------
    def stored_records(self) -> list[IntervalRecord]:
        """The logical record multiset: shard contents minus replicas."""
        out: list[IntervalRecord] = []
        for t, shard in enumerate(self.shards):
            records = shard.stored_records()
            replicas = self._materialized_replicas(t)
            if not replicas:
                out.extend(records)
                continue
            kept = Counter(records)
            kept.subtract(replicas)
            for record, n in kept.items():
                out.extend([record] * n)
        return out

    def _materialized_replicas(self, t: int) -> Counter:
        """Shard ``t``'s replicas as they appear in its stored_records
        (now-relative rows materialise the clock, infinite rows keep
        the sentinel -- the shared store convention)."""
        replicas: Counter = Counter(self._rep_fin[t])
        for (lower, interval_id), n in self._rep_inf[t].items():
            replicas[(lower, UPPER_INF, interval_id)] += n
        for (lower, interval_id), n in self._rep_now[t].items():
            replicas[(lower, self._now, interval_id)] += n
        return replicas

    def cost_model(self):
        """A router-level :class:`RITreeCostModel` over the logical
        (deduplicated) record population."""
        statistics = RecordStatistics(
            self.stored_records, self._backbone,
            lambda count: memory_resident_geometry(count, self.shard_count))
        return RITreeCostModel(statistics=statistics, cache_residency=1.0)

    # ------------------------------------------------------------------
    # accounting / observability
    # ------------------------------------------------------------------
    @property
    def interval_count(self) -> int:
        return self._count

    @property
    def index_entry_count(self) -> int:
        """Physical entries across shards -- replication included, the
        same Figure 12 storage metric HINT reports per partition."""
        return sum(shard.index_entry_count for shard in self.shards)

    @property
    def replica_count(self) -> int:
        """Live replica records (extra physical copies across cuts)."""
        return (sum(self._rep_fin_n) + sum(self._rep_inf_n)
                + sum(self._rep_now_n))

    def routing_stats(self) -> dict:
        """Routing observability for the service ``stats`` op."""
        return {
            "backend": self.shards[0].method_name,
            "shard_count": len(self.shards),
            "cuts": list(self.cuts),
            "records": self._count,
            "replicas": self.replica_count,
            "shards": [
                {
                    "slice": [self._slice_lo(t), self._slice_hi(t)],
                    "records": shard.interval_count,
                    "replicas": (self._rep_fin_n[t] + self._rep_inf_n[t]
                                 + self._rep_now_n[t]),
                    "queries": self._stat_queries[t],
                    "predicate_queries": self._stat_predicate_queries[t],
                    "inserts": self._stat_inserts[t],
                    "join_probes": self._stat_join_probes[t],
                    "appends": self._stat_appends[t],
                    "append_replicas": self._stat_append_replicas[t],
                }
                for t, shard in enumerate(self.shards)
            ],
        }

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _verify_into(self, report: VerificationReport) -> None:
        super()._verify_into(report)
        report.add_check("shard-accounting")
        physical = sum(shard.interval_count for shard in self.shards)
        expected = self._count + self.replica_count
        if physical != expected:
            report.add_issue(
                "shard-accounting-mismatch",
                f"shards hold {physical} records but {self._count} "
                f"logical + {self.replica_count} replicas were routed",
            )
        report.add_check("shard-verify")
        for t, shard in enumerate(self.shards):
            sub = shard.verify()
            for issue in sub.issues:
                report.add_issue(
                    f"shard{t}-{issue.code}",
                    f"[shard {t}] {issue.message}",
                    issue.context,
                )
