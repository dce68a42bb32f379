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
the shared clock has reached ``slo_t``).  The id multiset a shard's
results drop is cached per shard and rebuilt only after a replica
changes or the clock crosses the slice start.  Counts subtract the same
per-shard replica totals without materialising ids, which is what keeps
``intersection_count``/``join_count`` replication-blind.

Temporal rows ride along: ``[l, oo)`` and ``[l, now]`` records replicate
from their home shard to every shard to its right (the clock may pass
any cut), every shard shares one router-advanced clock, and the
sentinel uppers of :mod:`repro.core.temporal` travel through the
shards' plain ``insert``/``delete``/``append_batch``, as on every
registered backend.

Predicate queries evaluate on *full* record bounds (replicas are whole
copies, never truncated), so every replica-holding shard reports the
same verdict as the home shard; the router refines its replica
multisets with the same pure predicate to subtract the extras.

Scatter-gather
--------------
Every call that reaches more than one shard goes through
:meth:`~repro.core.access.IntervalStore.submit`: the router submits to
each touched shard in ascending shard order before it reads any result,
then drains every submitted call (see :meth:`ShardedStore._fan_out`).
In-process shards evaluate at submit time; remote shards write their
request frames first, so the shard servers work in parallel.
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
    RITreeCostModel,
    StoreStatistics,
    memory_resident_geometry,
)
from .interval import validate_interval
from .predicates import resolve_join_predicate
from .temporal import FORK_INF, UPPER_INF, sentinel_node
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
        # Per-shard left-crossing replica multisets: full records for
        # predicate refinement and stored_records(), plain totals for
        # count paths, and the cached id multiset every clipped read
        # strips (None until the next read rebuilds it; replica changes
        # and clock moves across the slice start reset it).
        n = len(self.shards)
        self._rep_fin: list[Counter] = [Counter() for _ in range(n)]
        self._rep_inf: list[Counter] = [Counter() for _ in range(n)]
        self._rep_now: list[Counter] = [Counter() for _ in range(n)]
        self._strips: list[Optional[Counter]] = [None] * n
        self._rep_fin_n = [0] * n
        self._rep_inf_n = [0] * n
        self._rep_now_n = [0] * n
        # The replica books _placement hands out: (multisets, totals).
        self._fin_book = (self._rep_fin, self._rep_fin_n)
        self._inf_book = (self._rep_inf, self._rep_inf_n)
        self._now_book = (self._rep_now, self._rep_now_n)
        # Routing observability (served through the service /stats op).
        self._stat_queries = [0] * n
        self._stat_predicate_queries = [0] * n
        self._stat_inserts = [0] * n
        self._stat_join_probes = [0] * n
        self._stat_appends = [0] * n
        self._stat_append_replicas = [0] * n
        # Optimizer statistics seam (finite bounds only, like HINT's:
        # a sentinel row's lower may lie outside any finite domain).
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
    def _placement(self, lower: int, upper: int, interval_id: int):
        """Where one record lives, validated before any change.

        Returns ``(home, last, book, key)``: the record goes to shards
        ``home..last``, and every shard after ``home`` holds a
        left-crossing replica noted in ``book`` (a ``(multisets,
        totals)`` pair) under ``key``.  A finite record spans the shards
        its extent touches; an ``[l, oo)`` or ``[l, now]`` record spans
        its home shard and every shard to its right (the clock may pass
        any cut).
        """
        node = sentinel_node(lower, upper, self._now)
        home = self._shard_of(lower)
        if node is None:
            validate_interval(lower, upper)
            return (home, self._shard_of(upper), self._fin_book,
                    (lower, upper, interval_id))
        book = self._inf_book if node == FORK_INF else self._now_book
        return home, len(self.shards) - 1, book, (lower, interval_id)

    def insert(self, lower: int, upper: int, interval_id: int) -> None:
        """Insert, replicating across every shard the record spans.

        A finite record registers on the statistics backbone, which
        refuses one outside the data space, before any shard stores it.
        """
        home, last, book, key = self._placement(lower, upper, interval_id)
        if book is self._fin_book:
            self._backbone.register(lower, upper)
        for t in range(home, last + 1):
            self.shards[t].insert(lower, upper, interval_id)
            self._stat_inserts[t] += 1
            if t > home:
                self._note_replica(book, t, key)
        self._count += 1

    def delete(self, lower: int, upper: int, interval_id: int) -> None:
        """Remove one copy of the exact record from every shard it spans."""
        home, last, book, key = self._placement(lower, upper, interval_id)
        # The home shard goes first: if the record is absent, its
        # KeyError propagates before any replica shard was touched.
        for t in range(home, last + 1):
            self.shards[t].delete(lower, upper, interval_id)
            if t > home:
                self._drop_replica(book, t, key)
        self._count -= 1

    def _note_replica(self, book, t: int, key) -> None:
        replicas, totals = book
        replicas[t][key] += 1
        totals[t] += 1
        self._strips[t] = None

    def _drop_replica(self, book, t: int, key) -> None:
        replicas, totals = book
        replicas[t][key] -= 1
        if not replicas[t][key]:
            del replicas[t][key]
        totals[t] -= 1
        self._strips[t] = None

    def _route(self, intervals, stat_rows, stat_replicas=None):
        """Per-shard record batches of ``intervals``, books updated.

        Every record is placed (and so validated) before any replica
        book or counter changes, so a rejected record leaves the router
        as it was (the statistics backbone only ever grows).
        """
        batches: list[list[IntervalRecord]] = [[] for _ in self.shards]
        spans = []
        count = 0
        for lower, upper, interval_id in intervals:
            home, last, book, key = self._placement(
                lower, upper, interval_id)
            record = (lower, upper, interval_id)
            for t in range(home, last + 1):
                batches[t].append(record)
            if last > home:
                spans.append((home, last, book, key))
            if book is self._fin_book:
                self._backbone.register(lower, upper)
            count += 1
        for home, last, book, key in spans:
            for t in range(home + 1, last + 1):
                self._note_replica(book, t, key)
                if stat_replicas is not None:
                    stat_replicas[t] += 1
        for t, batch in enumerate(batches):
            stat_rows[t] += len(batch)
        self._count += count
        return batches

    def bulk_load(self, intervals: Sequence[IntervalRecord]) -> None:
        """Batch per shard: one backend ``bulk_load`` per slice, Section
        4.6 rows included."""
        batches = self._route(intervals, self._stat_inserts)
        self._fan_out([(t, "bulk_load", batch)
                       for t, batch in enumerate(batches) if batch])

    def append_batch(self, records: Sequence[IntervalRecord], closes=()) -> None:
        """Streaming append: one backend ``append_batch`` per touched shard.

        Routing and replica bookkeeping match :meth:`insert` exactly;
        the difference is dispatch shape -- records fan into per-shard
        batches first, then each shard takes its whole slice of the
        batch in ONE ``append_batch`` call (one group commit per shard
        for WAL-backed backends).  Appends are tracked separately from
        inserts in the routing stats (``appends`` / ``append_replicas``),
        so the service's ingest traffic is distinguishable from the
        point-insert path.  Closures take the base class's
        check-then-undo path.
        """
        records = list(records)
        closes = self._check_closes(closes)
        batches = self._route(records, self._stat_appends,
                              self._stat_append_replicas)
        self._fan_out([(t, "append_batch", batch)
                       for t, batch in enumerate(batches) if batch])
        self._close_or_undo(closes, records)

    # ------------------------------------------------------------------
    # temporal rows (shared clock, replicate-right placement)
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current clock value, shared by every shard."""
        return self._now

    def advance_to(self, now: int) -> None:
        """Move the shared clock forward on every shard."""
        if now < self._now:
            raise ValueError(
                f"clock moves forward only: {now} < now={self._now}")
        self._fan_out([(t, "advance_to", now)
                       for t in range(len(self.shards))])
        passed = self._now
        self._now = now
        for t in range(1, len(self.shards)):
            if passed < self._slice_lo(t) <= now:
                self._strips[t] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _clip(self, t: int, lower: int, upper: int) -> tuple[int, int]:
        """``[lower, upper]`` clipped to slice ``t``."""
        lo = self._slice_lo(t)
        hi = self._slice_hi(t)
        return (lower if lo is None else max(lower, lo),
                upper if hi is None else min(upper, hi))

    def _fan_out(self, calls, **kwargs) -> list:
        """Run ``(shard, method, *args)`` calls scatter-gather.

        Every call is submitted through :meth:`IntervalStore.submit`, in
        the order given, before any result is read; callers list each
        shard at most once and in ascending order, the global lock order
        of shard connections.  Every submitted call is then collected,
        also after one raised, so no connection is left locked or with
        an unread response, and the first exception is re-raised after
        the drain.  A submit that raises ends the scatter: in-process
        shards run at submit time, so a failing shard stops the fan-out
        where a sequential loop would.
        """
        waits = []
        error = None
        for t, method, *args in calls:
            try:
                waits.append(self.shards[t].submit(method, *args, **kwargs))
            except Exception as exc:
                error = exc
                break
        results = []
        for wait in waits:
            try:
                results.append(wait())
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return results

    def intersection(self, lower: int, upper: int) -> list[int]:
        validate_interval(lower, upper)
        first = self._shard_of(lower)
        last = self._shard_of(upper)
        self._stat_queries[first] += 1
        if first == last:
            return self.shards[first].intersection(lower, upper)
        for t in range(first + 1, last + 1):
            self._stat_queries[t] += 1
        out, *rest = self._fan_out(
            [(t, "intersection", *self._clip(t, lower, upper))
             for t in range(first, last + 1)])
        for t, ids in enumerate(rest, first + 1):
            out.extend(self._strip(ids, self._replica_ids(t)))
        return out

    def _replica_ids(self, t: int) -> Counter:
        """Ids (with multiplicity) every clipped query must drop in ``t``.

        Every left-crossing replica of shard ``t`` matches any window
        clipped to start at the slice start; ``now``-relative replicas
        only once the clock has reached it.  Cached per shard; callers
        must not modify the result.
        """
        strip = self._strips[t]
        if strip is None:
            strip = Counter()
            for (_, _, interval_id), n in self._rep_fin[t].items():
                strip[interval_id] += n
            for (_, interval_id), n in self._rep_inf[t].items():
                strip[interval_id] += n
            if self._rep_now_n[t] and self._now >= self._slice_lo(t):
                for (_, interval_id), n in self._rep_now[t].items():
                    strip[interval_id] += n
            self._strips[t] = strip
        return strip

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
        for t in range(first + 1, last + 1):
            self._stat_queries[t] += 1
        counts = self._fan_out(
            [(t, "intersection_count", *self._clip(t, lower, upper))
             for t in range(first, last + 1)])
        return sum(counts) - sum(self._replica_total(t)
                                 for t in range(first + 1, last + 1))

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
        for t in range(len(self.shards)):
            self._stat_queries[t] += 1
            self._stat_predicate_queries[t] += 1
        results = self._fan_out(
            [(t, "query", lower, upper) for t in range(len(self.shards))],
            predicate=pred)
        for t, ids in enumerate(results):
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

        Returns the touched shards in ascending order, their probe
        batches, and per shard the ids of the probes that entered it as
        a non-first shard: such a probe matches every left-crossing
        replica of that shard (same argument as single queries), so its
        pairs drop the replica id multiset and its count the replica
        total.
        """
        batches: list[list[IntervalRecord]] = [[] for _ in self.shards]
        entered: list[list[int]] = [[] for _ in self.shards]
        for lower, upper, probe_id in probes:
            validate_interval(lower, upper)
            first = self._shard_of(lower)
            last = self._shard_of(upper)
            self._stat_join_probes[first] += 1
            batches[first].append(
                (*self._clip(first, lower, upper), probe_id))
            for t in range(first + 1, last + 1):
                self._stat_join_probes[t] += 1
                batches[t].append((*self._clip(t, lower, upper), probe_id))
                entered[t].append(probe_id)
        touched = [t for t, batch in enumerate(batches) if batch]
        return touched, batches, entered

    def join_pairs(
        self, probes: Sequence[IntervalRecord], *, predicate=None
    ) -> list[tuple[int, int]]:
        """Batched overlap join: one backend probe batch per shard.

        Predicate joins refine the router's ``stored_records`` (which
        already deduplicates) through the base-class path -- correct on
        every predicate, at nested-loop cost.
        """
        pred = resolve_join_predicate(predicate)
        if pred is not None:
            return super().join_pairs(probes, predicate=pred)
        touched, batches, entered = self._clipped_probes(probes)
        results = self._fan_out(
            [(t, "join_pairs", batches[t]) for t in touched])
        pairs: list[tuple[int, int]] = []
        for t, got in zip(touched, results):
            replicas = self._replica_ids(t) if entered[t] else None
            if replicas:
                strip: Counter = Counter()
                for probe_id in entered[t]:
                    for interval_id, n in replicas.items():
                        strip[(probe_id, interval_id)] += n
                got = self._strip(got, strip)
            pairs.extend(got)
        return pairs

    def join_count(
        self, probes: Sequence[IntervalRecord], *, predicate=None
    ) -> int:
        """Replication-blind join cardinality (the no-double-count rule)."""
        pred = resolve_join_predicate(predicate)
        if pred is not None:
            return len(self.join_pairs(probes, predicate=pred))
        touched, batches, entered = self._clipped_probes(probes)
        counts = self._fan_out(
            [(t, "join_count", batches[t]) for t in touched])
        return sum(counts) - sum(len(entered[t]) * self._replica_total(t)
                                 for t in touched)

    # ------------------------------------------------------------------
    # enumeration / planning
    # ------------------------------------------------------------------
    def stored_records(self) -> list[IntervalRecord]:
        """The logical record multiset: shard contents minus replicas."""
        out: list[IntervalRecord] = []
        results = self._fan_out(
            [(t, "stored_records") for t in range(len(self.shards))])
        for t, records in enumerate(results):
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

    def analyze(self, buckets: int = DEFAULT_BUCKETS) -> StoreStatistics:
        """The ANALYZE pass over the logical (deduplicated) record
        population, with the router's backbone and one partition per
        shard."""
        records = self.stored_records()
        return StoreStatistics(
            BoundSummary.from_records(records, buckets),
            self._backbone,
            memory_resident_geometry(len(records), self.shard_count),
        )

    def cost_model(self):
        """A fresh router-level :class:`RITreeCostModel` over
        :meth:`analyze`."""
        return RITreeCostModel(self.analyze(), cache_residency=1.0)

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
        subs = self._fan_out([(t, "verify") for t in range(len(self.shards))])
        for t, sub in enumerate(subs):
            for issue in sub.issues:
                report.add_issue(
                    f"shard{t}-{issue.code}",
                    f"[shard {t}] {issue.message}",
                    issue.context,
                )
