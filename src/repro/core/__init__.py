"""The paper's primary contribution: the Relational Interval Tree.

Public surface:

* :class:`~repro.core.ritree.RITree` -- the access method (Sections 3-4),
  with ``now``/``infinity`` rows at reserved fork nodes (Section 4.6,
  :mod:`~repro.core.temporal`);
* :mod:`~repro.core.predicates` -- ``intersects``/``stab`` and Allen's 13
  relations (Section 4.5) as first-class objects plus parameterized query
  families (``range_duration``), compiled per backend through
  :meth:`~repro.core.access.IntervalStore.query`;
* :mod:`~repro.core.join` -- interval equi-overlap joins: index-nested-loop
  over the batched scan plan, a Piatov-style plane sweep, and a
  pure-Python nested loop, all behind one :class:`~repro.core.join.JoinStrategy`
  API;
* :class:`~repro.core.backbone.VirtualBackbone` and
  :func:`~repro.core.transient.collect_query_nodes` -- the virtual primary
  structure and transient query tables, exposed for inspection and tests;
* :mod:`~repro.core.stores` -- the unified construction entry point:
  :func:`~repro.core.stores.create_store` builds any registered backend
  by name;
* :class:`~repro.core.router.ShardedStore` -- the domain-sharding router
  presenting many backend shards as one store, with cut-crossing
  replication and first-occurrence deduplication;
* :class:`~repro.core.access.AccessMethod` -- the interface shared with the
  competitor methods in :mod:`repro.methods`.
"""

from .access import AccessMethod, IntervalRecord, IntervalStore
from .backbone import (
    MAX_ABS_BOUND,
    BackboneParams,
    FixedHeightBackbone,
    VirtualBackbone,
)
from .costmodel import (
    BoundSummary,
    JoinEstimate,
    JoinStrategyCost,
    RITreeCostModel,
    choose_join_strategy,
    expected_join_pairs,
)
from .hint import HintCostModel, HintStore
from .interval import Interval, validate_interval
from .predicates import (
    FAMILIES,
    JOIN_PREDICATES,
    PREDICATES,
    IntervalPredicate,
    QueryFamily,
    compile_query,
    get_family,
    range_duration,
)
from .join import (
    JOIN_STRATEGIES,
    AutoJoin,
    IndexNestedLoopJoin,
    JoinPair,
    JoinStrategy,
    NestedLoopJoin,
    SweepJoin,
    interval_join,
)
from .ritree import RITree
from .router import ShardedStore, derive_cuts
from .stores import available_backends, create_store, register_backend
from .temporal import (
    FORK_INF,
    FORK_NOW,
    UPPER_INF,
    UPPER_NOW,
)
from .transient import QueryNodes, collect_query_nodes

__all__ = [
    "AccessMethod",
    "AutoJoin",
    "BackboneParams",
    "BoundSummary",
    "JoinEstimate",
    "JoinStrategyCost",
    "choose_join_strategy",
    "expected_join_pairs",
    "FixedHeightBackbone",
    "FORK_INF",
    "FORK_NOW",
    "HintCostModel",
    "HintStore",
    "IndexNestedLoopJoin",
    "Interval",
    "IntervalPredicate",
    "IntervalRecord",
    "IntervalStore",
    "get_family",
    "compile_query",
    "range_duration",
    "QueryFamily",
    "FAMILIES",
    "JOIN_PREDICATES",
    "JOIN_STRATEGIES",
    "PREDICATES",
    "JoinPair",
    "JoinStrategy",
    "MAX_ABS_BOUND",
    "NestedLoopJoin",
    "SweepJoin",
    "QueryNodes",
    "RITree",
    "RITreeCostModel",
    "ShardedStore",
    "available_backends",
    "create_store",
    "derive_cuts",
    "register_backend",
    "UPPER_INF",
    "UPPER_NOW",
    "VirtualBackbone",
    "collect_query_nodes",
    "interval_join",
    "validate_interval",
]
