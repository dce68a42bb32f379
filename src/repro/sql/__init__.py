"""Object-relational wrapping on a real SQL engine (paper Section 5).

The RI-tree "can easily be implemented on top of any relational DBMS"; this
package demonstrates it on stdlib :mod:`sqlite3` with the paper's literal
DDL and its query statements in a form sqlite plans as Figure 10.
:class:`SQLRITree` implements the full backend-neutral
:class:`~repro.core.access.IntervalStore` contract -- set-at-a-time
joins, batched queries, predicate compilation, planner statistics.
"""

from .ritree_sql import SQLRITree

__all__ = ["SQLRITree"]
