"""Reproduction of the Relational Interval Tree (Kriegel et al., VLDB 2000).

Package map:

* :mod:`repro.core` -- the RI-tree and its extensions (the paper's
  contribution);
* :mod:`repro.engine` -- the block-level relational storage substrate;
* :mod:`repro.methods` -- the Section 6 competitor access methods and
  the oracle store;
* :mod:`repro.sql` -- the object-relational wrapping on sqlite3;
* :mod:`repro.workloads` -- the Table 1 data and query generators;
* :mod:`repro.bench` -- the experiment harness regenerating every table
  and figure of the paper's evaluation.

Entry points: ``from repro.core import RITree`` for the library,
``python -m repro.bench.run`` for the evaluation.
"""

__version__ = "1.0.0"
