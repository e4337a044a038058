"""MiniSQL: a from-scratch single-node relational DBMS.

This package is the repository's stand-in for MySQL 5 in the paper's
architecture. One :class:`~repro.engine.engine.Engine` instance corresponds
to one ``mysqld`` on one machine; it hosts many client *databases* and
provides:

* a SQL subset sufficient for TPC-W (joins, aggregates, ORDER BY/LIMIT,
  parameterized DML) — :mod:`repro.engine.sqlparse`, planner, executor;
* heap storage with B+Tree primary and secondary indexes;
* an LRU buffer-pool model shared by all hosted databases (the cache whose
  locality drives the paper's Figures 2-4);
* strict two-phase locking with multi-granularity (table/row) locks and
  waits-for deadlock detection;
* a write-ahead log whose flush horizon makes PREPARE and COMMIT
  durable (no restart replays it: a crashed machine rejoins blank);
* an XA-style PREPARE / COMMIT / ABORT participant API, including the
  release-read-locks-at-PREPARE optimization that makes the paper's
  Table 1 anomaly possible;
* a ``mysqldump``-style copy tool that reads one table under a table lock
  (:mod:`repro.engine.dump`).
"""

from repro.engine.config import EngineConfig
from repro.engine.engine import Engine, ExecResult
from repro.engine.transactions import Transaction, TxnState

__all__ = [
    "Engine",
    "EngineConfig",
    "ExecResult",
    "Transaction",
    "TxnState",
]
