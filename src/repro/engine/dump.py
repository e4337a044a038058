"""The database copy tool (mysqldump stand-in).

The paper's recovery path copies databases with an off-the-shelf tool that
"obtains a read lock on the database/table, copies over the contents, and
releases the lock at the end of the copy". This module reproduces that
footprint exactly:

* :func:`dump_table` — one table under one table-S lock, released when the
  table's rows have been read (table-granularity copy);
* :func:`dump_database` — S locks on *all* tables held for the whole copy
  (database-granularity copy, the lower-concurrency variant of Figure 8).

Both are generators in the engine's lock-wait protocol and return
:class:`TableDump` payloads carrying the rows plus the page counts the
machine layer uses to charge copy time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Tuple

from repro.engine.engine import Engine
from repro.engine.executor import ExecContext
from repro.engine.locks import LockMode


@dataclass
class TableDump:
    """Snapshot of one table plus the I/O it cost to read."""

    table: str
    rows: List[Tuple]
    pages: int
    cache_hits: int = 0
    cache_misses: int = 0
    bytes_estimate: int = 0


def _wait_context(engine: Engine, txn, db_name: str) -> ExecContext:
    """The context a copy transaction waits for a lock through."""
    return ExecContext(txn, engine.database(db_name), engine.locks,
                       engine.buffer_pool, engine.wal, ())


def dump_table(engine: Engine, db_name: str, table_name: str) -> Generator:
    """Copy one table under a short-lived table read lock.

    Returns a :class:`TableDump`. The read lock is held only while this
    table is read — the paper's "table currently being copied" window that
    Algorithm 1 guards with write rejections.
    """
    txn = engine.begin()
    try:
        resource = ("tbl", db_name, table_name)
        if not engine.locks.try_acquire(txn.txn_id, resource, LockMode.S):
            yield from _wait_context(engine, txn, db_name).lock(
                resource, LockMode.S)
        table = engine.database(db_name).table(table_name)
        report = engine.buffer_pool.access_many(table.heap_pages())
        rows = engine.snapshot_table(db_name, table_name)
        dump = TableDump(table_name, rows, table.page_count,
                         report.hits, report.misses,
                         table.estimated_bytes())
    finally:
        engine.commit(txn)
    return dump


def dump_database(engine: Engine, db_name: str) -> Generator:
    """Copy every table while holding read locks on all of them.

    This is database-granularity copying: a single copy transaction locks
    the whole database up front and releases only when everything has
    been read, so *every* write to the database blocks-or-rejects for the
    full copy duration.
    """
    database = engine.database(db_name)
    table_names = sorted(database.tables)
    txn = engine.begin()
    dumps: List[TableDump] = []
    try:
        for table_name in table_names:
            resource = ("tbl", db_name, table_name)
            if not engine.locks.try_acquire(txn.txn_id, resource,
                                            LockMode.S):
                yield from _wait_context(engine, txn, db_name).lock(
                    resource, LockMode.S)
        for table_name in table_names:
            table = database.table(table_name)
            report = engine.buffer_pool.access_many(table.heap_pages())
            rows = engine.snapshot_table(db_name, table_name)
            dumps.append(TableDump(table_name, rows, table.page_count,
                                   report.hits, report.misses,
                                   table.estimated_bytes()))
    finally:
        engine.commit(txn)
    return dumps
