"""The execution protocol and the per-statement state every executor shares.

Execution protocol
------------------
A statement's runner (see :mod:`repro.engine.compile`) is a *generator*
that yields :class:`~repro.engine.locks.LockRequest` objects whenever it
must wait for a lock, and returns its :class:`ExecResult` via
``StopIteration``. The session driver (synchronous or simulated) decides
how to wait:

* the simulated machine wires the request's grant callback to a sim event
  and suspends the machine process;
* the synchronous driver raises :class:`WouldBlockError` (no other session
  can be running concurrently, so a wait means misuse — or a test
  deliberately interleaving generators).

Rows internal to a plan are plain tuples, so consumers distinguish data
from lock waits with a single ``isinstance`` check.

Locking discipline (strict 2PL, statement integrated):

* sequential scans take a table S lock (X for UPDATE/DELETE targets);
* index scans take a table intention lock (IS/IX) plus per-row S/X locks,
  re-checking row existence after any wait;
* inserts take table IX plus an X lock on the new row.

Cost accounting: scans and DML touch buffer-pool pages through
:class:`ExecContext`; the resulting hit/miss/row counters let the machine
layer convert one statement into simulated CPU and disk time.

This module holds only what every executor needs — :class:`CostReport`,
:class:`ExecResult`, :class:`ExecContext`. The tree-walking interpreter
that used to follow them is the test suite's reference implementation,
``tests/oracles/tree_executor.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.engine.bufferpool import BufferPool
from repro.engine.locks import LockManager, LockMode
from repro.engine.storage import StoredDatabase
from repro.engine.transactions import Transaction
from repro.engine.wal import WriteAheadLog


@dataclass
class CostReport:
    """Resource usage of one statement."""

    rows_scanned: int = 0
    rows_returned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    lock_waits: int = 0


@dataclass
class ExecResult:
    """Statement outcome: rows for queries, rowcount for DML."""

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    rowcount: int = 0
    cost: CostReport = field(default_factory=CostReport)

    def scalar(self) -> Any:
        """First column of the first row (or None when empty)."""
        return self.rows[0][0] if self.rows else None


class ExecContext:
    """Mutable state threaded through one statement's execution."""

    __slots__ = ("txn", "database", "locks", "pool", "wal", "params",
                 "history", "cost", "dirty", "nonlocking_reads")

    def __init__(self, txn: Transaction, database: StoredDatabase,
                 locks: LockManager, pool: BufferPool,
                 wal: WriteAheadLog, params: Tuple[Any, ...],
                 history=None, dirty: Optional[Dict] = None):
        self.txn = txn
        self.database = database
        self.locks = locks
        self.pool = pool
        self.wal = wal
        self.params = params
        self.history = history
        self.cost = CostReport()
        # Engine-wide map of uncommitted row changes:
        # (db, table, rid) -> (owner txn id, committed before-image).
        # Consulted by non-locking consistent reads.
        self.dirty = dirty if dirty is not None else {}
        self.nonlocking_reads = database.config.nonlocking_reads

    # -- locking -----------------------------------------------------------

    def lock(self, resource, mode: LockMode) -> Generator:
        """Acquire a lock, yielding the request while it waits.

        The wait path of every lock site: callers try
        ``locks.try_acquire`` (a range read ``locks.try_acquire_run``)
        first and come here only for the resource it refused. May raise
        :class:`DeadlockError` synchronously (local deadlock).
        """
        request = self.locks.acquire(self.txn.txn_id, resource, mode)
        if not request.granted:
            self.cost.lock_waits += 1
            yield request
            if not request.granted:
                raise request.error or RuntimeError("lock wait failed")

    def table_resource(self, table: str):
        return ("tbl", self.database.name, table)

    def row_resource(self, table: str, rid: int):
        return ("row", self.database.name, table, rid)

    # -- cost / history -------------------------------------------------------

    def touch(self, pages: Iterable) -> None:
        report = self.pool.access_many(pages)
        self.cost.cache_hits += report.hits
        self.cost.cache_misses += report.misses

    def touch_runs(self, runs: Iterable[Tuple[Any, int]]) -> None:
        """Charge ``(page, count)`` runs: ``count`` touches of one page in
        a row, one LRU operation each (:meth:`BufferPool.access_run`)."""
        cost = self.cost
        access_run = self.pool.access_run
        for page, count in runs:
            hits = access_run(page, count)
            cost.cache_hits += hits
            cost.cache_misses += count - hits

    def mark_dirty(self, table: str, rid: int,
                   before: Optional[Tuple[Any, ...]]) -> None:
        """Record the committed before-image of a row this txn changes.

        Only the *first* change keeps its image (that is the committed
        version); the key is cleared when the transaction finishes.
        """
        key = (self.database.name, table, rid)
        if key not in self.dirty:
            self.dirty[key] = (self.txn.txn_id, before)
            self.txn.dirty_keys.add(key)

    def committed_view(self, table: str, rid: int,
                       row: Optional[Tuple[Any, ...]]
                       ) -> Optional[Tuple[Any, ...]]:
        """The last committed image of a row, for non-locking reads.

        Returns ``None`` when the row should be invisible (an
        uncommitted insert by another transaction). A transaction always
        sees its own changes.
        """
        entry = self.dirty.get((self.database.name, table, rid))
        if entry is None:
            return row
        owner, before = entry
        if owner == self.txn.txn_id:
            return row
        return before

    def record_read(self, table: str, key: Tuple[Any, ...]) -> None:
        if self.history is not None:
            self.history.record_read(self.txn.txn_id,
                                     (self.database.name, table, key))

    def record_write(self, table: str, key: Tuple[Any, ...]) -> None:
        if self.history is not None:
            self.history.record_write(self.txn.txn_id,
                                      (self.database.name, table, key))
