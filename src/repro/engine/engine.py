"""The MiniSQL engine facade: one instance per simulated machine.

An :class:`Engine` owns the storage, lock manager, WAL, and buffer pool of
one "mysqld". Transactions carry *global* ids supplied by the cluster
controller (the same logical transaction executes on every replica
machine), or engine-local ids for standalone use.

Every statement takes one path: parse → plan (:mod:`repro.engine.planner`
over the candidates :mod:`repro.engine.optimizer` enumerates and picks
from) → compile to a runner (:mod:`repro.engine.compile`) → run. Plan and
runner are cached per database by SQL text and dropped by that
database's DDL. ``execute`` is a generator (see
:mod:`repro.engine.executor` for the protocol); ``execute_sync`` is the
convenience driver for single-session use that raises
:class:`WouldBlockError` on any lock wait.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.engine import compile as comp
from repro.engine import executor as ex
from repro.engine import planner as pl
from repro.engine.config import EngineConfig
from repro.engine.btree import BPlusTree
from repro.engine.bufferpool import BufferPool
from repro.engine.locks import LockManager
from repro.engine.schema import Column, DatabaseSchema, IndexDef, TableSchema
from repro.engine.sqlparse import nodes as n
from repro.engine.sqlparse.parser import parse
from repro.engine.storage import StoredDatabase
from repro.engine.transactions import Transaction, TxnState
from repro.engine.types import SqlType
from repro.engine.wal import RecordType, WriteAheadLog
from repro.errors import (SchemaError, SqlError, TransactionError,
                          WouldBlockError)

ExecResult = ex.ExecResult
# A statement's runner: ExecContext -> generator (the executor protocol).
Runner = Callable[[ex.ExecContext], Generator]
#: Engine-local transaction ids start here (copy tool, DDL, standalone
#: use): no remote sender asks about one again, so it leaves
#: ``Engine.transactions`` the moment it finishes.
LOCAL_TXN_IDS = 1_000_000_000
#: The common 2PC optimisation: a PREPARED transaction drops its shared
#: locks. The paper's Table 1 anomaly needs it, as do real systems; tests
#: that show the anomaly going away monkeypatch it off.
RELEASE_READ_LOCKS_AT_PREPARE = True


class Engine:
    """A single-node DBMS instance."""

    _ids = itertools.count(1)

    def __init__(self, name: str = "", config: Optional[EngineConfig] = None,
                 history=None):
        self.name = name or f"engine-{next(self._ids)}"
        self.config = config or EngineConfig()
        self.locks = LockManager()
        self.wal = WriteAheadLog()
        self.buffer_pool = BufferPool(self.config.buffer_pool_pages)
        self.databases: Dict[str, StoredDatabase] = {}
        self.history = history
        self._planners: Dict[str, pl.Planner] = {}
        # The statement cache: db -> {sql -> (plan, runner)}. The runner
        # is None until the statement first executes; a database's DDL
        # (and dropping it) forgets that database's entry.
        self._statements: Dict[str, Dict[str, Tuple[pl.Plan,
                                                    Optional[Runner]]]] = {}
        self._local_txn_ids = itertools.count(LOCAL_TXN_IDS)
        # Unfinished transactions, plus finished *global* ones until the
        # owning machine hears they are closed. In begin (= LSN) order.
        self.transactions: Dict[int, Transaction] = {}
        # Uncommitted row changes, for non-locking consistent reads:
        # (db, table, rid) -> (owner txn id, committed before-image).
        self.dirty: Dict[Tuple[str, str, int], Tuple[int, Any]] = {}

    # -- database lifecycle -------------------------------------------------

    def create_database(self, name: str) -> StoredDatabase:
        if name in self.databases:
            raise SchemaError(f"database {name!r} already exists on {self.name}")
        database = StoredDatabase(DatabaseSchema(name), self.config)
        self.databases[name] = database
        self._planners[name] = self._planner_for(database)
        return database

    def create_database_from_ddl(self, name: str,
                                 ddl: Iterable[str]) -> StoredDatabase:
        """Create ``name`` and run its DDL in one set-up transaction."""
        database = self.create_database(name)
        setup = self.begin()
        for statement in ddl:
            self.execute_sync(setup, name, statement)
        self.commit(setup)
        return database

    def _planner_for(self, database: StoredDatabase) -> pl.Planner:
        """The planner of a database this engine hosts."""
        return pl.Planner(database.schema, database)

    def drop_database(self, name: str) -> None:
        self.databases.pop(name, None)
        self._planners.pop(name, None)
        self._statements.pop(name, None)
        self.buffer_pool.invalidate_prefix((name,))

    def database(self, name: str) -> StoredDatabase:
        if name not in self.databases:
            raise SchemaError(f"no database {name!r} on engine {self.name}")
        return self.databases[name]

    def hosts(self, name: str) -> bool:
        return name in self.databases

    # -- transactions ------------------------------------------------------

    def begin(self, txn_id: Optional[int] = None) -> Transaction:
        if txn_id is None:
            txn_id = next(self._local_txn_ids)
        old = self.transactions.get(txn_id)
        if old is not None:
            if not old.finished:
                raise TransactionError(
                    f"txn {txn_id} already active on {self.name}")
            del self.transactions[txn_id]  # re-insert: begin order
        txn = self.transactions[txn_id] = Transaction(
            txn_id, first_lsn=self.wal.append(txn_id, RecordType.BEGIN).lsn)
        return txn

    def checkpoint(self) -> int:
        """Drop the WAL prefix no transaction still here has a record in
        (``WriteAheadLog.checkpoint`` decides when it is worth it)."""
        for oldest in self.transactions.values():
            return self.wal.checkpoint(oldest.first_lsn - 1)
        return self.wal.checkpoint(self.wal.last_lsn)

    def prepare(self, txn: Transaction) -> None:
        """2PC phase one: log PREPARE and force the log."""
        self.log_prepare(txn)
        self.wal.flush()

    def commit(self, txn: Transaction) -> None:
        """Log COMMIT and force the log."""
        self.log_commit(txn)
        self.wal.flush()

    def log_prepare(self, txn: Transaction) -> int:
        """Append PREPARE, optionally shed read locks; returns the LSN.

        Nothing is forced: the caller owes a :meth:`WriteAheadLog.flush`
        covering the returned LSN before it votes (a machine shares that
        flush between every committer waiting for one).
        """
        txn.require(TxnState.ACTIVE)
        lsn = self.wal.append(txn.txn_id, RecordType.PREPARE).lsn
        if RELEASE_READ_LOCKS_AT_PREPARE:
            self.locks.release_shared(txn.txn_id)
        txn.state = TxnState.PREPARED
        if self.history is not None:
            self.history.record_prepare(txn.txn_id)
        return lsn

    def log_commit(self, txn: Transaction) -> int:
        """Append COMMIT, apply it and release every lock; returns the LSN.

        As with :meth:`log_prepare` the force is left to the caller. Locks
        go at append, not at the force: the log is flushed in LSN order,
        so whoever reads this transaction's writes logs behind it and
        cannot become durable before it.
        """
        txn.require(TxnState.ACTIVE, TxnState.PREPARED)
        lsn = self.wal.append(txn.txn_id, RecordType.COMMIT).lsn
        self._apply_stats_deltas(txn)
        self._clear_dirty(txn)
        self.locks.release_all(txn.txn_id)
        txn.state = TxnState.COMMITTED
        if txn.txn_id >= LOCAL_TXN_IDS:
            self.transactions.pop(txn.txn_id, None)
        if self.history is not None:
            self.history.record_commit(txn.txn_id)
        return lsn

    def abort(self, txn: Transaction) -> None:
        if txn.state is TxnState.COMMITTED:
            raise TransactionError(f"txn {txn.txn_id} already committed")
        if txn.state is TxnState.ABORTED:
            return
        for entry in reversed(txn.undo):
            table = self.database(entry.db).table(entry.table)
            if entry.kind == "insert":
                if table.get(entry.rid) is not None:
                    table.delete(entry.rid)
            elif entry.kind == "update":
                table.update(entry.rid, entry.before)
            elif entry.kind == "delete":
                table.insert_at(entry.rid, entry.before)
        txn.undo.clear()
        self.wal.append(txn.txn_id, RecordType.ABORT)
        self._clear_dirty(txn)
        self.locks.release_all(txn.txn_id)
        txn.state = TxnState.ABORTED
        if txn.txn_id >= LOCAL_TXN_IDS:
            self.transactions.pop(txn.txn_id, None)
        if self.history is not None:
            self.history.record_abort(txn.txn_id)

    def _apply_stats_deltas(self, txn: Transaction) -> None:
        """Fold a committing transaction's row changes into the
        catalogue statistics.

        The undo log already carries exact before/after images for every
        change, so statistics maintenance is a pure replay of it — no
        rescans, and aborted transactions (whose physical changes are
        rolled back) never touch the sketches. That replay is the undo
        log's last reader, so the row images are dropped with it: a
        finished global transaction stays in ``self.transactions`` for a
        while, its writes must not.
        """
        for entry in txn.undo:
            database = self.databases.get(entry.db)
            if database is None:
                continue
            stats = database.stats.get(entry.table)
            if stats is None:
                continue
            stats.apply_delta(entry.kind, entry.before, entry.after)
        txn.undo.clear()

    def _clear_dirty(self, txn: Transaction) -> None:
        for key in txn.dirty_keys:
            entry = self.dirty.get(key)
            if entry is not None and entry[0] == txn.txn_id:
                del self.dirty[key]
        txn.dirty_keys.clear()

    # -- statement execution ------------------------------------------------

    def plan(self, db_name: str, sql: str):
        """Parse and plan a statement, cached by SQL text; compiles
        nothing."""
        cached = self._statements.get(db_name, {}).get(sql)
        if cached is not None:
            return cached[0]
        stmt = parse(sql)
        planner = self._planner(db_name)
        if isinstance(stmt, n.Select):
            plan = planner.plan_select(stmt)
        elif isinstance(stmt, n.Insert):
            plan = planner.plan_insert(stmt)
        elif isinstance(stmt, n.Update):
            plan = planner.plan_update(stmt)
        elif isinstance(stmt, n.Delete):
            plan = planner.plan_delete(stmt)
        elif isinstance(stmt, (n.CreateTable, n.CreateIndex)):
            return stmt  # DDL executes directly, uncached
        else:
            raise SqlError(f"unsupported statement {type(stmt).__name__}")
        self._statements.setdefault(db_name, {})[sql] = (plan, None)
        return plan

    def _planner(self, db_name: str) -> pl.Planner:
        if db_name not in self._planners:
            raise SchemaError(f"no database {db_name!r} on engine {self.name}")
        return self._planners[db_name]

    def _prepare(self, db_name: str, sql: str) -> Runner:
        """Plan a statement (through the cache) and make its runner."""
        plan = self.plan(db_name, sql)
        if isinstance(plan, (n.CreateTable, n.CreateIndex)):
            def run_ddl(ctx: ex.ExecContext) -> Generator:
                return self._execute_ddl(db_name, plan)
                yield  # pragma: no cover - makes this function a generator
            return run_ddl
        run = self._runner(plan)
        self._statements[db_name][sql] = (plan, run)
        return run

    def _runner(self, plan: pl.Plan) -> Runner:
        """The generator function that executes ``plan``."""
        return comp.compile_statement(plan)

    def execute(self, txn: Transaction, db_name: str, sql: str,
                params: Sequence[Any] = ()) -> Generator:
        """Run one statement inside ``txn``; generator protocol.

        Yields :class:`LockRequest` on waits; returns :class:`ExecResult`.
        """
        txn.require(TxnState.ACTIVE)
        try:
            run = self._statements[db_name][sql][1]
        except KeyError:
            run = None
        if run is None:  # first execution (or first since this db's DDL)
            run = self._prepare(db_name, sql)
        txn.databases.add(db_name)
        ctx = ex.ExecContext(txn, self.database(db_name), self.locks,
                             self.buffer_pool, self.wal, tuple(params),
                             history=self.history, dirty=self.dirty)
        result = yield from run(ctx)
        return result

    def execute_sync(self, txn: Transaction, db_name: str, sql: str,
                     params: Sequence[Any] = ()) -> ExecResult:
        """Single-session driver: any lock wait raises WouldBlockError."""
        gen = self.execute(txn, db_name, sql, params)
        try:
            request = next(gen)
        except StopIteration as stop:
            return stop.value
        gen.close()
        raise WouldBlockError(
            f"statement blocked on {request.resource} "
            f"(held by another transaction)"
        )

    def _execute_ddl(self, db_name: str, stmt) -> ExecResult:
        database = self.database(db_name)
        if isinstance(stmt, n.CreateTable):
            columns = [
                Column(c.name, SqlType.from_name(c.type_name), c.nullable)
                for c in stmt.columns
            ]
            database.add_table(TableSchema(stmt.table, columns,
                                           stmt.primary_key))
        else:
            schema = database.schema.table(stmt.table)
            schema.add_index(IndexDef(stmt.name, tuple(stmt.columns),
                                      stmt.unique))
            table = database.table(stmt.table)
            index = schema.indexes[stmt.name]
            tree = BPlusTree(self.config.btree_order, len(index.columns))
            tree.extend((table.index_key(index, row), rid)
                        for rid, row in table.scan())
            table.indexes[stmt.name] = tree
        self._statements.pop(db_name, None)
        return ExecResult(rowcount=0)

    # -- copy support (dump tool backend) ---------------------------------------

    def snapshot_table(self, db_name: str, table_name: str) -> List[Tuple]:
        """Raw rows of one table; caller must hold the table read lock."""
        table = self.database(db_name).table(table_name)
        return [row for _, row in table.scan()]

    def load_table_rows(self, db_name: str, table_name: str,
                        rows: List[Tuple]) -> None:
        """Bulk-load snapshot rows into an (empty) table on this engine:
        ``insert_many``, then the stored rows into the table's statistics
        (those before a rejected row too, as a row-at-a-time load)."""
        database = self.database(db_name)
        table = database.table(table_name)
        stats = database.stats.get(table_name)
        first = table.next_rid
        try:
            table.insert_many(rows)
        finally:
            if stats is not None:
                stats.add_rows(table.get_many(range(first, table.next_rid)))

