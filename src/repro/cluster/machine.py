"""A simulated cluster machine hosting one MiniSQL engine.

The machine converts engine cost reports into simulated time on its CPU
and disk resources, enforces per-transaction FIFO ordering of operations
(a statement sent to this machine for transaction T executes after every
earlier operation of T here — the property the paper's anomaly example
relies on), applies the cluster's lock-wait timeout, forces the log once
per batch of waiting committers (:meth:`Machine._force_log`), and models
failure: ``fail()`` kills the engine and interrupts everything in flight.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Sequence

from repro.cluster.config import MachineConfig
from repro.engine import Engine
from repro.engine.dump import dump_database, dump_table
from repro.engine.executor import ExecResult
from repro.engine.transactions import Transaction, TxnState
from repro.errors import (DeadlockError, LockTimeoutError,
                          MachineFailedError, TransactionError)
from repro.sim import Event, Interrupt, Process, Resource, Simulator


class _LogFlush:
    """One force of a machine's log, shared by every committer it covers."""

    __slots__ = ("covered", "done")

    def __init__(self):
        #: Highest LSN this flush made durable; 0 until its hold finishes.
        self.covered = 0
        #: Wakes the followers. Created by the first of them, so a flush
        #: nobody joined costs what a plain disk hold costs.
        self.done: Optional[Event] = None


class Machine:
    """One commodity machine: engine + CPU + disk + failure state."""

    def __init__(self, sim: Simulator, name: str, config: MachineConfig,
                 history=None):
        self.sim = sim
        self.name = name
        self.config = config
        self.cpu = Resource(sim, capacity=config.cores)
        self.disk = Resource(sim, capacity=config.disks)
        self._history = history
        self.engine = Engine(name, config.engine, history=history)
        self.alive = True
        self.failed_at: Optional[float] = None
        # Fenced: declared dead by the failure detector while (possibly)
        # still alive. A fenced machine's replicas are stale; it serves
        # nothing until readmitted as a blank spare.
        self.fenced = False
        # Tail process of each transaction's FIFO op chain on this machine.
        self._tails: Dict[int, Process] = {}
        # Processes in flight, in submission order (a dict, not a set:
        # ``fail`` / ``fence`` interrupt them in this order, and the order
        # same-instant failures reach the coordinator in is traced).
        self._active: Dict[Process, None] = {}
        # RPC dedup: transaction id -> message id -> the process
        # executing (or having executed) that message, so a retransmitted
        # request returns the original outcome instead of re-executing
        # the statement. An entry dies with its transaction (close_below).
        self._rpc_cache: Dict[int, Dict[int, Process]] = {}
        # Write statements executed per transaction; PREPARE compares
        # this against the coordinator's sent count to detect a branch
        # that missed a (dropped) write.
        self._write_counts: Dict[int, int] = {}
        # The log flush queued for or holding the disk, if any.
        self._flush: Optional[_LogFlush] = None
        # The coordinator's watermark as last heard: every transaction
        # id below it is closed (DESIGN §4q). Survives fencing and wiping.
        self.closed_below = 0

    # -- load signals (overload detection) -------------------------------------

    @property
    def inflight(self) -> int:
        """Sim processes currently running or queued on this machine.

        The overload watermark of the admission layer: every submitted
        statement, 2PC phase, and copy-tool step counts until it
        settles, so a machine drowning in queued work reads high even
        while its CPU resource is merely saturated.
        """
        return len(self._active)

    def overloaded(self, watermark: int) -> bool:
        """Is this machine past the in-flight watermark? (0 = never)."""
        return watermark > 0 and self.inflight >= watermark

    # -- capacity (SLA dimensions) -------------------------------------------

    def capacity_vector(self):
        from repro.sla.model import ResourceVector
        return ResourceVector(
            cpu=float(self.config.cores),
            memory_mb=self.config.memory_mb,
            disk_io_mbps=self.config.disk_bandwidth_mbps,
            disk_mb=self.config.disk_mb,
        )

    # -- failure ---------------------------------------------------------------

    def fail(self) -> None:
        """Power off: lose the engine, kill everything in flight."""
        if not self.alive:
            return
        self.alive = False
        self.failed_at = self.sim.now
        self._drop_inflight(self.name)

    def fence(self) -> None:
        """Fence off a machine the detector declared dead.

        Models the machine-side lease expiry that accompanies the
        controller's declaration: everything in flight dies, new work is
        refused, and the (stale) replicas it hosts serve nothing. The
        engine state is kept — fencing is reversible only through
        :meth:`readmit_as_spare`, which wipes it, or
        :meth:`rejoin_with_data`.
        """
        if self.fenced:
            return
        self.fenced = True
        self._drop_inflight(f"{self.name} (fenced)")

    def readmit_as_spare(self) -> None:
        """Re-enter the cluster as a blank spare: after a repair, or
        after a false declaration.

        Per the paper's treatment of recovered machines, a machine that
        reappears after being declared dead does not resume serving its
        old replicas — they may have missed writes. It is wiped and
        rejoins as a fresh machine holding nothing.
        """
        self.engine = Engine(self.name, self.config.engine,
                             history=self._history)
        self.fenced = False
        self.alive = True
        self.failed_at = None
        self._drop_inflight()

    def rejoin_with_data(self) -> None:
        """Re-enter the cluster keeping the engine's data (delta rejoin).

        A machine declared dead whose data survived intact catches up
        from its last durable LSN instead of being wiped. Transaction
        branches left open by the fencing (including in-doubt prepares
        whose decision it never received) are rolled back first: their
        effects are re-delivered by the log replay if they committed
        globally, and never were commits otherwise.
        """
        for txn in list(self.engine.transactions.values()):
            if not txn.finished:
                self.engine.abort(txn)
        self.fenced = False
        self.alive = True
        self.failed_at = None
        self._drop_inflight()

    def _drop_inflight(self, failure: Optional[str] = None) -> None:
        """Forget every in-flight table; with ``failure``, first
        interrupt what is running, in submission order, with a
        :class:`MachineFailedError` saying so."""
        if failure is not None:
            for proc in list(self._active):
                proc.interrupt(MachineFailedError(failure))
        self._active.clear()
        self._tails.clear()
        self._rpc_cache.clear()
        self._write_counts.clear()

    def committed_txn_ids(self) -> set:
        """Transactions whose COMMIT record is in this machine's WAL.

        The rejoin catch-up replays only log entries outside this set, so
        a commit the machine applied but never acked is not applied
        twice: the ack was lost right before the machine was declared, or
        the COMMIT was still waiting for its force (:meth:`_force_log`).
        Flushed or not makes no difference here — a fenced machine keeps
        its memory, and a commit is applied in memory when it is logged.
        """
        from repro.engine.wal import RecordType
        return {r.txn_id for r in self.engine.wal.all_records()
                if r.kind is RecordType.COMMIT}

    def _check_alive(self) -> None:
        if not self.alive:
            raise MachineFailedError(self.name)
        if self.fenced:
            raise MachineFailedError(f"{self.name} (fenced)")

    # -- op submission (FIFO per transaction) -----------------------------------

    def submit(self, txn_id: int, body: Generator, label: str = "") -> Process:
        """Queue ``body`` behind the transaction's earlier ops here."""
        prev = self._tails.get(txn_id)
        if prev is not None and prev.is_alive:
            body = self._chained(prev, body)
        proc = self.sim.process(body, name=f"{self.name}:{label or txn_id}")
        self._tails[txn_id] = proc
        self._active[proc] = None
        proc.add_callback(lambda _e: self._active.pop(proc, None))
        return proc

    def _chained(self, prev: Process, body: Generator) -> Generator:
        if prev.is_alive:   # it may have finished since submit()
            try:
                yield prev
            except Exception:
                pass  # ordering only; the earlier op's error was handled
        result = yield from body
        return result

    def submit_rpc(self, msg_id: int, txn_id: int,
                   body_factory: Callable[[], Generator],
                   label: str = "") -> Process:
        """Execute one at-most-once message; retransmissions deduplicate.

        The first request carrying ``msg_id`` submits a fresh body; a
        retransmission (same id) returns the original process — running
        or completed — so a retried statement is never applied twice.
        """
        cache = self._rpc_cache.get(txn_id)
        if cache is None:
            cache = self._rpc_cache[txn_id] = {}
        proc = cache.get(msg_id)
        if proc is None:
            proc = cache[msg_id] = self.submit(txn_id, body_factory(),
                                               label=label)
        return proc

    def forget_txn(self, txn_id: int) -> None:
        """The branch finished here: its op chain and write tally go; its
        tombstone and dedup entries wait for :meth:`close_below`, unless
        the watermark already passed (an orphan, a rejoin replay)."""
        self._tails.pop(txn_id, None)
        self._write_counts.pop(txn_id, None)
        if txn_id < self.closed_below:
            self.engine.transactions.pop(txn_id, None)
            self._rpc_cache.pop(txn_id, None)

    def close_below(self, low: int) -> None:
        """Hear the coordinator's watermark: no request of a transaction
        below ``low`` is in flight or will be sent (DESIGN §4q).

        The one place a closed transaction's state dies: its finished
        tombstone, its dedup entries, then the WAL prefix only such
        transactions have records in. Each id is visited once — O(1)
        per transaction. A branch still unfinished (its coordinator gave
        up on a machine that kept executing) is left to
        :meth:`forget_txn`. Monotone: an older ``low`` is a no-op.
        """
        transactions = self.engine.transactions
        for txn_id in range(self.closed_below, low):
            txn = transactions.get(txn_id)
            if txn is not None:
                if not txn.finished:
                    continue
                del transactions[txn_id]
            self._rpc_cache.pop(txn_id, None)
            self._tails.pop(txn_id, None)
            self._write_counts.pop(txn_id, None)
        if low > self.closed_below:
            self.closed_below = low
            self.engine.checkpoint()

    def run_copy(self, body: Generator, label: str = "") -> Process:
        """Run a copy-tool step (dump/load) bound to this machine.

        The process is tracked like transactional work, so ``fail()``
        interrupts an in-flight dump or load instead of letting it keep
        streaming data off a powered-down machine.
        """
        proc = self.sim.process(body, name=f"{self.name}:{label}")
        self._active[proc] = None
        proc.add_callback(lambda _e: self._active.pop(proc, None))
        return proc

    # -- engine operations ----------------------------------------------------------

    def _engine_txn(self, txn_id: int) -> Transaction:
        """The local branch of a global transaction, started on demand.

        A *finished* branch means an earlier statement of this
        transaction deadlocked or timed out here and rolled the branch
        back (the InnoDB rule: a deadlock rolls back the whole
        transaction, not just the statement). Any later operation for the
        same transaction must fail rather than silently open a fresh
        branch — that is what keeps a diverged replica from preparing.
        So must one for an id below the watermark with no entry left.
        """
        txn = self.engine.transactions.get(txn_id)
        if txn is None and txn_id >= self.closed_below:
            return self.engine.begin(txn_id)
        if txn is None or txn.finished:
            raise DeadlockError(
                f"txn {txn_id} was already rolled back on {self.name}")
        return txn

    def statement_body(self, txn_id: int, db: str, sql: str,
                       params: Sequence[Any],
                       lock_timeout: float) -> Generator:
        """Execute one statement; the generator is a sim process body.

        A deadlock or lock-wait timeout rolls back the transaction's
        local branch immediately (releasing its locks and cancelling its
        queued request) before the error propagates to the controller.
        """
        self._check_alive()
        txn = self._engine_txn(txn_id)
        gen = self.engine.execute(txn, db, sql, params)
        try:
            while True:
                try:
                    request = next(gen)
                except StopIteration as stop:
                    result: ExecResult = stop.value
                    break
                if request.granted:
                    continue  # granted before we could subscribe
                granted = self.sim.event()

                def on_grant(req, ev=granted):
                    if not ev.triggered:
                        ev.succeed(req)

                def on_fail(req, ev=granted):
                    if not ev.triggered:
                        ev.fail(req.error or RuntimeError("lock failed"))

                request.on_grant.append(on_grant)
                request.on_fail.append(on_fail)
                timeout = self.sim.timeout(lock_timeout)
                yield self.sim.any_of([granted, timeout])
                if not granted.triggered:
                    # Lock wait timed out: distributed-deadlock safety valve.
                    gen.close()
                    raise LockTimeoutError(
                        f"txn {txn_id} timed out after {lock_timeout}s "
                        f"waiting for {request.resource} on {self.name}"
                    )
                if not granted.ok:
                    gen.close()
                    raise granted.value
                if txn.finished:
                    # The controller rolled the branch back while we were
                    # waiting and the grant raced the abort: stop before
                    # the statement mutates anything under a dead branch.
                    gen.close()
                    raise DeadlockError(
                        f"txn {txn_id} rolled back on {self.name} during "
                        f"a lock wait")
            yield from self._charge(result)
        except Interrupt as exc:
            gen.close()
            raise MachineFailedError(self.name) from exc
        except (DeadlockError, LockTimeoutError):
            # Roll back the local branch right away: releases its locks
            # (waking waiters) and cancels any queued lock request, so a
            # later PREPARE here fails instead of committing a branch
            # that is missing this statement.
            if self.alive and not txn.finished:
                self.engine.abort(txn)
            raise
        self._check_alive()
        return result

    def write_body(self, txn_id: int, db: str, sql: str,
                   params: Sequence[Any], lock_timeout: float) -> Generator:
        """:meth:`statement_body` for a write the coordinator fanned out:
        one that completes joins the executed-write tally PREPARE checks
        against the coordinator's sent count."""
        result = yield from self.statement_body(txn_id, db, sql, params,
                                                lock_timeout)
        self._write_counts[txn_id] = self._write_counts.get(txn_id, 0) + 1
        return result

    def _charge(self, result: ExecResult) -> Generator:
        """Hold CPU/disk for the simulated duration of a statement."""
        cfg = self.config.engine
        cost = result.cost
        cpu_s = (cfg.cpu_cost_per_statement_us
                 + cost.rows_scanned * cfg.cpu_cost_per_row_us
                 + cost.cache_hits * cfg.page_hit_us) / 1e6
        yield from self.cpu.use(cpu_s)
        if cost.cache_misses:
            disk_s = cost.cache_misses * cfg.page_miss_ms / 1e3
            yield from self.disk.use(disk_s)

    def prepare_body(self, txn_id: int, expected_writes: int) -> Generator:
        self._check_alive()
        txn = self.engine.transactions.get(txn_id)
        if txn is None or txn.finished:
            # The branch was rolled back (deadlock/timeout) or never
            # started here; the coordinator must abort the transaction.
            raise TransactionError(
                f"cannot prepare txn {txn_id} on {self.name}: "
                f"branch is not active")
        executed = self._write_counts.get(txn_id, 0)
        if executed != expected_writes:
            # A write sent to this replica never completed here (its
            # message was lost in the fabric and never retransmitted
            # successfully): the branch is missing statements and must
            # not be committed anywhere.
            raise TransactionError(
                f"cannot prepare txn {txn_id} on {self.name}: "
                f"executed {executed} of {expected_writes} writes")
        lsn = self.engine.log_prepare(txn)
        try:
            yield from self._force_log(lsn)
        except Interrupt as exc:
            # Died mid-flush: surface the machine failure, not the raw
            # interrupt, so the coordinator's 2PC handling sees it.
            raise MachineFailedError(self.name) from exc
        self._check_alive()
        return True

    def commit_body(self, txn_id: int) -> Generator:
        self._check_alive()
        txn = self.engine.transactions.get(txn_id)
        if txn is None or txn.finished:
            return True
        lsn = self.engine.log_commit(txn)
        if txn.wrote:
            # A branch that only read has nothing to make durable.
            try:
                yield from self._force_log(lsn)
            except Interrupt as exc:
                # Died mid-flush: the coordinator must keep delivering
                # the decided COMMIT to the surviving participants, so
                # this must arrive as the MachineFailedError its phase-2
                # loop skips.
                raise MachineFailedError(self.name) from exc
        self.forget_txn(txn_id)
        return True

    def _force_log(self, lsn: int) -> Generator:
        """Return once a log flush that covers ``lsn`` has finished.

        Group commit without a window. With no flush in progress the
        caller leads one: it queues for the disk like any other I/O,
        flushes the WAL the instant the disk is granted — covering every
        record appended by then, its followers' included — and holds the
        disk for ``log_flush_ms``. Anyone arriving meanwhile waits for
        that flush, and leads or joins the next if it was granted the
        disk before their record was appended. A lone committer is always
        a leader, so it pays one disk request and one hold.
        """
        while self._flush is not None:
            flush = self._flush
            if flush.done is None:
                flush.done = self.sim.event()
            yield flush.done
            if flush.covered >= lsn:
                return
        flush = self._flush = _LogFlush()
        request = self.disk.request()
        try:
            yield request
            wal = self.engine.wal
            wal.flush()
            covered = wal.flushed_lsn
            yield self.sim.timeout(self.config.engine.log_flush_ms / 1e3)
            flush.covered = covered
        finally:
            # Also the way out of fail()/fence(): the disk is freed and
            # the followers, interrupted like the leader, are let go of a
            # flush that covered nothing.
            self.disk.release(request)
            self._flush = None
            if flush.done is not None:
                flush.done.succeed()

    def abort_body(self, txn_id: int) -> Generator:
        self.abort_local(txn_id)
        return True
        yield  # pragma: no cover - generator marker

    def abort_local(self, txn_id: int) -> None:
        """Immediate, non-simulated abort (controller cleanup path)."""
        if not self.alive:
            return
        txn = self.engine.transactions.get(txn_id)
        if txn is not None and not txn.finished:
            self.engine.abort(txn)
        self.forget_txn(txn_id)

    # -- copy tool (recovery) -----------------------------------------------------

    def dump_table_body(self, db: str, table: str,
                        on_snapshot=None) -> Generator:
        """Run the copy tool for one table, charging disk read time.

        ``on_snapshot`` (if given) is called synchronously at the
        snapshot instant — the dump's S locks were just granted and the
        rows copied, but the I/O charge has not started — so the caller
        can pin the replication log's LSN that the snapshot reflects.
        """
        self._check_alive()
        gen = dump_table(self.engine, db, table)
        dump = yield from self._drive_dump(gen)
        if on_snapshot is not None:
            on_snapshot(dump)
        yield from self._charge_copy_io(dump.bytes_estimate)
        return dump

    def dump_database_body(self, db: str, on_snapshot=None) -> Generator:
        """Dump every table of ``db``; see :meth:`dump_table_body` for
        the ``on_snapshot`` snapshot-instant callback."""
        self._check_alive()
        gen = dump_database(self.engine, db)
        dumps = yield from self._drive_dump(gen)
        if on_snapshot is not None:
            on_snapshot(dumps)
        yield from self._charge_copy_io(sum(d.bytes_estimate for d in dumps))
        return dumps

    def _drive_dump(self, gen: Generator) -> Generator:
        """Drive a dump generator; dump lock waits have no timeout."""
        try:
            while True:
                try:
                    request = next(gen)
                except StopIteration as stop:
                    return stop.value
                granted = self.sim.event()
                request.on_grant.append(
                    lambda req, ev=granted: ev.triggered or ev.succeed(req))
                request.on_fail.append(
                    lambda req, ev=granted: ev.triggered or ev.fail(
                        req.error or RuntimeError("lock failed")))
                yield granted
        except Interrupt as exc:
            gen.close()
            raise MachineFailedError(self.name) from exc

    def _charge_copy_io(self, nbytes: int) -> Generator:
        """Charge copy I/O in chunks so foreground work can interleave.

        A real dump streams the table; holding the disk resource for the
        whole copy would starve every co-tenant's reads, which is not how
        shared disks behave.
        """
        scaled = nbytes * self.config.copy_bytes_factor
        seconds = (scaled / (1024.0 * 1024.0)) / self.config.disk_bandwidth_mbps
        if seconds <= 0:
            return
        chunks = max(1, min(200, int(seconds / 0.05)))
        per_chunk = seconds / chunks
        for _ in range(chunks):
            yield from self.disk.use(per_chunk)

    def apply_log_body(self, db: str, entries) -> Generator:
        """Replay retained-log entries (delta catch-up apply stream).

        ``entries`` is ``[(lsn, (txn_id, [(sql, params), ...])), ...]``
        in LSN order. Each entry replays as one local transaction under
        its original transaction id, so the machine's WAL records it as
        committed and a repeated catch-up skips it. The machine is not
        in the replica map while this runs, so the replay never contends
        with foreground traffic.
        """
        self._check_alive()
        applied = 0
        try:
            for _lsn, (txn_id, writes) in entries:
                self._check_alive()
                txn = self.engine.begin(txn_id)
                try:
                    for sql, params in writes:
                        result = self.engine.execute_sync(txn, db, sql,
                                                          params)
                        yield from self._charge(result)
                    self.engine.commit(txn)
                except BaseException:
                    if not txn.finished:
                        self.engine.abort(txn)
                    raise
                finally:
                    self.forget_txn(txn_id)
                applied += 1
        except Interrupt as exc:
            raise MachineFailedError(self.name) from exc
        return applied

    def load_rows_body(self, db: str, table: str, rows) -> Generator:
        """Bulk-load copied rows on the destination machine."""
        self._check_alive()
        self.engine.load_table_rows(db, table, rows)
        nbytes = self.engine.database(db).table(table).estimated_bytes()
        yield from self._charge_copy_io(nbytes)
        self._check_alive()
        return True
