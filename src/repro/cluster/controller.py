"""The cluster controller (Sections 2, 3.1, 3.2).

The controller owns every client connection, the database→machine replica
map, and the two-phase-commit coordinator. Data flow for one statement:

* **read** — routed to one live replica according to the configured
  :class:`ReadOption`; retried on another replica if the machine fails
  mid-operation (connections survive machine failures).
* **write** — gated by Algorithm 1 when the database is being re-replicated
  (reject writes to the table currently being copied; include the copy
  target for tables already copied), then fanned out to every live
  replica. The configured :class:`WritePolicy` decides whether the client
  resumes after the first replica acknowledges (*aggressive*) or after all
  do (*conservative*).
* **commit** — read-only transactions just release locks; transactions
  with writes run 2PC across every machine that executed a write, with
  the decision mirrored to the process-pair backup before COMMIT messages
  go out.

Failure handling: a failed machine is removed from the replica map, every
in-flight operation on it errors, affected transactions continue on the
surviving replicas, and the recovery manager re-replicates the lost
databases in the background.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.analysis.history import GlobalHistory
from repro.analysis.metrics import MetricsCollector
from repro.analysis.trace import Tracer
from repro.cluster.admission import AdmissionController
from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Machine
from repro.cluster.membership import HeartbeatDetector
from repro.cluster.network import CONTROLLER, NetworkFabric
from repro.cluster.replica_map import ReplicaMap
from repro.cluster.routing import ReadOption, ReadRouter, WritePolicy
from repro.engine.schema import DatabaseSchema
from repro.engine.wal import RetainedTail
from repro.engine.sqlparse import nodes as n
from repro.engine.sqlparse.parser import parse
from repro.errors import (ControllerFailedError, DeadlockError,
                          LockTimeoutError, MachineFailedError,
                          NoReplicaError, OverloadRejectedError,
                          PlatformError, ProactiveRejectionError,
                          RPCTimeoutError, TransactionError)
from repro.sim import Event, Interrupt, Process, Simulator, Timeout


class TransactionAborted(PlatformError):
    """Raised to the client when its transaction had to be rolled back."""

    def __init__(self, reason: str, cause: Optional[BaseException] = None):
        super().__init__(reason)
        self.cause = cause


@dataclass
class BranchOutcome:
    """The settled result of one branch of a coordinator fan-out."""

    machine: str
    ok: bool
    value: Any                  # result when ok, exception otherwise
    latency: float              # issue-to-settle, in sim seconds

    @property
    def fatal(self) -> bool:
        """A failure the coordinator must abort on.

        A *dead* replica (plain :class:`MachineFailedError`) is skipped —
        survivors carry the write. Silence (:class:`RPCTimeoutError`,
        which subclasses it) is fatal for PREPARE: the participant may be
        alive with an un-prepared branch, so presumed-abort applies. Any
        other error (un-prepared branch, write-count gap, divergence) is
        fatal too.
        """
        if self.ok:
            return False
        if isinstance(self.value, RPCTimeoutError):
            return True
        return not isinstance(self.value, MachineFailedError)


@dataclass
class _Branch:
    """One in-flight branch of a fan-out (issue-time bookkeeping)."""

    machine: str
    proc: Event                 # the machine's process, or the _Rpc to it
    issued_at: float
    settled_at: Optional[float] = None


@dataclass
class _TxnState:
    """Controller-side state of one open transaction."""

    txn_id: int
    db: str
    started_at: float
    # Controller term (consensus mode) the transaction began under; a
    # transaction from an earlier term was cleaned up at take-over and
    # must not continue under the new leader.
    term: int = 0
    touched: Set[str] = field(default_factory=set)       # machines with locks
    write_participants: Set[str] = field(default_factory=set)
    wrote: bool = False
    poisoned: Optional[BaseException] = None             # deferred failure
    finished: bool = False
    # Write statements in issue order, for async cross-colo shipping.
    write_log: List[Tuple[str, Tuple[Any, ...]]] = field(default_factory=list)
    # Write statements *sent* per machine; PREPARE carries the count so a
    # replica whose branch missed a dropped write refuses to prepare.
    writes_sent: Dict[str, int] = field(default_factory=dict)


@dataclass
class CopyState:
    """Algorithm 1 bookkeeping for one database being re-replicated."""

    db: str
    target: str
    copying_table: Optional[str] = None
    copied_tables: Set[str] = field(default_factory=set)
    # Database-granularity copy: every table counts as "being copied".
    copying_all: bool = False
    # The machine being copied *from*; lets fail_machine abandon copies
    # whose source died, not just copies whose target died.
    source: Optional[str] = None


class Connection:
    """A client database connection, as handed out by ``connect()``.

    All methods return sim :class:`Process` objects; a client process
    ``yield``s them. The connection is a single session: one transaction
    open at a time, statements issued sequentially.
    """

    def __init__(self, controller: "ClusterController", db: str):
        self.controller = controller
        self.db = db
        self.txn: Optional[_TxnState] = None
        self.closed = False

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Process:
        """Run one SQL statement inside the connection's transaction."""
        return self.controller.sim.process(
            self.controller._execute(self, sql, tuple(params)),
            name=f"conn:{self.db}:exec")

    def commit(self) -> Process:
        return self.controller.sim.process(
            self.controller._commit(self), name=f"conn:{self.db}:commit")

    def rollback(self) -> Process:
        return self.controller.sim.process(
            self.controller._rollback(self), name=f"conn:{self.db}:rollback")

    def close(self) -> None:
        if self.txn is not None and not self.txn.finished:
            if self.controller.primary_alive:
                self.controller._abort_everywhere(self, self.txn)
            else:
                # With a dead primary there is nobody to send the
                # aborts; the backup's take-over presumed-aborts
                # undecided branches. Coordinator-side bookkeeping
                # (the read router's per-txn choice, the open-writer
                # gauge) must still be released here, or it leaks.
                self.controller._finish(self, self.txn)
        self.closed = True


class _Rpc(Event):
    """One logical RPC over the fabric, and the event its caller waits on.

    Post the request; on arrival ``machine.submit_rpc`` under a deadline
    armed only while the machine executes; when that process completes
    post the reply; settle with its value or error. Anything else is
    silence — a lost leg, a dead or fenced machine (the caller cannot
    tell them apart), an execution still running ``timeout`` after the
    send — which waits out that instant, then retransmits after a backoff
    under the same ``msg_id`` (the machine's dedup cache keeps the call
    at-most-once) or, ``retries`` spent, fails with RPCTimeoutError.
    """

    __slots__ = ("ctl", "machine", "make_body", "txn_id", "label", "timeout",
                 "retries", "msg_id", "attempt", "expires", "deadline", "proc")

    def __init__(self, ctl: "ClusterController", machine: Machine, make_body,
                 txn_id: int, label: str, timeout: Optional[float] = None,
                 retries: Optional[int] = None):
        Event.__init__(self, ctl.sim)
        net = ctl.config.network
        self.ctl = ctl
        self.machine = machine
        self.make_body = make_body
        self.txn_id = txn_id
        self.label = label
        self.timeout = net.rpc_timeout_s if timeout is None else timeout
        self.retries = net.rpc_max_retries if retries is None else retries
        self.msg_id = next(ctl._msg_ids)  # stable across retransmissions
        self.attempt = 0
        self.deadline: Optional[Timeout] = None  # set while executing
        self._send()

    def _send(self, _backoff=None) -> None:
        self.attempt += 1
        self.expires = self.sim.now + self.timeout
        self.ctl.fabric.post(CONTROLLER, self.machine.name, self._on_request)

    def _on_request(self, delivered: bool) -> None:
        machine = self.machine
        if not delivered or not machine.alive or machine.fenced:
            return self._silence()
        proc = self.proc = machine.submit_rpc(
            self.msg_id, self.txn_id, self.make_body, label=self.label)
        proc.defused = True
        if proc.triggered:
            return self._reply()  # a retransmission found the cached result
        self.deadline = self.sim.timeout(
            max(0.0, self.expires - self.sim.now))
        self.deadline.add_callback(self._timed_out)
        proc.add_callback(self._on_done)

    def _on_done(self, proc: Process) -> None:
        # A completion seen by an attempt that already timed out is not
        # an answer: the retransmission finds it in the machine's cache.
        if self.deadline is not None:
            self.deadline.cancel()
            self.deadline = None
            self._reply()

    def _reply(self) -> None:
        machine = self.machine
        if not machine.alive or machine.fenced:
            # Finished (or was interrupted) but can no longer answer.
            return self._silence()
        self.ctl.fabric.post(machine.name, CONTROLLER, self._on_reply)

    def _on_reply(self, delivered: bool) -> None:
        if not delivered:
            return self._silence()
        proc = self.proc
        if proc.ok:
            return self.succeed(proc.value)
        exc = proc.value
        if isinstance(exc, Interrupt):
            cause = exc.cause
            exc = (cause if isinstance(cause, BaseException)
                   else MachineFailedError(self.machine.name))
        self.fail(exc)

    def _silence(self) -> None:
        remaining = self.expires - self.sim.now
        if remaining > 0:
            self.sim.timeout(remaining).add_callback(self._timed_out)
        else:
            self._timed_out()

    def _timed_out(self, _timer=None) -> None:
        # Silence waited out, or the deadline itself: the machine is still
        # executing, and goes on doing so.
        self.deadline = None
        ctl = self.ctl
        if self.attempt > self.retries:
            ctl.metrics.record_rpc_timeout()
            self.fail(RPCTimeoutError(
                f"{self.label} to {self.machine.name} timed out "
                f"after {self.attempt} attempts"))
        else:
            ctl.metrics.record_rpc_timeout(retry=True)
            self.sim.timeout(ctl.fabric.backoff_delay(
                self.attempt)).add_callback(self._send)


class ClusterController:
    """Fault-tolerant coordinator of one machine cluster."""

    def __init__(self, sim: Simulator, config: Optional[ClusterConfig] = None,
                 name: str = "cluster"):
        self.sim = sim
        self.config = config or ClusterConfig()
        self.name = name
        self.machines: Dict[str, Machine] = {}
        self.replica_map = ReplicaMap()
        self.router = ReadRouter(self.config.read_option)
        self.metrics = MetricsCollector(
            resident_tenants=self.config.metrics_resident_tenants)
        self.fabric = NetworkFabric(
            sim, self.config.network, metrics=self.metrics,
            direct_latency_s=self.config.machine.network_latency_s)
        self.trace = Tracer(capacity=self.config.trace_capacity,
                            clock=lambda: self.sim.now)
        self.fabric.trace = self.trace
        self.trace.emit("trace_meta", cluster=name,
                        write_policy=self.config.write_policy.value,
                        read_option=self.config.read_option.value,
                        replication_factor=self.config.replication_factor)
        self.history: Optional[GlobalHistory] = (
            GlobalHistory() if self.config.record_history else None)
        self.copy_states: Dict[str, CopyState] = {}
        self.recovery = None          # attached by RecoveryManager
        self.backup = None            # attached by ProcessPair
        self.consensus = None         # attached by ConsensusControlPlane
        self._txn_ids = itertools.count(1)
        # Statement-classification cache, LRU-bounded by
        # config.stmt_cache_size (0 = unbounded).
        self._stmt_cache: "OrderedDict[str, Tuple[str, Optional[str]]]" = (
            OrderedDict())
        self.schemas: Dict[str, DatabaseSchema] = {}
        self.ddl: Dict[str, List[str]] = {}
        # db -> declared SLA (None for databases created without one).
        # Registered at create_database / set_sla; provisions the
        # admission layer's token bucket and the runtime SLA monitor.
        self.slas: Dict[str, Any] = {}
        # Per-tenant token-bucket admission (repro.cluster.admission).
        # None when admission_control is off: the statement path then
        # tests one attribute and takes the pre-admission course.
        self.admission: Optional[AdmissionController] = (
            AdmissionController(self.config.admission,
                                clock=lambda: self.sim.now,
                                sla_lookup=self.slas.get)
            if self.config.admission_control else None)
        # The log-structured replication stream: one LSN-addressed
        # retained tail of committed write statements per database, fed
        # at the 2PC decision point. Delta re-replication snapshots at a
        # pinned LSN and replays this tail on the target.
        self.db_logs: Dict[str, RetainedTail] = {}
        # db -> machine -> last contiguously applied LSN. A replica that
        # misses a commit (gap) is dropped from tracking — it can no
        # longer rejoin by delta catch-up.
        self.replica_lsns: Dict[str, Dict[str, int]] = {}
        # Holdings of declared-dead machines: name -> {db: last LSN}
        # captured at declaration, so a machine that comes back with its
        # data intact can catch up from its last durable LSN.
        self._stale_holdings: Dict[str, Dict[str, int]] = {}
        # Databases created with deferred engine DDL (lazy_engine_ddl):
        # no engine-side state exists until the first statement or bulk
        # load touches them (see ensure_materialised).
        self._cold_dbs: Set[str] = set()
        # Recency order of tenants whose delta logs hold resident
        # entries, for max_resident_tenant_logs paging (dict order =
        # LRU; values unused).
        self._log_lru: "OrderedDict[str, None]" = OrderedDict()
        # db -> ids of open transactions that have written to it; the
        # delta handoff drains until this empties. Tracked as a set (not
        # a count) so a take-over can resolve transactions whose
        # coordinator died with the old controller — a phantom count
        # would pin the drain gauge forever.
        self._open_writers: Dict[str, Set[int]] = {}
        # Called with (db, txn_id, write_log) at the decision point of
        # each writing transaction's 2PC (the commit is decided and
        # mirrored; it can no longer abort). The platform layer uses
        # this to ship writes asynchronously to the disaster-recovery
        # colo. Firing at the decision — before any COMMIT reaches a
        # machine — means a snapshot taken under the dump tool's S locks
        # (which an applying commit's X locks exclude) observes a commit
        # if and only if its hook has fired, so a log attached at the
        # snapshot instant sequences exactly the post-snapshot suffix.
        self.commit_hooks: List = []
        # Called with (db,) after each successful statement; the platform
        # layer uses this to measure RTO (first statement served by a
        # promoted standby colo). Hooks may remove themselves.
        self.statement_hooks: List = []
        # Called with no arguments when recovery cannot find a target
        # machine; should return a fresh Machine (from the colo free
        # pool) or None.
        self.free_machine_hook = None
        # Called with (machine_name,) whenever a machine leaves service
        # with its data (failed, declared dead) or rejoins blank; the
        # colo releases its placement bin.
        self.machine_reset_hook = None
        # Called with (machine_name,) when a declared machine rejoins
        # *with its data* after delta catch-up; the colo re-counts its
        # hosted databases against its placement bin.
        self.machine_rejoin_hook = None
        self.declared_dead: Set[str] = set()
        self.fenced: Set[str] = set()
        # Heartbeats over CONTROLLER -> machine links; this class keeps
        # only the reactions (declare_dead / _readmit).
        self.detector = HeartbeatDetector(
            sim, self.fabric, CONTROLLER, self.machines,
            self.declared_dead, self.config,
            name=f"{name}:detector", probe_prefix="hb",
            on_suspect=self._on_suspect, on_unsuspect=self._on_unsuspect,
            on_declare=self.declare_dead, on_return=self._readmit,
            declare_allowed=self._declare_allowed,
            active=lambda: self.primary_alive)
        # False until the primary controller is "crashed" by a fault
        # injector; the process-pair backup then takes over and this flag
        # fences the old primary (no decision/COMMIT may leave it).
        self.primary_alive = True
        self._msg_ids = itertools.count(1)
        if self.config.consensus_enabled:
            # Imported lazily: consensus is optional and config already
            # imports its ConsensusConfig.
            from repro.cluster.consensus import ConsensusControlPlane
            ConsensusControlPlane(self, self.config.consensus).start()

    # -- cluster membership ----------------------------------------------------

    def add_machine(self, name: Optional[str] = None) -> Machine:
        name = name or f"{self.name}-m{len(self.machines) + 1}"
        if name in self.machines:
            raise ValueError(f"machine {name!r} already in cluster")
        site_history = self.history.site(name) if self.history else None
        machine = Machine(self.sim, name, self.config.machine,
                          history=site_history)
        self.machines[name] = machine
        return machine

    def add_machines(self, count: int) -> List[Machine]:
        return [self.add_machine() for _ in range(count)]

    def live_machines(self) -> List[Machine]:
        return [m for m in self.machines.values()
                if m.alive and not m.fenced]

    def live_replicas(self, db: str) -> List[str]:
        return [name for name in self.replica_map.replicas(db)
                if name in self.machines and self.machines[name].alive
                and not self.machines[name].fenced]

    # -- database lifecycle -------------------------------------------------------

    def create_database(self, db: str, ddl: Sequence[str],
                        machines: Optional[Sequence[str]] = None,
                        replicas: Optional[int] = None,
                        sla=None) -> None:
        """Create a database on ``replicas`` machines and run its DDL.

        Setup-phase API: executes instantly (no simulated time), as does
        :meth:`bulk_load`. Placement defaults to the least-loaded live
        machines; the SLA-driven path in :mod:`repro.platform` chooses
        machines explicitly. ``sla`` (a :class:`repro.sla.model.Sla`)
        registers the tenant's contract with the controller: it
        provisions the admission token bucket and anchors the runtime
        SLA monitor. Databases without one get the generous default
        admission rate.
        """
        if machines is None:
            count = replicas or self.config.replication_factor
            # Spread primaries (the first replica serves all Option-1
            # reads) as well as total replica counts, so read load is
            # balanced across the cluster under every read option. The
            # replica map maintains both counts incrementally, so one
            # creation costs O(live machines) — not a rescan of every
            # hosted database (O(N) per create, O(N²) for N creates).
            live = self.live_machines()
            if len(live) < count:
                raise NoReplicaError(
                    f"need {count} machines, have {len(live)}")
            rm = self.replica_map
            primary = min(live, key=lambda m: (rm.primary_count(m.name),
                                               rm.hosted_count(m.name)))
            rest = sorted((m for m in live if m.name != primary.name),
                          key=lambda m: (rm.hosted_count(m.name),
                                         rm.primary_count(m.name)))
            machines = [primary.name] + [m.name for m in rest[:count - 1]]
        if self.config.lazy_engine_ddl:
            # Engine-side creation (catalog + DDL on every replica) is
            # deferred to the first touch; a cold tenant costs only its
            # replica-map entry and DDL text.
            self._cold_dbs.add(db)
        else:
            for name in machines:
                self.machines[name].engine.create_database_from_ddl(db, ddl)
            self.schemas[db] = (
                self.machines[machines[0]].engine.database(db).schema)
        self.replica_map.add_database(db, list(machines))
        self.ddl[db] = list(ddl)
        if not self.config.lazy_tenant_state:
            # Eager reference path: per-tenant log and LSN tracking
            # exist from creation. The lazy default materialises both
            # on first touch in states constructed to be identical
            # (see database_log / _replica_lsns_for).
            self.db_logs[db] = RetainedTail(
                retain=self.config.replication_log_retain)
            self.replica_lsns[db] = {name: 0 for name in machines}
        self.set_sla(db, sla)
        self._propose_meta("db_create", db=db, machines=list(machines))

    def set_sla(self, db: str, sla) -> None:
        """Register (or replace) ``db``'s SLA and provision admission.

        Callable after creation too — the platform tier profiles a
        tenant before settling its SLA, and tests tighten buckets
        mid-run. Tenants without an SLA hold no registry entry (every
        reader treats a missing entry exactly like a stored ``None``,
        and a 100k-tenant cluster of mostly SLA-less databases should
        not pay a registry row each).
        """
        if sla is None:
            self.slas.pop(db, None)
        else:
            self.slas[db] = sla
        if self.admission is not None:
            if self.config.lazy_tenant_state:
                # Drop any resident bucket; the next transaction
                # re-provisions from the registry via sla_lookup. A
                # fresh bucket starts full, which is exactly the state
                # an eager (re)provision would have left it in.
                self.admission.invalidate(db)
            else:
                self.admission.provision(db, sla)

    def bulk_load(self, db: str, table: str, rows: Sequence[Sequence[Any]]) -> None:
        """Load identical rows into every replica (setup phase)."""
        self.ensure_materialised(db)
        for name in self.replica_map.replicas_view(db):
            self.machines[name].engine.load_table_rows(db, table,
                                                       [tuple(r) for r in rows])

    def drop_database(self, db: str) -> None:
        """Remove a database from the cluster entirely (deregistration).

        Drops the data off every live replica, forgets the mapping and
        schema, and discards in-flight copy state. A no-op for unknown
        databases so teardown paths can call it unconditionally.
        """
        if not self.replica_map.has(db):
            return
        if db not in self._cold_dbs:
            for name in self.replica_map.replicas(db):
                machine = self.machines.get(name)
                if (machine is not None and machine.alive
                        and not machine.fenced and machine.engine.hosts(db)):
                    machine.engine.drop_database(db)
        self.replica_map.drop_database(db)
        self._cold_dbs.discard(db)
        self._log_lru.pop(db, None)
        self.schemas.pop(db, None)
        self.ddl.pop(db, None)
        self.copy_states.pop(db, None)
        self.db_logs.pop(db, None)
        self.replica_lsns.pop(db, None)
        self._open_writers.pop(db, None)
        self.slas.pop(db, None)
        if self.admission is not None:
            self.admission.forget(db)
        self._propose_meta("db_drop", db=db)

    def reset_as_blank(self) -> None:
        """Wipe the whole cluster back to blank spares (colo failback).

        Every machine re-enters with a fresh empty engine, the replica
        map and schema registry are emptied, detector state is cleared,
        and the controller is un-crashed — the cluster rejoins service
        hosting nothing, like a machine readmitted as a spare but at
        colo scale.
        """
        for name, machine in self.machines.items():
            machine.readmit_as_spare()
            if self.machine_reset_hook is not None:
                self.machine_reset_hook(name)
        self.replica_map = ReplicaMap()
        self.schemas.clear()
        self.ddl.clear()
        self.slas.clear()
        if self.admission is not None:
            self.admission.buckets.clear()
            self.admission.rates.clear()
        self.copy_states.clear()
        self.db_logs.clear()
        self.replica_lsns.clear()
        self._cold_dbs.clear()
        self._log_lru.clear()
        self._stale_holdings.clear()
        self._open_writers.clear()
        self.detector.reset()
        self.declared_dead.clear()
        self.fenced.clear()
        self.primary_alive = True
        self.trace.emit("cluster_reset")

    # -- the per-database replication log ------------------------------------------------

    def database_log(self, db: str) -> RetainedTail:
        """The LSN-addressed commit log of ``db``, materialised on first
        touch (the lazy default defers it past creation; a fresh tail
        is exactly the state an eagerly-created one would be in before
        its first append)."""
        log = self.db_logs.get(db)
        if log is None:
            log = RetainedTail(retain=self.config.replication_log_retain)
            self.db_logs[db] = log
        return log

    def _replica_lsns_for(self, db: str) -> Dict[str, int]:
        """``db``'s per-replica applied-LSN map, materialised on first
        touch as every *current* replica at LSN 0 — identical to the
        eagerly-created map, because LSN entries only ever change at
        commits (which come through here first) and replica-set changes
        (which delete or re-add entries on both paths alike)."""
        lsns = self.replica_lsns.get(db)
        if lsns is None:
            lsns = self.replica_lsns[db] = {
                name: 0 for name in self.replica_map.replicas_view(db)}
        return lsns

    def ensure_materialised(self, db: str) -> None:
        """Run ``db``'s deferred engine-side creation (lazy_engine_ddl).

        A cold database exists only in the replica map and the DDL
        registry; the first statement, bulk load, or copy touching it
        creates the catalog entry and runs the DDL on every replica.
        """
        if db not in self._cold_dbs:
            return
        self._cold_dbs.discard(db)
        ddl = self.ddl.get(db, [])
        replicas = self.replica_map.replicas_view(db)
        for name in replicas:
            machine = self.machines.get(name)
            if machine is None or not machine.alive or machine.fenced:
                continue
            if not machine.engine.hosts(db):
                machine.engine.create_database_from_ddl(db, ddl)
        if replicas and db not in self.schemas:
            first = self.machines.get(replicas[0])
            if first is not None and first.engine.hosts(db):
                self.schemas[db] = first.engine.database(db).schema
        self.trace.emit("db_materialised", db=db)

    def _page_cold_logs(self, db: str) -> None:
        """LRU bookkeeping for resident tenant logs: ``db`` just
        appended; past ``max_resident_tenant_logs`` the coldest
        tenant's log is compacted in place (entries dropped, LSN
        position kept — ``covers()`` then reports the truth, namely
        that a delta catch-up must fall back to a full copy, exactly
        as after ordinary retention truncation)."""
        lru = self._log_lru
        if db in lru:
            lru.move_to_end(db)
        else:
            lru[db] = None
        cap = self.config.max_resident_tenant_logs
        while len(lru) > cap:
            cold_db, _ = lru.popitem(last=False)
            log = self.db_logs.get(cold_db)
            if log is not None:
                dropped = log.compact()
                if dropped:
                    self.trace.emit("log_paged_out", db=cold_db,
                                    dropped=dropped)

    def open_writers(self, db: str) -> int:
        """Open transactions that have written to ``db`` (drain gauge)."""
        return len(self._open_writers.get(db, ()))

    def resolve_stale_writers(self, txn_ids: Iterable[int]) -> None:
        """Drop take-over-resolved transactions from the drain gauge.

        A coordinator that dies with the old controller never reaches
        ``_finish``, so its transaction would count as an open writer
        forever and wedge any later delta-handoff drain on that
        database. The take-over settles every such transaction
        (committing decided ones, presuming the rest aborted), after
        which none of them can append new log entries — remove them
        from the gauge.
        """
        drop = set(txn_ids)
        for db in list(self._open_writers):
            writers = self._open_writers[db]
            writers.difference_update(drop)
            if not writers:
                del self._open_writers[db]

    def _sequence_commit(self, txn: _TxnState) -> Optional[int]:
        """Assign the decided commit its per-database LSN and fire the
        commit hooks. Runs at the decision point: the commit is mirrored
        and irrevocable, but no COMMIT message has left yet — so any
        machine-side apply of this transaction happens after its LSN
        exists, and a dump snapshot (which its X locks exclude until the
        apply finishes) can never contain a commit the log missed."""
        if not txn.write_log:
            return None
        # First write commit = the tenant's first touch: materialise
        # its LSN tracking before the log grows, so the map captures
        # the replica set exactly as an eager creation would have.
        self._replica_lsns_for(txn.db)
        lsn = self.database_log(txn.db).append(
            (txn.txn_id, list(txn.write_log)))
        if self.config.max_resident_tenant_logs > 0:
            self._page_cold_logs(txn.db)
        for hook in self.commit_hooks:
            hook(txn.db, txn.txn_id, list(txn.write_log))
        return lsn

    def _advance_replica_lsn(self, db: str, machine: str, lsn: int) -> None:
        """Record that ``machine`` applied the commit at ``lsn``.

        Only contiguous progress counts: a gap means the replica missed
        a commit (it died or timed out around it), so its durable prefix
        can no longer be extended by replay — it is dropped from
        tracking and a later rejoin falls back to the blank-spare path.
        """
        lsns = self.replica_lsns.get(db)
        if lsns is None or machine not in lsns:
            return
        if lsn == lsns[machine] + 1:
            lsns[machine] = lsn
        elif lsn > lsns[machine] + 1:
            del lsns[machine]

    def note_replica_caught_up(self, db: str, machine: str,
                               lsn: int) -> None:
        """A recovery handoff left ``machine`` consistent through
        ``lsn``; start tracking its contiguous progress from there."""
        self._replica_lsns_for(db)[machine] = lsn
        self._propose_meta("replica_add", db=db, machine=machine)

    def delta_replay_and_handoff(self, db: str, target: Machine,
                                 from_lsn: int, state: CopyState,
                                 skip_txns: Optional[Set[int]] = None
                                 ) -> Generator:
        """Replay the retained log onto ``target``, then drain to handoff.

        Live phase: batches of retained entries after ``from_lsn``
        replay on the target while writes keep flowing to the serving
        replicas (``state`` stays passive, so Algorithm 1 rejects
        nothing). Once a replay pass finds the log head stable — or
        after ``delta_max_replay_rounds`` passes under sustained load —
        the drain begins: ``state.copying_all`` flips, new writes are
        rejected, and the loop replays stragglers until the head stops
        moving and no open transaction has unfinished writes to ``db``.
        Returns ``(applied_lsn, reject_seconds, replayed_entries)``;
        the caller adds the replica and clears the copy state (no sim
        time passes after the drain completes).
        """
        log = self.database_log(db)
        applied = from_lsn
        replayed = 0
        rounds = 0
        drain_started = None
        while True:
            head = log.last_lsn
            entries = log.since(applied)
            todo = ([(l, p) for l, p in entries if p[0] not in skip_txns]
                    if skip_txns else entries)
            if todo:
                yield target.run_copy(target.apply_log_body(db, todo),
                                      label=f"delta-apply:{db}")
                replayed += len(todo)
            applied = head
            if drain_started is None:
                rounds += 1
                if not entries or rounds >= self.config.delta_max_replay_rounds:
                    drain_started = self.sim.now
                    state.copying_all = True
                    self.trace.emit("delta_drain_start", db=db,
                                    machine=target.name, lsn=applied)
                continue
            if log.last_lsn == applied and self.open_writers(db) == 0:
                break
            # In-flight writers may still commit (rejection stops only
            # *new* writes); let their 2PC land, then replay the stragglers.
            yield self.sim.timeout(0.005)
        reject_s = self.sim.now - drain_started
        self.trace.emit("delta_handoff", db=db, machine=target.name,
                        lsn=applied, reject_s=reject_s, replayed=replayed)
        return applied, reject_s, replayed

    def connect(self, db: str) -> Connection:
        if self.consensus is not None:
            # A non-leader controller replica redirects the client.
            self.consensus.check_leader()
        self.replica_map.replicas_view(db)  # raises if unknown; no copy
        return Connection(self, db)

    # -- statement classification ----------------------------------------------------

    def _classify(self, sql: str) -> Tuple[str, Optional[str]]:
        """("read"|"write", target table for writes). LRU-cached."""
        entry = self._stmt_cache.get(sql)
        if entry is not None:
            self._stmt_cache.move_to_end(sql)
            return entry
        stmt = parse(sql)
        if isinstance(stmt, n.Select):
            if stmt.for_update:
                # A locking read must hold its X locks on every
                # replica (ROWA treats it as a write); it modifies
                # nothing, so Algorithm 1 never needs to reject it
                # (table=None).
                entry = ("write", None)
            else:
                entry = ("read", None)
        elif isinstance(stmt, (n.Insert, n.Update, n.Delete)):
            entry = ("write", stmt.table)
        else:
            entry = ("write", None)  # DDL: treat as write
        self._stmt_cache[sql] = entry
        limit = self.config.stmt_cache_size
        while limit > 0 and len(self._stmt_cache) > limit:
            self._stmt_cache.popitem(last=False)
            self.metrics.record_stmt_cache_eviction()
        return entry

    # -- transaction plumbing -----------------------------------------------------------

    def _ensure_txn(self, conn: Connection) -> _TxnState:
        if conn.txn is None or conn.txn.finished:
            conn.txn = _TxnState(next(self._txn_ids), conn.db, self.sim.now)
            if self.consensus is not None:
                conn.txn.term = self.consensus.term
            self.trace.emit("txn_begin", db=conn.db, txn=conn.txn.txn_id)
        return conn.txn

    def _finish(self, conn: Connection, txn: _TxnState) -> None:
        if txn.finished:
            return
        txn.finished = True
        if txn.wrote:
            writers = self._open_writers.get(txn.db)
            if writers is not None:
                writers.discard(txn.txn_id)
                if not writers:
                    self._open_writers.pop(txn.db, None)
        self.router.forget(txn.txn_id)
        conn.txn = None

    def _abort_everywhere(self, conn: Connection, txn: _TxnState,
                          kind: str = "abort",
                          reason: str = "connection closed") -> None:
        """Roll the transaction back on every touched machine.

        Direct path: immediate local aborts (pre-fabric behaviour). With
        the fabric enabled, ABORT is a fire-and-collect fan-out: all
        branches leave at once, each retries in the background,
        idempotent, and lost to dead or fenced machines (whose state
        dies with them anyway).
        """
        if self.fabric.enabled:
            self._fanout_fire(self._live_targets(sorted(txn.touched)),
                              lambda m: m.abort_body(txn.txn_id),
                              txn_id=txn.txn_id, label="abort")
        else:
            for name in txn.touched:
                machine = self.machines.get(name)
                if machine is not None:
                    machine.abort_local(txn.txn_id)
        self.trace.emit(kind, db=txn.db, txn=txn.txn_id, reason=reason)
        self._finish(conn, txn)

    def _spawn_redelivery(self, db: str, txn_id: int, name: str) -> Process:
        """Background COMMIT redelivery to an unreachable participant."""
        proc = self.sim.process(self._redeliver_commit(db, txn_id, name),
                                name=f"redeliver:{txn_id}:{name}")
        proc.defused = True
        return proc

    def _redeliver_commit(self, db: str, txn_id: int,
                          name: str) -> Generator:
        """Redrive a decided COMMIT until the participant acks, dies, is
        fenced, or this controller stops being primary (the take-over
        path redrives mirrored decisions itself)."""
        net = self.config.network
        for round_no in range(1, 33):
            yield self.sim.timeout(min(net.rpc_backoff_max_s * round_no,
                                       30.0))
            machine = self.machines.get(name)
            if (machine is None or not machine.alive or machine.fenced
                    or not self.primary_alive):
                return
            try:
                yield _Rpc(self, machine, partial(machine.commit_body, txn_id),
                           txn_id, "commit-redeliver")
            except RPCTimeoutError:
                continue
            except Exception:
                return  # dead, fenced, or already resolved machine-side
            if name in self.fenced or name in self.declared_dead:
                return  # fenced mid-redelivery: its data is discarded
            self.trace.emit("commit_sent", db=db, txn=txn_id, machine=name,
                            redelivered=True)
            # The mirrored decision is left in place: another participant
            # of the same transaction may still owe an ack, and a stale
            # "commit" decision is harmless to redrive (idempotent).
            return

    def _record_failure(self, txn: _TxnState, exc: BaseException) -> None:
        if isinstance(exc, (DeadlockError, LockTimeoutError)):
            self.metrics.record_deadlock(txn.db, self.sim.now)
        elif isinstance(exc, OverloadRejectedError):
            # Counts as a proactive rejection (below) *and* separately
            # as an admission rejection, so the SLA monitor can tell a
            # tenant throttled for overloading from one collaterally
            # rejected by failures or copy windows.
            self.metrics.record_overload_rejection(txn.db, self.sim.now)
        elif isinstance(exc, (ProactiveRejectionError, MachineFailedError,
                              NoReplicaError)):
            self.metrics.record_rejection(txn.db, self.sim.now)
        else:
            self.metrics.record_other_abort(txn.db)

    # -- RPC layer (messages over the network fabric) ----------------------------------

    def _call(self, machine: Machine, make_body, *, txn_id: int, label: str,
              timeout: Optional[float] = None,
              retries: Optional[int] = None) -> Generator:
        """Run one logical RPC against ``machine``.

        With the fabric disabled (default) this is exactly the pre-fabric
        direct submit — no extra simulation events, identical
        interleavings. With it enabled it is one :class:`_Rpc`: a request
        and a response message per attempt plus a deadline, timed-out
        attempts retransmitted with exponential backoff.
        """
        if not self.fabric.enabled:
            result = yield machine.submit(txn_id, make_body(), label=label)
            return result
        result = yield _Rpc(self, machine, make_body, txn_id, label,
                            timeout, retries)
        return result

    # -- scatter/gather fan-out (the commit-path broadcast primitive) ------------------

    def _issue_branch(self, name: str,
                      make_body: Callable[[Machine], Generator], *,
                      txn_id: int, label: str,
                      retries: Optional[int] = None) -> _Branch:
        """Start one branch RPC without waiting on it."""
        machine = self.machines[name]
        if self.fabric.enabled:
            proc = _Rpc(self, machine, partial(make_body, machine), txn_id,
                        label, retries=retries)
        else:
            proc = machine.submit(txn_id, make_body(machine), label=label)
        # The coordinator observes every branch outcome itself (gathered
        # BranchOutcome, or the write wait policies); defuse so one early
        # branch failure cannot crash the kernel before it gets there.
        proc.defused = True
        return _Branch(name, proc, self.sim.now)

    def _branch_outcome(self, branch: _Branch) -> BranchOutcome:
        proc = branch.proc
        value = proc.value
        if not proc.ok and isinstance(value, Interrupt):
            # The branch body died without translating its interrupt
            # (e.g. torn down between ops): a machine failure.
            cause = value.cause
            value = (cause if isinstance(cause, BaseException)
                     else MachineFailedError(branch.machine))
        settled_at = (branch.settled_at if branch.settled_at is not None
                      else self.sim.now)
        return BranchOutcome(machine=branch.machine, ok=proc.ok, value=value,
                             latency=settled_at - branch.issued_at)

    def _await_branch(self, branch: _Branch) -> Event:
        """An event that succeeds (never fails) when the branch settles."""
        settled = self.sim.event()

        def on_settled(proc, b=branch, e=settled):
            b.settled_at = self.sim.now
            e.succeed(proc)

        branch.proc.add_callback(on_settled)
        return settled

    def _fanout(self, names: Sequence[str],
                make_body: Callable[[Machine], Generator], *,
                txn_id: int, label: str,
                retries: Optional[int] = None) -> Generator:
        """Broadcast one RPC to ``names`` and gather every branch outcome.

        All branches leave at once and the *complete* set of outcomes
        is awaited: one round trip per phase whatever the replication
        factor, and exactly what presumed-abort needs (a timed-out
        branch aborts even when another answered first). Outcomes are
        returned in issue order.
        """
        names = list(names)
        self.metrics.record_fanout(label, len(names))
        self.trace.emit("fanout_start", txn=txn_id, label=label,
                        width=len(names), machines=list(names))
        started = self.sim.now
        branches = [self._issue_branch(name, make_body, txn_id=txn_id,
                                       label=label, retries=retries)
                    for name in names]
        settled = [self._await_branch(branch) for branch in branches]
        if settled:
            yield self.sim.all_of(settled)
        outcomes = [self._branch_outcome(branch) for branch in branches]
        for outcome in outcomes:
            self.metrics.record_fanout(label, 0,
                                       branch_latency=outcome.latency)
        self.trace.emit("fanout_done", txn=txn_id, label=label,
                        width=len(outcomes), elapsed=self.sim.now - started)
        return outcomes

    def _fanout_fire(self, names: Sequence[str],
                     make_body: Callable[[Machine], Generator], *,
                     txn_id: int, label: str) -> List[_Branch]:
        """Fire-and-collect: issue every branch at once, wait on none.

        Used for messages whose outcome nobody needs synchronously
        (aborts, background redelivery kicks); each branch retries and
        settles on its own.
        """
        branches = [self._issue_branch(name, make_body, txn_id=txn_id,
                                       label=label)
                    for name in names]
        if branches:
            self.metrics.record_fanout(label, len(branches))
        return branches

    def _still_replica(self, db: str, name: str) -> bool:
        """Is ``name`` still in ``db``'s replica set? False once the
        failure detector declared it dead mid-operation (its in-flight
        branch outcomes are moot — survivors carry the transaction)."""
        return (self.replica_map.has(db)
                and name in self.replica_map.replicas_view(db))

    def _live_targets(self, names: Sequence[str]) -> List[str]:
        """Filter to machines that exist, are alive, and are not fenced."""
        targets = []
        for name in names:
            machine = self.machines.get(name)
            if machine is not None and machine.alive and not machine.fenced:
                targets.append(name)
        return targets

    # -- statement execution -----------------------------------------------------------

    def _execute(self, conn: Connection, sql: str,
                 params: Tuple[Any, ...]) -> Generator:
        if conn.closed:
            raise TransactionError("connection is closed")
        self._check_primary()
        if (self.consensus is not None and conn.txn is not None
                and not conn.txn.finished
                and conn.txn.term != self.consensus.term):
            self._orphan_txn(conn)
        starting = conn.txn is None or conn.txn.finished
        txn = self._ensure_txn(conn)
        if starting and self.admission is not None \
                and not self.admission.admit(conn.db):
            # The tenant's bucket is dry: turn the transaction away at
            # the door, before any statement can queue work (or hold
            # locks) on a machine. Statements of an already-admitted
            # transaction pass free — one token buys the whole
            # transaction, matching the SLA's per-transaction metric.
            exc = OverloadRejectedError(
                f"transaction rejected: {conn.db!r} is over its "
                "provisioned admission rate", database=conn.db)
            self.trace.emit("admission_reject", db=conn.db, txn=txn.txn_id,
                            rate=self.admission.provisioned_rate(conn.db))
            self._abort_everywhere(conn, txn, reason="OverloadRejectedError")
            self._record_failure(txn, exc)
            raise TransactionAborted(str(exc), cause=exc) from exc
        if txn.poisoned is not None:
            exc = txn.poisoned
            self._abort_everywhere(
                conn, txn, reason=f"deferred:{type(exc).__name__}")
            self._record_failure(txn, exc)
            raise TransactionAborted(
                f"transaction aborted: deferred write failure ({exc})",
                cause=exc)
        if self._cold_dbs:
            # Deferred engine DDL (lazy_engine_ddl): first admitted
            # statement pays the tenant's engine-side creation.
            self.ensure_materialised(conn.db)
        kind, table = self._classify(sql)
        try:
            if kind == "read":
                result = yield from self._execute_read(conn, txn, sql, params)
            else:
                result = yield from self._execute_write(conn, txn, sql,
                                                        params, table)
        except (DeadlockError, LockTimeoutError, ProactiveRejectionError,
                NoReplicaError, MachineFailedError) as exc:
            self._abort_everywhere(conn, txn, reason=type(exc).__name__)
            self._record_failure(txn, exc)
            raise TransactionAborted(str(exc), cause=exc) from exc
        for hook in list(self.statement_hooks):
            hook(conn.db)
        return result

    def _execute_read(self, conn: Connection, txn: _TxnState, sql: str,
                      params: Tuple[Any, ...]) -> Generator:
        attempts = 0
        excluded: Set[str] = set()  # replicas whose RPCs timed out
        while True:
            replicas = self.live_replicas(conn.db)
            candidates = [r for r in replicas if r not in excluded]
            if not candidates:
                if excluded:
                    raise NoReplicaError(
                        f"no reachable replica of {conn.db!r}")
                raise NoReplicaError(f"no live replica of {conn.db!r}")
            if (self.admission is not None
                    and self.config.admission.shed_reads
                    and self.config.write_policy
                    is WritePolicy.CONSERVATIVE):
                # Hot-replica read shedding: spill past-watermark reads
                # to the least-loaded replica. Gated to the conservative
                # write policy, under which every read option is
                # serializable (Theorem 2) — an aggressive controller
                # relies on option-1's fixed replica for Theorem 1, so
                # its reads are never spilled.
                loads = {name: self.machines[name].inflight
                         for name in candidates}
                choice, shed = self.router.choose_under_load(
                    txn.txn_id, candidates, loads,
                    self.config.admission.shed_inflight_watermark)
                if shed:
                    self.trace.emit("shed_read", db=conn.db,
                                    txn=txn.txn_id, machine=choice,
                                    load=loads[choice])
            else:
                choice = self.router.choose(txn.txn_id, candidates)
            machine = self.machines[choice]
            txn.touched.add(choice)
            try:
                result = yield from self._call(
                    machine,
                    lambda m=machine: m.statement_body(
                        txn.txn_id, conn.db, sql, params,
                        self.config.lock_wait_timeout_s),
                    txn_id=txn.txn_id, label=f"r:{sql[:24]}")
                return result
            except RPCTimeoutError:
                # Unreachable (maybe alive): don't route this read there
                # again, try another replica.
                excluded.add(choice)
                attempts += 1
                if attempts > len(self.machines):
                    raise
                continue
            except MachineFailedError:
                attempts += 1
                if attempts > len(self.machines):
                    raise
                # Retry the read on another live replica.
                continue

    def _write_targets(self, db: str, table: Optional[str]) -> List[str]:
        """Live targets for one write, applying Algorithm 1."""
        replicas = self.live_replicas(db)
        if not replicas:
            raise NoReplicaError(f"no live replica of {db!r}")
        state = self.copy_states.get(db)
        if state is None or table is None:
            return replicas
        if state.copying_all or table == state.copying_table:
            raise ProactiveRejectionError(
                f"write to {db}.{table} rejected: table is being copied",
                database=db, retryable=True)
        if table in state.copied_tables:
            target_machine = self.machines.get(state.target)
            if target_machine is not None and target_machine.alive:
                return replicas + [state.target]
        return replicas

    def _execute_write(self, conn: Connection, txn: _TxnState, sql: str,
                       params: Tuple[Any, ...],
                       table: Optional[str]) -> Generator:
        targets = self._write_targets(conn.db, table)
        writes: List[Tuple[str, Process]] = []
        for name in targets:
            # Over the fabric, executed writes are counted machine-side
            # so PREPARE can detect a branch that silently missed a
            # dropped write.
            branch = self._issue_branch(
                name,
                lambda m: m.statement_body(
                    txn.txn_id, conn.db, sql, params,
                    self.config.lock_wait_timeout_s,
                    count_write=self.fabric.enabled),
                txn_id=txn.txn_id, label=f"w:{sql[:24]}")
            writes.append((name, branch.proc))
            txn.touched.add(name)
            txn.write_participants.add(name)
            txn.writes_sent[name] = txn.writes_sent.get(name, 0) + 1
            self.trace.emit("write_issued", db=txn.db, txn=txn.txn_id,
                            machine=name)
        if not txn.wrote:
            txn.wrote = True
            self._open_writers.setdefault(txn.db, set()).add(txn.txn_id)
        txn.write_log.append((sql, params))
        if self.config.write_policy is WritePolicy.CONSERVATIVE:
            result = yield from self._await_all_writes(txn, writes)
        else:
            result = yield from self._await_first_write(txn, writes)
        return result

    def _write_settled(self, txn: _TxnState, name: str, proc: Process,
                       issued_at: float) -> None:
        """Trace one replica write outcome and its latency."""
        if not proc.triggered:
            return  # generator torn down mid-wait; nothing settled
        if proc.ok:
            self.trace.emit("write_acked", db=txn.db, txn=txn.txn_id,
                            machine=name)
            self.metrics.record_phase_latency("write",
                                              self.sim.now - issued_at)
        else:
            self.trace.emit("write_failed", db=txn.db, txn=txn.txn_id,
                            machine=name, error=type(proc.value).__name__)

    def _await_all_writes(self, txn: _TxnState,
                          writes: List[Tuple[str, Process]]) -> Generator:
        """Conservative policy: every replica must finish the write."""
        issued_at = self.sim.now
        result = None
        failure: Optional[BaseException] = None
        for name, proc in writes:
            try:
                result = yield proc
            except MachineFailedError:
                continue  # replica lost; survivors carry the write
            except (DeadlockError, LockTimeoutError) as exc:
                failure = exc
            except Exception:
                if not self._still_replica(txn.db, name):
                    # The machine was declared dead — and possibly wiped
                    # to a blank spare — while the write was in flight:
                    # its branch is moot, survivors carry the write,
                    # exactly as for a machine that visibly failed.
                    continue
                raise
            finally:
                self._write_settled(txn, name, proc, issued_at)
        if failure is not None:
            raise failure
        if result is None:
            raise NoReplicaError(f"all replicas of {txn.db!r} failed mid-write")
        return result

    def _await_first_write(self, txn: _TxnState,
                           writes: List[Tuple[str, Process]]) -> Generator:
        """Aggressive policy: return on the first acknowledgement.

        Remaining replicas are watched in the background; a failure there
        poisons the transaction so its next operation aborts (the paper's
        description of the aggressive controller).
        """
        issued_at = self.sim.now
        # Register exactly one settlement event per process, up front.
        # (AnyOf over the raw processes would fail fast and lose the
        # distinction between a dead replica and a real error; fresh
        # callbacks on every wait round would pile up on long writes.)
        pending: List[Tuple[str, Process, Event]] = []
        for name, proc in writes:
            settled = self.sim.event()
            proc.add_callback(lambda p, e=settled: e.succeed(p))
            pending.append((name, proc, settled))
        result = None
        while pending and result is None:
            yield self.sim.any_of([settled for _, _, settled in pending])
            still_pending = []
            failure: Optional[BaseException] = None
            for name, proc, settled in pending:
                if not proc.processed:
                    still_pending.append((name, proc, settled))
                    continue
                self._write_settled(txn, name, proc, issued_at)
                if proc.ok:
                    if result is None:
                        result = proc.value
                elif isinstance(proc.value, MachineFailedError):
                    continue
                elif not self._still_replica(txn.db, name):
                    # Declared dead (possibly wiped to a spare) while
                    # the write was in flight: the branch is moot.
                    continue
                else:
                    failure = proc.value
            if failure is not None and result is None:
                raise failure
            pending = still_pending
        if result is None:
            raise NoReplicaError(f"all replicas of {txn.db!r} failed mid-write")
        if pending:
            self.sim.process(
                self._watch_writes(txn, [(name, proc)
                                         for name, proc, _ in pending],
                                   issued_at),
                name=f"watch:{txn.txn_id}")
        return result

    def _watch_writes(self, txn: _TxnState,
                      pending: List[Tuple[str, Process]],
                      issued_at: float) -> Generator:
        for name, proc in pending:
            try:
                yield proc
            except MachineFailedError:
                continue
            except Exception as exc:  # deadlock, lock timeout, divergence
                if not txn.finished and txn.poisoned is None:
                    txn.poisoned = exc
                    self.trace.emit("poisoned", db=txn.db, txn=txn.txn_id,
                                    machine=name,
                                    error=type(exc).__name__)
            finally:
                self._write_settled(txn, name, proc, issued_at)

    # -- commit / rollback (the 2PC coordinator) ------------------------------------------

    def _commit(self, conn: Connection) -> Generator:
        if conn.txn is None or conn.txn.finished:
            return None  # nothing to do
        self._check_primary()
        if (self.consensus is not None
                and conn.txn.term != self.consensus.term):
            self._orphan_txn(conn)
        txn = conn.txn
        if txn.poisoned is not None:
            exc = txn.poisoned
            self._abort_everywhere(
                conn, txn, reason=f"deferred:{type(exc).__name__}")
            self._record_failure(txn, exc)
            raise TransactionAborted(
                f"commit refused: deferred write failure ({exc})", cause=exc)

        if not txn.wrote:
            # Read-only: release locks everywhere, no 2PC (paper: the
            # controller invokes 2PC only when the transaction wrote).
            # One broadcast: every release leaves at once.
            outcomes = yield from self._fanout(
                self._live_targets(sorted(txn.touched)),
                lambda m: m.commit_body(txn.txn_id),
                txn_id=txn.txn_id, label="commit-ro")
            for outcome in outcomes:
                if outcome.ok:
                    continue
                if isinstance(outcome.value, RPCTimeoutError):
                    # Unreachable but maybe alive, holding read locks:
                    # keep redelivering the release in the background
                    # (commit_body is idempotent).
                    self._spawn_redelivery(txn.db, txn.txn_id,
                                           outcome.machine)
                elif isinstance(outcome.value, MachineFailedError):
                    continue  # dead replica: its locks died with it
                else:
                    raise outcome.value
            self.metrics.record_commit(txn.db, self.sim.now,
                                       self.sim.now - txn.started_at)
            self.metrics.record_phase_latency(
                "txn", self.sim.now - txn.started_at)
            self.trace.emit("committed", db=txn.db, txn=txn.txn_id,
                            readonly=True)
            self._finish(conn, txn)
            return True

        # Phase 1: PREPARE on every write participant — one concurrent
        # broadcast. The commit/abort decision is taken from the
        # *complete* set of branch outcomes: a branch that timed out
        # (silence — maybe alive, un-prepared) aborts the transaction
        # even if every other branch prepared first. A branch on a
        # machine known dead is skipped; survivors carry the write.
        phase1_at = self.sim.now
        participants = self._live_targets(sorted(txn.write_participants))
        outcomes = yield from self._fanout(
            participants,
            lambda m: m.prepare_body(
                txn.txn_id,
                expected_writes=(txn.writes_sent.get(m.name)
                                 if self.fabric.enabled else None)),
            txn_id=txn.txn_id, label="prepare")
        prepared: List[str] = []
        failure: Optional[BaseException] = None
        for outcome in outcomes:
            if not self._still_replica(txn.db, outcome.machine):
                # The failure detector declared the machine dead (and
                # fenced it) while its PREPARE was in flight: whatever
                # came back — a vote or a refusal — is moot, exactly as
                # for a branch on a machine that visibly died. Its
                # replica is already off the map; survivors carry the
                # write.
                continue
            if outcome.ok:
                prepared.append(outcome.machine)
                self.trace.emit("prepare", db=txn.db, txn=txn.txn_id,
                                machine=outcome.machine)
            elif outcome.fatal:
                # Presumed abort: silence or a refused branch (rolled
                # back, missing a dropped write, diverged). Keep the
                # first fatal outcome; every branch was still collected.
                self.trace.emit("prepare_failed", db=txn.db, txn=txn.txn_id,
                                machine=outcome.machine,
                                error=type(outcome.value).__name__)
                if failure is None:
                    failure = outcome.value
            # else: replica died mid-prepare; survivors carry the write
        if failure is not None or not prepared:
            exc = failure or NoReplicaError(
                f"no surviving write participant for {txn.db!r}")
            self._abort_everywhere(
                conn, txn, reason=f"prepare:{type(exc).__name__}")
            self._record_failure(txn, exc)
            raise TransactionAborted(f"2PC prepare failed: {exc}", cause=exc)

        # Decision point: make the decision durable before any COMMIT
        # message leaves the controller. Consensus mode replicates it
        # through the Paxos log under the leader lease (no decision may
        # leave a controller whose lease lapsed — replicate_decision
        # re-checks the lease after the quorum round trip); otherwise it
        # is mirrored to the process-pair backup.
        self._check_primary()
        decision_machines = sorted(set(prepared) | txn.touched)
        if self.consensus is not None:
            try:
                yield from self.consensus.replicate_decision(
                    txn.db, txn.txn_id, "commit", decision_machines)
            except ControllerFailedError:
                # The lease lapsed (or leadership moved) mid-decision:
                # this controller must go silent. The machines keep
                # their PREPAREd branches; the new leader's take-over
                # resolves them from the replicated decision table.
                self._finish(conn, txn)
                raise
        elif self.backup is not None:
            self.backup.log_decision(txn.txn_id, "commit",
                                     decision_machines)
        decision_at = self.sim.now
        if self.consensus is not None:
            self.trace.emit("decision_logged", db=txn.db, txn=txn.txn_id,
                            decision="commit", mirrored=True,
                            participants=prepared,
                            actor=self.consensus.acting,
                            term=self.consensus.term)
        else:
            self.trace.emit("decision_logged", db=txn.db, txn=txn.txn_id,
                            decision="commit",
                            mirrored=self.backup is not None,
                            participants=prepared, actor="primary")
        self.metrics.record_phase_latency("prepare", decision_at - phase1_at)
        # Sequence the decided commit into the per-database replication
        # log (and fire the DR shipping hooks) before any COMMIT leaves.
        lsn = self._sequence_commit(txn)

        # Phase 2: COMMIT on all touched machines (read locks too) — one
        # concurrent broadcast. The decision is made and mirrored, so
        # every COMMIT leaves the (still-primary) controller at the same
        # instant; per-branch failures are resolved from the gathered
        # outcomes.
        commit_targets = self._live_targets(sorted(txn.touched))
        self._check_primary()
        for name in commit_targets:
            self.trace.emit("commit_sent", db=txn.db, txn=txn.txn_id,
                            machine=name)
        outcomes = yield from self._fanout(
            commit_targets,
            lambda m: m.commit_body(txn.txn_id),
            txn_id=txn.txn_id, label="commit",
            retries=self.config.network.commit_max_retries)
        redelivering = False
        for outcome in outcomes:
            if outcome.ok:
                if lsn is not None and outcome.machine in txn.write_participants:
                    self._advance_replica_lsn(txn.db, outcome.machine, lsn)
                continue
            if isinstance(outcome.value, RPCTimeoutError):
                # The decision is made and durable; an unreachable
                # participant just keeps receiving COMMIT until it acks,
                # dies, or is fenced (commit_body is idempotent).
                self._spawn_redelivery(txn.db, txn.txn_id, outcome.machine)
                redelivering = True
            elif isinstance(outcome.value, MachineFailedError):
                continue
            else:
                raise outcome.value
        if not redelivering:
            # Keep the durable decision while any participant still owes
            # an ack — a take-over must redrive COMMIT, not presume abort.
            if self.consensus is not None:
                self.consensus.clear_decision(txn.db, txn.txn_id)
                self.trace.emit("decision_cleared", db=txn.db,
                                txn=txn.txn_id)
            elif self.backup is not None:
                self.backup.clear_decision(txn.txn_id)
                self.trace.emit("decision_cleared", db=txn.db,
                                txn=txn.txn_id)
        self.metrics.record_commit(txn.db, self.sim.now,
                                   self.sim.now - txn.started_at)
        self.metrics.record_phase_latency("commit", self.sim.now - decision_at)
        self.metrics.record_phase_latency("txn", self.sim.now - txn.started_at)
        self.trace.emit("committed", db=txn.db, txn=txn.txn_id)
        self._finish(conn, txn)
        return True

    def _rollback(self, conn: Connection) -> Generator:
        if conn.txn is None or conn.txn.finished:
            return None
        txn = conn.txn
        # A voluntary client rollback is not a failure abort: count it
        # separately so abort metrics reflect platform behaviour only.
        self._abort_everywhere(conn, txn, kind="rollback",
                               reason="client rollback")
        self.metrics.record_rollback(txn.db)
        return True
        yield  # pragma: no cover - generator marker

    # -- machine failure handling (Section 3.2) ------------------------------------------

    def fail_machine(self, name: str) -> List[str]:
        """Fail a machine; returns the databases that lost a replica.

        In-flight operations error out; client connections stay usable.
        If a recovery manager is attached, re-replication of the affected
        databases starts in the background.
        """
        machine = self.machines.get(name)
        if machine is None:
            raise ValueError(f"unknown machine {name!r}")
        machine.fail()
        affected = self.replica_map.remove_machine(name)
        for db in affected:
            self.replica_lsns.get(db, {}).pop(name, None)
        self._stale_holdings.pop(name, None)
        self.trace.emit("machine_failed", machine=name,
                        affected=sorted(affected))
        self._propose_meta("machine_removed", machine=name,
                           affected=sorted(affected))
        self._abandon_copies(name)
        if self.machine_reset_hook is not None:
            self.machine_reset_hook(name)
        if self.recovery is not None:
            self.recovery.schedule_databases(affected)
        return affected

    def _abandon_copies(self, name: str) -> None:
        """Abandon in-flight copies that lost either endpoint: a dead
        target obviously ends the copy, and a dead *source* dooms it
        too — dropping the state immediately lifts Algorithm 1's write
        rejection window (the copy driver cleans the partial replica
        off a surviving target when its next operation fails)."""
        for db, state in list(self.copy_states.items()):
            if state.target == name or state.source == name:
                del self.copy_states[db]
                role = "target" if state.target == name else "source"
                self.trace.emit("copy_abandoned", db=db, machine=name,
                                role=role, target=state.target)

    def crash_machine(self, name: str) -> None:
        """Power a machine off *without* telling the controller.

        Unlike :meth:`fail_machine` (the oracle path used by older
        experiments) nothing is removed from the replica map and no
        recovery is scheduled here — only the heartbeat failure detector
        can notice the silence and drive the declare→fence→recover path.
        """
        machine = self.machines.get(name)
        if machine is None:
            raise ValueError(f"unknown machine {name!r}")
        machine.fail()
        self.trace.emit("machine_crashed", machine=name)

    def repair_machine(self, name: str) -> None:
        """Return a failed or fenced machine to the cluster as a blank
        spare: fresh empty engine, hosting nothing, eligible as a
        recovery target. Refuses if the replica map still routes to it.
        """
        machine = self.machines.get(name)
        if machine is None:
            raise ValueError(f"unknown machine {name!r}")
        hosted = self.replica_map.hosted_on(name)
        if hosted:
            raise ValueError(
                f"cannot repair {name!r}: still mapped for {sorted(hosted)}")
        machine.repair()
        self.declared_dead.discard(name)
        self.fenced.discard(name)
        self.detector.forget(name)
        self._stale_holdings.pop(name, None)
        if self.machine_reset_hook is not None:
            self.machine_reset_hook(name)
        self.trace.emit("machine_repaired", machine=name)
        self._propose_meta("machine_repaired", machine=name)

    # -- primary crash (process-pair, Section 2) -----------------------------------------

    def _check_primary(self) -> None:
        if not self.primary_alive:
            raise ControllerFailedError(
                f"controller {self.name} is no longer primary")
        if self.consensus is not None and not self.consensus.lease_valid():
            # The acting replica's leader lease lapsed (or it was never
            # elected): the lease is the fence, so it must not act.
            raise ControllerFailedError(
                f"controller {self.name}: leader lease is not valid")

    def _orphan_txn(self, conn: Connection) -> None:
        """Finish a transaction that began under an earlier controller
        term: the new leader's take-over already presumed-aborted (or
        takeover-committed) it on the machines, so its connection-side
        state is an orphan and must not drive further 2PC."""
        txn = conn.txn
        self.trace.emit("txn_orphaned", db=txn.db, txn=txn.txn_id,
                        term=txn.term, current_term=self.consensus.term)
        self.metrics.record_other_abort(txn.db)
        self._finish(conn, txn)
        raise TransactionAborted(
            "controller leadership changed; the transaction was cleaned "
            "up during take-over")

    def _propose_meta(self, kind: str, **payload) -> None:
        """Mirror one metadata mutation into the replicated controller
        log (consensus mode). Fire-and-forget: the data plane does not
        wait, and a command lost to a leader change is folded in by the
        next leader's reconcile snapshot."""
        if self.consensus is not None:
            self.consensus.propose_async(kind, payload)

    def crash_primary(self) -> None:
        """Crash the acting primary controller (fault injection).

        Client operations raise :class:`ControllerFailedError`; machines
        keep whatever was already delivered to them in flight. The
        process-pair backup's monitor notices the silence and runs
        take-over itself.
        """
        if not self.primary_alive:
            return
        self.primary_alive = False
        self.trace.emit("primary_crashed", actor="primary")

    # -- heartbeat failure detection -----------------------------------------------------

    def start_failure_detector(self) -> Process:
        """Start heartbeating every machine over the fabric (needs
        ``config.network.enabled``): *suspected* after
        ``suspect_after_misses`` silent heartbeats, *declared* dead
        (fenced, replicas removed, recovery scheduled) after
        ``declare_after_misses``, readmitted if it ever answers again."""
        return self.detector.start()

    def _on_suspect(self, name: str, misses: int) -> None:
        self.trace.emit("machine_suspected", machine=name, misses=misses)

    def _on_unsuspect(self, name: str, suspected_for: float) -> None:
        self.metrics.record_false_suspicion()
        self.trace.emit("machine_unsuspected", machine=name,
                        suspected_for=suspected_for)

    def _declare_allowed(self, name: str) -> bool:
        """Never declare the machine holding the last live replica of
        any database: fencing it would lose the data outright. It stays
        merely suspected (routed around where possible) until the
        partition heals or another replica exists elsewhere."""
        for db in self.replica_map.hosted_on(name):
            others = [r for r in self.replica_map.replicas(db)
                      if r != name and r in self.machines
                      and self.machines[r].alive
                      and not self.machines[r].fenced]
            if not others:
                return False
        return True

    def declare_dead(self, name: str, reason: str = "") -> List[str]:
        """Declare a silent machine dead: fence it, drop its replicas
        from the map, abandon copies through it, schedule recovery.

        Fencing models the machine-side lease expiring at the same
        simulated moment the controller declares: even if the machine is
        alive on the far side of a partition, it stops serving and its
        replicas are treated as lost (stale on readmission).
        """
        machine = self.machines.get(name)
        if machine is None:
            raise ValueError(f"unknown machine {name!r}")
        if name in self.declared_dead:
            return []
        self.detector.forget(name)
        self.declared_dead.add(name)
        self.fenced.add(name)
        was_alive = machine.alive
        machine.fence()
        # Remember what the machine held and how far it had applied: if
        # it comes back with its data intact (a false declaration), it
        # can catch up from these LSNs instead of being wiped.
        holdings: Dict[str, int] = {}
        for db in self.replica_map.hosted_on(name):
            lsns = self.replica_lsns.get(db)
            if lsns is None:
                # Lazily-deferred LSN map: the database never committed
                # a write, so every mapped replica stands at LSN 0 —
                # the state the eager path records at creation.
                lsn = 0
            else:
                lsn = lsns.get(name)
                lsns.pop(name, None)
            if lsn is not None:
                holdings[db] = lsn
        if holdings:
            self._stale_holdings[name] = holdings
        affected = self.replica_map.remove_machine(name)
        self.trace.emit("machine_declared", machine=name, reason=reason,
                        was_alive=was_alive, affected=sorted(affected))
        self.trace.emit("machine_fenced", machine=name)
        self._propose_meta("machine_declared", machine=name,
                           affected=sorted(affected))
        self._abandon_copies(name)
        if self.machine_reset_hook is not None:
            self.machine_reset_hook(name)
        if self.recovery is not None:
            self.recovery.schedule_databases(affected)
        return affected

    def _readmit(self, name: str) -> None:
        """A declared-dead machine answered a heartbeat: a false
        suspicion. Databases it still holds intact — and whose commit
        suffix the retained log still covers — catch up from their last
        durable LSN and rejoin; everything else is stale and dropped.
        When nothing is catchable it re-enters as a blank spare (fresh
        empty engine), eligible as a copy target."""
        machine = self.machines[name]
        self.declared_dead.discard(name)
        self.fenced.discard(name)
        self.detector.forget(name)
        holdings = self._stale_holdings.pop(name, {})
        eligible: Dict[str, int] = {}
        if machine.alive:
            for db, lsn in holdings.items():
                if not self.replica_map.has(db):
                    continue
                # database_log (not db_logs.get): a lazily-deferred log
                # must count as covering its whole (empty) history,
                # exactly like the fresh tail the eager path created.
                log = self.database_log(db)
                if (log.covers(lsn)
                        and machine.engine.hosts(db)
                        and db not in self.copy_states
                        and name not in self.replica_map.replicas_view(db)
                        and (self.replica_map.replica_count(db)
                             < self.config.replication_factor)):
                    eligible[db] = lsn
        self.metrics.record_false_suspicion()
        if not eligible:
            machine.readmit_as_spare()
            if self.machine_reset_hook is not None:
                self.machine_reset_hook(name)
            self.trace.emit("machine_readmitted", machine=name, mode="spare")
            self._propose_meta("machine_readmitted", machine=name,
                               mode="spare")
            return
        machine.rejoin_with_data()
        # Databases whose suffix was truncated away (or that recovery
        # already re-protected elsewhere) are stale: drop them.
        for db in holdings:
            if db not in eligible and machine.engine.hosts(db):
                machine.engine.drop_database(db)
        # Mark the catch-ups in copy_states *now* (same instant as the
        # readmission) so a queued full re-replication of the same
        # database skips instead of racing this catch-up, and pin the
        # logs so truncation cannot outrun the replay.
        pins = {}
        for db, lsn in eligible.items():
            state = CopyState(db, name, source=name)
            self.copy_states[db] = state
            pins[db] = (state, self.database_log(db).pin(lsn))
        self.trace.emit("machine_readmitted", machine=name, mode="catchup",
                        dbs=sorted(eligible))
        self._propose_meta("machine_readmitted", machine=name,
                           mode="catchup")
        proc = self.sim.process(self._catch_up_machine(name, eligible, pins),
                                name=f"catchup:{name}")
        proc.defused = True

    def _catch_up_machine(self, name: str,
                          eligible: Dict[str, int],
                          pins: Dict[str, tuple]) -> Generator:
        """Delta catch-up of a readmitted machine, one database at a time.

        Every database replays the retained log from the last LSN the
        machine acknowledged, skipping entries whose COMMIT record is
        already in its WAL (applied pre-declaration but never acked —
        forced or not, its memory survived the fencing), then drains
        through the shrunken reject window and rejoins the replica map.
        A failure mid-catch-up drops the partial database and hands it
        back to normal re-replication.
        """
        machine = self.machines[name]
        skip = machine.committed_txn_ids()
        for db, from_lsn in eligible.items():
            state, pin = pins[db]
            log = self.database_log(db)
            self.trace.emit("machine_catchup_start", db=db, machine=name,
                            lsn=from_lsn)
            try:
                try:
                    applied, reject_s, replayed = (
                        yield from self.delta_replay_and_handoff(
                            db, machine, from_lsn, state, skip_txns=skip))
                    if (self.replica_map.has(db)
                            and name not in
                            self.replica_map.replicas_view(db)):
                        self.replica_map.add_replica(db, name)
                        self.note_replica_caught_up(db, name, applied)
                    self.trace.emit("machine_catchup_done", db=db,
                                    machine=name, lsn=applied,
                                    replayed=replayed, reject_s=reject_s)
                finally:
                    if self.copy_states.get(db) is state:
                        del self.copy_states[db]
                    log.release(pin)
            except Exception as exc:
                self.trace.emit("machine_catchup_failed", db=db,
                                machine=name, error=type(exc).__name__)
                if machine.alive and not machine.fenced \
                        and machine.engine.hosts(db) \
                        and name not in self.replica_map.replicas_view(db):
                    machine.engine.drop_database(db)
                if self.recovery is not None:
                    self.recovery.schedule_databases([db])
        if self.machine_rejoin_hook is not None:
            self.machine_rejoin_hook(name)
