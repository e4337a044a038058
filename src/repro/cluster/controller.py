"""The cluster controller (Sections 2, 3.1, 3.2), as roles.

The paper's controller owns every client connection, the
database→machine replica map with the per-database commit stream that
recovery replays, and the two-phase-commit coordinator. Here those are
separate objects over shared cluster state (DESIGN §4p):

* :class:`TxnCoordinator` — the data path of one statement. A **read** is
  routed to one live replica according to the configured
  :class:`ReadOption` and retried on another replica if the machine fails
  mid-operation (connections survive machine failures). A **write** is
  gated by Algorithm 1 when the database is being re-replicated (reject
  writes to the table currently being copied; include the copy target for
  tables already copied), then fanned out to every live replica; the
  configured :class:`WritePolicy` decides whether the client resumes after
  the first replica acknowledges (*aggressive*) or after all do
  (*conservative*). A **commit** of a read-only transaction just releases
  locks; one with writes runs 2PC across every machine that executed a
  write, with the decision made durable on the control plane (the
  controller's Paxos group, DESIGN §4u) before COMMIT messages go out.
  Its messages leave through :class:`RpcLayer`, the one class that knows
  whether the fabric is on.
* :class:`~repro.cluster.replication_log.ReplicationLog` — the
  LSN-addressed commit log per database, replica LSNs, delta hand-off and
  rejoin catch-up (its own module; it knows nothing of this one).
* :class:`ClusterController` — construction, membership and failure
  reactions, database lifecycle, and the public surface.

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
from repro.cluster.consensus import ConsensusControlPlane
from repro.cluster.machine import Machine
from repro.cluster.membership import HeartbeatDetector
from repro.cluster.network import (CONTROLLER, RPC_BACKOFF_MAX_S,
                                   NetworkFabric)
from repro.cluster.replica_map import ReplicaMap
from repro.cluster.replication_log import CopyState, ReplicationLog
from repro.cluster.routing import ReadOption, ReadRouter, WritePolicy
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


@dataclass(slots=True)
class _TxnState:
    """Controller-side state of one open transaction."""

    txn_id: int
    db: str
    started_at: float
    # Controller term the transaction began under; a transaction from an
    # earlier term was cleaned up at take-over and must not continue
    # under the new leader.
    term: int = 0
    touched: Set[str] = field(default_factory=set)       # machines with locks
    poisoned: Optional[BaseException] = None             # deferred failure
    finished: bool = False
    # Write statements in issue order, for async cross-colo shipping.
    write_log: List[Tuple[str, Tuple[Any, ...]]] = field(default_factory=list)
    # Write statements *sent* per machine: its keys are the 2PC write
    # participants, and PREPARE carries the count so a replica whose
    # branch missed a dropped write refuses to prepare.
    writes_sent: Dict[str, int] = field(default_factory=dict)


class Connection:
    """A client database connection, as handed out by ``connect()``.

    All methods return sim :class:`Process` objects; a client process
    ``yield``s them. The connection is a single session: one transaction
    open at a time, statements issued sequentially.
    """

    def __init__(self, controller: "ClusterController", db: str):
        self.controller = controller
        self.txns = controller.txns
        self.db = db
        self.txn: Optional[_TxnState] = None
        self.closed = False

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Process:
        """Run one SQL statement inside the connection's transaction."""
        txns = self.txns
        return txns.sim.process(txns._execute(self, sql, tuple(params)),
                                name=f"conn:{self.db}:exec")

    def commit(self) -> Process:
        txns = self.txns
        return txns.sim.process(txns._commit(self),
                                name=f"conn:{self.db}:commit")

    def rollback(self) -> Process:
        txns = self.txns
        return txns.sim.process(txns._rollback(self),
                                name=f"conn:{self.db}:rollback")

    def close(self) -> None:
        if self.txn is not None and not self.txn.finished:
            if self.controller.consensus.alive:
                self.txns._abort_everywhere(self, self.txn)
            else:
                # With a dead controller there is nobody to send the
                # aborts; the next leader's take-over presumed-aborts
                # undecided branches. Coordinator-side bookkeeping
                # (the read router's per-txn choice, the open-writer
                # gauge) must still be released here, or it leaks.
                self.txns._finish(self, self.txn)
        self.closed = True


def _failure(settled: Event, name: str) -> BaseException:
    """What a failed machine process or RPC to ``name`` failed with. A
    body torn down by an interrupt it did not translate (between ops,
    say) died with its machine."""
    exc = settled.value
    if isinstance(exc, Interrupt):
        cause = exc.cause
        exc = (cause if isinstance(cause, BaseException)
               else MachineFailedError(name))
    return exc


#: Per-message timeout of a controller RPC, in sim seconds.
RPC_TIMEOUT_S = 0.5
#: Retransmissions an RPC gets before it fails with RPCTimeoutError.
RPC_MAX_RETRIES = 4
#: Phase-2 COMMIT messages are idempotent and must eventually land on
#: every surviving participant; they retry harder than ordinary RPCs.
COMMIT_MAX_RETRIES = 8
#: Distinct SQL strings whose classification (kind, target table) the
#: coordinator caches; least-recently-used entries are evicted past it,
#: counted in ``MetricsCollector.stmt_cache_evictions``.
STMT_CACHE_SIZE = 1024


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
                 "retries", "msg_id", "attempt", "expires", "deadline", "proc",
                 "low")

    def __init__(self, ctl: "RpcLayer", machine: Machine, make_body,
                 txn_id: int, label: str, timeout: Optional[float] = None,
                 retries: Optional[int] = None):
        Event.__init__(self, ctl.sim)
        self.ctl = ctl
        self.machine = machine
        self.make_body = make_body
        self.txn_id = txn_id
        self.label = label
        self.timeout = RPC_TIMEOUT_S if timeout is None else timeout
        self.retries = RPC_MAX_RETRIES if retries is None else retries
        self.msg_id = next(ctl._msg_ids)  # stable across retransmissions
        self.attempt = 0
        self.deadline: Optional[Timeout] = None  # set while executing
        self._send()

    def _send(self, _backoff=None) -> None:
        self.attempt += 1
        self.expires = self.sim.now + self.timeout
        self.low = self.ctl.low  # the watermark, as the request leaves
        self.ctl.fabric.post(CONTROLLER, self.machine.name, self._on_request)

    def _on_request(self, delivered: bool) -> None:
        machine = self.machine
        if not delivered or not machine.alive or machine.fenced:
            return self._silence()
        if self.low > machine.closed_below:
            machine.close_below(self.low)
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
        self.fail(_failure(proc, self.machine.name))

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
        ctl.metrics.network.rpc_timeouts += 1
        if self.attempt > self.retries:
            self.fail(RPCTimeoutError(
                f"{self.label} to {self.machine.name} timed out "
                f"after {self.attempt} attempts"))
        else:
            ctl.metrics.network.rpc_retries += 1
            self.sim.timeout(ctl.fabric.backoff_delay(
                self.attempt)).add_callback(self._send)


class RpcLayer:
    """Controller→machine messages, one RPC at a time.

    Knows nothing of transactions beyond the id a message carries. This
    is the one class that knows whether the fabric is on: :meth:`send`
    and :meth:`abort` are the two places the message paths part
    (DESIGN §4p says why both stay).
    """

    def __init__(self, sim: Simulator, config: ClusterConfig,
                 machines: Dict[str, Machine], fabric: NetworkFabric,
                 metrics: MetricsCollector, trace: Tracer):
        self.sim = sim
        self.config = config
        self.machines = machines
        self.fabric = fabric
        self.metrics = metrics
        self.trace = trace
        self._msg_ids = itertools.count(1)
        # Open transactions: id -> holders (the unfinished transaction,
        # plus each background ABORT or COMMIT redelivery that outlives
        # it). Ids are issued here in order, so ``low`` — the smallest
        # open id, the next id when none is open — only rises; it rides
        # every request as the watermark below which a machine may
        # forget (``Machine.close_below``, DESIGN §4q).
        self.open: Dict[int, int] = {}
        self.next_txn_id = self.low = 1

    def begin(self) -> int:
        """Issue the next transaction id, open with one holder."""
        txn_id = self.next_txn_id
        self.next_txn_id = txn_id + 1
        self.open[txn_id] = 1
        return txn_id

    def hold(self, txn_id: int) -> None:
        """One more holder keeps ``txn_id`` open (one abandoned at a
        take-over stays closed: hold and release both pass it by)."""
        if txn_id in self.open:
            self.open[txn_id] += 1

    def release(self, txn_id: int, _settled=None) -> None:
        """One holder less; the last one closes ``txn_id``."""
        holders = self.open.get(txn_id)
        if holders is None:
            return
        if holders > 1:
            self.open[txn_id] = holders - 1
            return
        del self.open[txn_id]
        low = self.low
        while low < self.next_txn_id and low not in self.open:
            low += 1
        self.low = low

    def abandon_open(self) -> None:
        """A take-over settled every open transaction machine-side and
        orphaned its connection: none of them is asked about again."""
        self.open.clear()
        self.low = self.next_txn_id

    def live_targets(self, names: Iterable[str]) -> List[str]:
        """Filter to machines that exist, are alive, and are not fenced."""
        targets = []
        for name in names:
            machine = self.machines.get(name)
            if machine is not None and machine.alive and not machine.fenced:
                targets.append(name)
        return targets

    def send(self, machine: Machine,
             make_body: Callable[[Machine], Generator], txn_id: int,
             label: str, timeout: Optional[float] = None,
             retries: Optional[int] = None) -> Event:
        """Start one logical RPC against ``machine``; the event settles
        with its result or error.

        Over the fabric it is one :class:`_Rpc`: a request and a
        response message per attempt plus a deadline, timed-out attempts
        retransmitted with exponential backoff. Without it, it is the
        machine's own process — no message, no extra simulation event,
        nothing that can be lost.
        """
        if self.fabric.enabled:
            return _Rpc(self, machine, partial(make_body, machine), txn_id,
                        label, timeout, retries)
        if self.low > machine.closed_below:
            machine.close_below(self.low)  # nothing in flight: exact
        return machine.submit(txn_id, make_body(machine), label=label)

    def abort(self, names: Iterable[str], txn_id: int) -> None:
        """Roll ``txn_id`` back on ``names``, waiting on none of them.

        Over the fabric ABORT is fire-and-collect: all branches leave at
        once, each retries in the background, idempotent, and lost to
        dead or fenced machines (whose state dies with them anyway);
        each holds the transaction open until it settles. Without it the
        aborts are immediate and local — nothing can lose them, so
        nothing needs to carry them.
        """
        if self.fabric.enabled:
            targets = self.live_targets(sorted(names))
            for name in targets:
                self.hold(txn_id)
                branch = self.send(self.machines[name],
                                   lambda m: m.abort_body(txn_id), txn_id,
                                   "abort")
                branch.defused = True  # nobody waits: a lost ABORT is moot
                branch.add_callback(partial(self.release, txn_id))
            if targets:
                self.metrics.record_fanout("abort", len(targets))
        else:
            for name in names:
                machine = self.machines.get(name)
                if machine is not None:
                    machine.close_below(self.low)
                    machine.abort_local(txn_id)


# What a settled branch of a broadcast means (DESIGN §4s): the machine
# answered; visibly died; stayed silent past every retransmission (maybe
# alive); is no longer a replica, so whatever came back is moot; or
# answered with an error.
OK, DEAD, SILENT, MOOT, REFUSED = "ok", "dead", "silent", "moot", "refused"

#: What the branches of each broadcast leave behind, by label: the phase
#: histogram their latency goes to, the trace kind of an ``ok`` branch and
#: of any other (COMMIT's are traced as they leave, ``commit_sent``), and
#: whether the broadcast counts as a 2PC fan-out (``metrics.fanouts``,
#: bracketed by ``fanout_start`` / ``fanout_done``).
_BROADCASTS = {
    "write": ("write", "write_acked", "write_failed", False),
    "prepare": ("branch:prepare", "prepare", "prepare_failed", True),
    "commit": ("branch:commit", None, None, True),
    "commit-ro": ("branch:commit-ro", None, None, True),
}


class _Gather(Event):
    """One broadcast to ``names``, and the event its coordinator waits on.

    Every branch leaves at once through :meth:`RpcLayer.send` and
    carries exactly one callback. It runs at the branch's own settle
    instant: classify the branch (once, for every phase), record its
    latency and trace event, count down. ``need="all"`` succeeds with
    the ``(name, class, value)`` outcomes, in settle order, when the last
    branch settles — one round trip per phase whatever the replication
    factor, and the complete set presumed-abort needs. ``need="first"``
    succeeds at the first branch that decides (``ok`` or ``refused``), or
    when none is left; the callbacks of the others stay where they are and
    hand each late outcome to ``on_late`` at its own instant.
    """

    __slots__ = ("txns", "txn", "label", "need", "on_late", "started",
                 "left", "outcomes", "phase", "acked", "failed", "counted")

    def __init__(self, txns: "TxnCoordinator", txn: _TxnState,
                 names: Sequence[str],
                 make_body: Callable[[Machine], Generator], label: str,
                 need: str = "all", retries: Optional[int] = None,
                 on_late: Optional[Callable] = None):
        Event.__init__(self, txns.sim)
        self.txns = txns
        self.txn = txn
        self.label = label
        self.need = need
        self.on_late = on_late
        self.started = self.sim.now
        self.left = len(names)
        self.outcomes: List[Tuple[str, str, Any]] = []
        self.phase, self.acked, self.failed, self.counted = _BROADCASTS[label]
        if self.counted:
            txns.trace.emit("fanout_start", txn=txn.txn_id, label=label,
                            width=len(names), machines=list(names))
        for name in names:
            branch = txns.rpc.send(txns.machines[name], make_body,
                                   txn.txn_id, label, retries=retries)
            # Observed right here, whatever it settles with: one early
            # failure must not crash the kernel first.
            branch.defused = True
            branch.add_callback(partial(self._settled, name))
        if not names:
            self._done()

    def _classify(self, name: str, branch: Event) -> Tuple[str, Any]:
        """``(class, result or error)`` of a branch that just settled."""
        if branch.ok:
            value = branch.value
            outcome = OK
        else:
            value = _failure(branch, name)
            if isinstance(value, RPCTimeoutError):
                outcome = SILENT
            elif isinstance(value, MachineFailedError):
                outcome = DEAD
            else:
                outcome = REFUSED
        if not self.txns._serves(self.txn.db, name):
            outcome = MOOT
        return outcome, value

    def _settled(self, name: str, branch: Event) -> None:
        txns, txn = self.txns, self.txn
        outcome, value = self._classify(name, branch)
        txns.metrics.record_phase_latency(self.phase,
                                          self.sim.now - self.started)
        if outcome is OK:
            if self.acked:
                txns.trace.emit(self.acked, db=txn.db, txn=txn.txn_id,
                                machine=name)
        elif self.failed:
            # (A moot branch may have answered: there is no error to name.)
            txns.trace.emit(self.failed, db=txn.db, txn=txn.txn_id,
                            machine=name, error=outcome if branch.ok
                            else type(value).__name__)
        self.left -= 1
        if self.triggered:
            return self.on_late(txn, name, outcome, value)
        self.outcomes.append((name, outcome, value))
        if not self.left or (self.need == "first"
                             and outcome in (OK, REFUSED)):
            self._done()

    def _done(self) -> None:
        if self.counted:
            self.txns.trace.emit("fanout_done", txn=self.txn.txn_id,
                                 label=self.label, width=len(self.outcomes),
                                 elapsed=self.sim.now - self.started)
        self.succeed(self.outcomes)


class TxnCoordinator:
    """Statement routing, write fan-out and the 2PC coordinator.

    One per :class:`ClusterController`; every :class:`Connection` drives
    it. It owns what exists per *transaction* (ids, the
    statement-classification cache) and its :class:`RpcLayer`, and
    borrows the cluster's shared objects; what can be re-attached after
    construction (control plane, hooks) is read through ``ctl``.
    """

    def __init__(self, ctl: "ClusterController"):
        self.ctl = ctl
        self.sim = ctl.sim
        self.config = ctl.config
        self.machines = ctl.machines
        self.replica_map = ctl.replica_map
        self.router = ctl.router
        self.metrics = ctl.metrics
        self.trace = ctl.trace
        self.copy_states = ctl.copy_states
        self.replication = ctl.replication
        self.admission = ctl.admission
        self.rpc = RpcLayer(ctl.sim, ctl.config, ctl.machines, ctl.fabric,
                            ctl.metrics, ctl.trace)
        # Statement-classification cache, LRU-bounded by STMT_CACHE_SIZE.
        self._stmt_cache: "OrderedDict[str, Tuple[str, Optional[str]]]" = (
            OrderedDict())

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
        while len(self._stmt_cache) > STMT_CACHE_SIZE:
            self._stmt_cache.popitem(last=False)
            self.metrics.stmt_cache_evictions += 1
        return entry

    # -- transaction plumbing -----------------------------------------------------------

    def _check_acting(self, conn: Connection) -> None:
        """May this controller act for ``conn`` now? Its acting replica
        must hold a valid leader lease — the fence. And an open
        transaction must have begun under the current term: the
        take-over that began this term already presumed-aborted (or
        takeover-committed) an older one on the machines, so its
        connection-side state is an orphan and must not drive further
        2PC — not even a decision its PREPARE round straddled."""
        ctl = self.ctl
        plane = ctl.consensus
        if not plane.lease_valid():
            # The acting replica crashed, or its leader lease lapsed (or
            # it was never elected).
            raise ControllerFailedError(
                f"controller {ctl.name}: no acting replica holds a valid "
                "leader lease")
        txn = conn.txn
        if txn is None or txn.finished or txn.term == plane.term:
            return
        self.trace.emit("txn_orphaned", db=txn.db, txn=txn.txn_id,
                        term=txn.term, current_term=plane.term)
        self._finish(conn, txn)
        raise TransactionAborted(
            "controller leadership changed; the transaction was cleaned "
            "up during take-over")

    def _ensure_txn(self, conn: Connection) -> _TxnState:
        if conn.txn is None or conn.txn.finished:
            conn.txn = _TxnState(self.rpc.begin(), conn.db, self.sim.now,
                                 self.ctl.consensus.term)
            self.trace.emit("txn_begin", db=conn.db, txn=conn.txn.txn_id)
        return conn.txn

    def _finish(self, conn: Connection, txn: _TxnState) -> None:
        if txn.finished:
            return
        txn.finished = True
        if txn.writes_sent:
            self.replication.writer_finished(txn.db, txn.txn_id)
        self.router.forget(txn.txn_id)
        self.rpc.release(txn.txn_id)
        conn.txn = None

    def _abort_everywhere(self, conn: Connection, txn: _TxnState,
                          kind: str = "abort",
                          reason: str = "connection closed") -> None:
        """Roll the transaction back on every touched machine."""
        self.rpc.abort(txn.touched, txn.txn_id)
        self.trace.emit(kind, db=txn.db, txn=txn.txn_id, reason=reason)
        self._finish(conn, txn)

    def _abort(self, conn: Connection, txn: _TxnState, exc: BaseException,
               stage: str = "", message: Optional[str] = None) -> None:
        """Roll back everywhere, raise the failure to the client (the
        ``abort`` event's reason is what the metrics count)."""
        reason = type(exc).__name__
        self._abort_everywhere(conn, txn,
                               reason=f"{stage}:{reason}" if stage else reason)
        raise TransactionAborted(message or str(exc), cause=exc) from exc

    def _settle_commit(self, txn: _TxnState,
                       outcomes: List[Tuple[str, str, Any]],
                       lsn: Optional[int] = None) -> bool:
        """Act on the gathered outcomes of a COMMIT (or read-only
        release) broadcast; True while a participant still owes an ack.

        The decision is made and durable, so a dead or moot replica is
        skipped (its locks died with it) and a silent one — maybe alive,
        holding locks — just keeps receiving COMMIT in the background
        until it acks, dies, or is fenced (``commit_body`` is
        idempotent). An acked write participant advances its replica LSN.
        """
        redelivering = False
        for name, outcome, value in outcomes:
            applied = lsn if name in txn.writes_sent else None
            if outcome is OK:
                if applied is not None:
                    self.replication.advance(txn.db, name, applied)
            elif outcome is SILENT:
                self.rpc.hold(txn.txn_id)
                proc = self.sim.process(
                    self._redeliver_commit(txn.db, txn.txn_id, name, applied),
                    name=f"redeliver:{txn.txn_id}:{name}")
                proc.defused = True
                redelivering = True
            elif outcome is REFUSED:
                raise value
        return redelivering

    def _redeliver_commit(self, db: str, txn_id: int, name: str,
                          lsn: Optional[int]) -> Generator:
        """Redrive a decided COMMIT until the participant acks, dies, is
        fenced, or this controller's acting replica dies (the take-over
        redrives replicated decisions itself), holding the transaction
        open meanwhile."""
        ctl = self.ctl
        for round_no in range(1, 33):
            yield self.sim.timeout(min(RPC_BACKOFF_MAX_S * round_no, 30.0))
            machine = self.machines.get(name)
            if (machine is None or not machine.alive or machine.fenced
                    or not ctl.consensus.alive):
                break
            try:
                yield self.rpc.send(machine, lambda m: m.commit_body(txn_id),
                                    txn_id, "commit-redeliver")
            except RPCTimeoutError:
                continue
            except Exception:
                break  # dead, fenced, or already resolved machine-side
            if name in ctl.declared_dead:
                break  # fenced mid-redelivery: its data is discarded
            self.trace.emit("commit_sent", db=db, txn=txn_id, machine=name,
                            redelivered=True)
            if lsn is not None:
                self.replication.advance(db, name, lsn)
            # The replicated decision is left in place: another participant
            # of the same transaction may still owe an ack, and a stale
            # "commit" decision is harmless to redrive (idempotent).
            break
        else:
            # Never answered, and it may have applied the commit: closing
            # the transaction lets its COMMIT record go, so no delta
            # rejoin may look for it.
            self.replication.untrack(db, name)
        self.rpc.release(txn_id)

    def _serves(self, db: str, name: str) -> bool:
        """Does ``name`` still carry ``db`` — in its replica set, or as
        the target a running copy writes through to (Algorithm 1)? False
        once the failure detector declared it dead mid-operation: its
        in-flight branch outcomes are moot, survivors carry the
        transaction."""
        if (self.replica_map.has(db)
                and name in self.replica_map.replicas_view(db)):
            return True
        copy = self.copy_states.get(db)
        return copy is not None and copy.target == name

    # -- statement execution -----------------------------------------------------------

    def _execute(self, conn: Connection, sql: str,
                 params: Tuple[Any, ...]) -> Generator:
        if conn.closed:
            raise TransactionError("connection is closed")
        self._check_acting(conn)
        ctl = self.ctl
        starting = conn.txn is None or conn.txn.finished
        txn = self._ensure_txn(conn)
        if starting and not self.admission.admit(conn.db):
            # The tenant's bucket is dry: turn the transaction away at
            # the door, before any statement can queue work (or hold
            # locks) on a machine. Statements of an already-admitted
            # transaction pass free — one token buys the whole
            # transaction, matching the SLA's per-transaction metric.
            self.trace.emit("admission_reject", db=conn.db, txn=txn.txn_id,
                            rate=self.admission.provisioned_rate(conn.db))
            self._abort(conn, txn, OverloadRejectedError(
                f"transaction rejected: {conn.db!r} is over its "
                "provisioned admission rate", database=conn.db))
        if txn.poisoned is not None:
            exc = txn.poisoned
            self._abort(conn, txn, exc, "deferred",
                        f"transaction aborted: deferred write failure ({exc})")
        if conn.db not in ctl._materialised:
            # The first admitted statement pays the tenant's engine-side
            # creation.
            ctl.ensure_materialised(conn.db)
        kind, table = self._classify(sql)
        try:
            if kind == "read":
                result = yield from self._execute_read(conn, txn, sql, params)
            else:
                result = yield from self._execute_write(conn, txn, sql,
                                                        params, table)
        except (DeadlockError, LockTimeoutError, ProactiveRejectionError,
                NoReplicaError, MachineFailedError) as exc:
            self._abort(conn, txn, exc)
        for hook in list(ctl.statement_hooks):
            hook(conn.db)
        return result

    def _execute_read(self, conn: Connection, txn: _TxnState, sql: str,
                      params: Tuple[Any, ...]) -> Generator:
        attempts = 0
        excluded: Set[str] = set()  # replicas whose RPCs timed out
        while True:
            replicas = self.ctl.live_replicas(conn.db)
            candidates = [r for r in replicas if r not in excluded]
            if not candidates:
                if excluded:
                    raise NoReplicaError(
                        f"no reachable replica of {conn.db!r}")
                raise NoReplicaError(f"no live replica of {conn.db!r}")
            choice = self.router.choose(txn.txn_id, candidates)
            if (self.machines[choice].overloaded(
                    self.config.shed_inflight_watermark)
                    and self.config.write_policy is WritePolicy.CONSERVATIVE):
                # Hot-replica read shedding: the read spills to the
                # least-loaded replica (the first on ties; the chosen one
                # itself when every replica is as hot — shedding degrades
                # placement, never availability). Conservative writes
                # only, under which every read option is serializable
                # (Theorem 2); an aggressive controller relies on
                # option-1's fixed replica for Theorem 1.
                least = min(candidates,
                            key=lambda name: self.machines[name].inflight)
                if least != choice:
                    choice = least
                    self.trace.emit("shed_read", db=conn.db,
                                    txn=txn.txn_id, machine=choice,
                                    load=self.machines[choice].inflight)
            txn.touched.add(choice)
            try:
                result = yield self.rpc.send(
                    self.machines[choice],
                    lambda m: m.statement_body(
                        txn.txn_id, conn.db, sql, params,
                        self.config.lock_wait_timeout_s),
                    txn.txn_id, f"r:{sql[:24]}")
                return result
            except MachineFailedError as exc:
                # Retry the read on another live replica — and never
                # again on one that timed out (unreachable, maybe alive).
                if isinstance(exc, RPCTimeoutError):
                    excluded.add(choice)
                attempts += 1
                if attempts > len(self.machines):
                    raise
            except Exception:
                # Declared dead (maybe wiped to a blank spare) with the
                # read in flight: moot, as for a write; ask another.
                attempts += 1
                if (self._serves(conn.db, choice)
                        or attempts > len(self.machines)):
                    raise

    def _write_targets(self, db: str, table: Optional[str]) -> List[str]:
        """Live targets for one write, applying Algorithm 1."""
        replicas = self.ctl.live_replicas(db)
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
        if not txn.writes_sent:
            self.replication.writer_opened(txn.db, txn.txn_id)
        for name in targets:
            txn.touched.add(name)
            txn.writes_sent[name] = txn.writes_sent.get(name, 0) + 1
            self.trace.emit("write_issued", db=txn.db, txn=txn.txn_id,
                            machine=name)
        txn.write_log.append((sql, params))
        # The paper's two write-ack policies: resume the client once every
        # replica finished the write (conservative) or at the first ack
        # (aggressive), a late refusal then poisoning the transaction.
        # write_body tallies executed writes machine-side, so PREPARE can
        # detect a branch that silently missed one.
        outcomes = yield _Gather(
            self, txn, targets,
            lambda m: m.write_body(txn.txn_id, conn.db, sql, params,
                                   self.config.lock_wait_timeout_s),
            "write",
            need=("all" if self.config.write_policy
                  is WritePolicy.CONSERVATIVE else "first"),
            on_late=self._late_write)
        # A dead, silent or moot replica is skipped: survivors carry the
        # write. A refusal (deadlock, lock timeout, SQL error) fails it.
        acked = None
        for _name, outcome, value in outcomes:
            if outcome is REFUSED:
                raise value
            if outcome is OK:
                acked = value
        if acked is None:
            raise NoReplicaError(f"all replicas of {txn.db!r} failed mid-write")
        return acked

    def _late_write(self, txn: _TxnState, name: str, outcome: str,
                    value: Any) -> None:
        """A replica write that settled after the aggressive policy let
        the client go on: a refusal poisons the transaction, so its next
        operation aborts (the paper's aggressive controller)."""
        if outcome is REFUSED and not txn.finished and txn.poisoned is None:
            txn.poisoned = value
            self.trace.emit("poisoned", db=txn.db, txn=txn.txn_id,
                            machine=name, error=type(value).__name__)

    # -- commit / rollback (the 2PC coordinator) ------------------------------------------

    def _commit(self, conn: Connection) -> Generator:
        if conn.txn is None or conn.txn.finished:
            return None  # nothing to do
        self._check_acting(conn)
        ctl = self.ctl
        txn = conn.txn
        if txn.poisoned is not None:
            exc = txn.poisoned
            self._abort(conn, txn, exc, "deferred",
                        f"commit refused: deferred write failure ({exc})")

        if not txn.writes_sent:
            # Read-only: release locks everywhere, no 2PC (paper: the
            # controller invokes 2PC only when the transaction wrote).
            # One broadcast: every release leaves at once.
            outcomes = yield _Gather(
                self, txn, self.rpc.live_targets(sorted(txn.touched)),
                lambda m: m.commit_body(txn.txn_id), "commit-ro")
            self._settle_commit(txn, outcomes)
            self.trace.emit("committed", db=txn.db, txn=txn.txn_id,
                            readonly=True,
                            latency=self.sim.now - txn.started_at)
            self._finish(conn, txn)
            return True

        # Phase 1: PREPARE on every write participant — one concurrent
        # broadcast. The commit/abort decision is taken from the
        # *complete* set of branch outcomes: presumed abort on silence
        # (maybe alive, un-prepared) or a refusal (rolled back, missing a
        # dropped write, diverged), even if every other branch prepared
        # first. A dead or moot branch is skipped; survivors carry the
        # write.
        phase1_at = self.sim.now
        outcomes = yield _Gather(
            self, txn, self.rpc.live_targets(sorted(txn.writes_sent)),
            lambda m: m.prepare_body(txn.txn_id, txn.writes_sent.get(m.name)),
            "prepare")
        prepared = sorted(name for name, outcome, _ in outcomes
                          if outcome is OK)
        failure = next((value for _, outcome, value in outcomes
                        if outcome in (SILENT, REFUSED)), None)
        if failure is not None or not prepared:
            exc = failure or NoReplicaError(
                f"no surviving write participant for {txn.db!r}")
            self._abort(conn, txn, exc, "prepare",
                        f"2PC prepare failed: {exc}")

        # Decision point: make the decision durable on the control plane
        # before any COMMIT message leaves the controller. The group
        # replicates it through its log under the leader lease (no
        # decision may leave a controller whose lease lapsed —
        # replicate_decision re-checks the lease after the quorum round
        # trip); a group of one applies it inside the call.
        self._check_acting(conn)
        plane = ctl.consensus
        try:
            yield from plane.replicate_decision(
                txn.db, txn.txn_id, "commit",
                sorted(set(prepared) | txn.touched))
        except ControllerFailedError:
            # The lease lapsed (or leadership moved) mid-decision: this
            # controller must go silent. The machines keep their
            # PREPAREd branches; the new leader's take-over resolves
            # them from the replicated decision table.
            self._finish(conn, txn)
            raise
        decision_at = self.sim.now
        self.trace.emit("decision_logged", db=txn.db, txn=txn.txn_id,
                        decision="commit", participants=prepared,
                        **plane.decision_stamp(),
                        prepare_latency=decision_at - phase1_at)
        # Sequence the decided commit into the per-database replication
        # log, and fire the DR shipping hooks, before any COMMIT leaves.
        lsn = None
        if txn.write_log:
            lsn = self.replication.append(txn.db, txn.txn_id, txn.write_log)
            for hook in ctl.commit_hooks:
                hook(txn.db, txn.txn_id, list(txn.write_log))

        # Phase 2: COMMIT on all touched machines (read locks too) — one
        # concurrent broadcast. The decision is made and durable, so
        # every COMMIT leaves the (still-leading) controller at the same
        # instant; per-branch failures are resolved from the gathered
        # outcomes.
        commit_targets = self.rpc.live_targets(sorted(txn.touched))
        self._check_acting(conn)
        for name in commit_targets:
            self.trace.emit("commit_sent", db=txn.db, txn=txn.txn_id,
                            machine=name)
        outcomes = yield _Gather(
            self, txn, commit_targets, lambda m: m.commit_body(txn.txn_id),
            "commit", retries=COMMIT_MAX_RETRIES)
        if not self._settle_commit(txn, outcomes, lsn):
            # Keep the durable decision while any participant still owes
            # an ack — a take-over must redrive COMMIT, not presume abort.
            plane.clear_decision(txn.db, txn.txn_id)
        self.trace.emit("committed", db=txn.db, txn=txn.txn_id,
                        latency=self.sim.now - txn.started_at,
                        commit_latency=self.sim.now - decision_at)
        self._finish(conn, txn)
        return True

    def _rollback(self, conn: Connection) -> Generator:
        if conn.txn is None or conn.txn.finished:
            return None
        # A voluntary rollback is not a failure abort: it counts apart.
        self._abort_everywhere(conn, conn.txn, kind="rollback",
                               reason="client rollback")
        return True
        yield  # pragma: no cover - generator marker


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
        self.metrics = MetricsCollector()
        self.fabric = NetworkFabric(
            sim, self.config.network, metrics=self.metrics,
            direct_latency_s=self.config.machine.network_latency_s)
        self.trace = Tracer(capacity=self.config.trace_capacity,
                            clock=lambda: self.sim.now, metrics=self.metrics)
        self.fabric.trace = self.trace
        self.trace.emit("trace_meta", cluster=name,
                        write_policy=self.config.write_policy.value,
                        read_option=self.config.read_option.value,
                        replication_factor=self.config.replication_factor)
        self.history: Optional[GlobalHistory] = (
            GlobalHistory() if self.config.record_history else None)
        self.copy_states: Dict[str, CopyState] = {}
        self.recovery = None          # attached by RecoveryManager
        # db -> DDL tuple; tenants created from one tuple share it.
        self.ddl: Dict[str, Tuple[str, ...]] = {}
        # db -> declared SLA; a database created without one has no
        # entry. Registered at create_database / set_sla; provisions the
        # admission layer's token bucket and the runtime SLA monitor.
        self.slas: Dict[str, Any] = {}
        # Per-tenant token-bucket admission (repro.cluster.admission): a
        # bucket per tenant with an SLA, none for the rest.
        self.admission = AdmissionController(lambda: self.sim.now,
                                             self.slas.get)
        # The roles (DESIGN §4p). The replication log is the
        # per-database commit stream recovery replays; the coordinator
        # is the statement and 2PC data path every Connection drives.
        self.replication = ReplicationLog(sim, self.config, self.replica_map,
                                          self.trace)
        self.db_logs = self.replication.db_logs  # the same dict, by name
        self.txns = TxnCoordinator(self)
        # Databases a statement, bulk load or copy has touched; a cold
        # one holds no entry (see ensure_materialised).
        self._materialised: Set[str] = set()
        # Called with (db, txn_id, write_log) at the decision point of
        # each writing transaction's 2PC (the commit is decided and
        # durable; it can no longer abort). The platform layer uses
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
        self.declared_dead: Set[str] = set()
        # Heartbeats over CONTROLLER -> machine links; this class keeps
        # only the reactions (declare_dead / _readmit).
        self.detector = HeartbeatDetector(
            sim, self.fabric, CONTROLLER, self.machines,
            self.declared_dead, self.config,
            name=f"{name}:detector", probe_prefix="hb",
            on_suspect=self._on_suspect, on_unsuspect=self._on_unsuspect,
            on_declare=self.declare_dead, on_return=self._readmit,
            declare_allowed=self._declare_allowed,
            active=lambda: self.consensus.alive)
        # The control plane: a Paxos group, one replica by default — a
        # controller that restarts from its own decision table (the
        # paper's process pair, DESIGN §4u). Its leader lease is the
        # fence no decision or COMMIT may leave a dead controller past.
        self.consensus = ConsensusControlPlane(
            self, self.config.consensus).start()

    # -- cluster membership ----------------------------------------------------

    def add_machine(self, name: Optional[str] = None) -> Machine:
        name = name or f"{self.name}-m{len(self.machines) + 1}"
        if name in self.machines:
            raise ValueError(f"machine {name!r} already in cluster")
        site_history = self.history.site(name) if self.history else None
        machine = Machine(self.sim, name, self.config.machine,
                          history=site_history)
        # A blank machine has nothing below the watermark to forget.
        machine.closed_below = self.txns.rpc.low
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

    def _machine(self, name: str) -> Machine:
        machine = self.machines.get(name)
        if machine is None:
            raise ValueError(f"unknown machine {name!r}")
        return machine

    # -- database lifecycle -------------------------------------------------------

    def create_database(self, db: str, ddl: Sequence[str],
                        machines: Optional[Sequence[str]] = None,
                        replicas: Optional[int] = None,
                        sla=None) -> None:
        """Place a database on ``replicas`` machines and register its DDL.

        Setup-phase API: executes instantly (no simulated time), as does
        :meth:`bulk_load`. Placement defaults to the least-loaded live
        machines; the SLA-driven path in :mod:`repro.platform` chooses
        machines explicitly. ``sla`` (a :class:`repro.sla.model.Sla`)
        registers the tenant's contract with the controller: it
        provisions the admission token bucket and anchors the runtime
        SLA monitor. A database without one is never throttled. The
        database is created cold: its engine DDL,
        replication and admission state materialise on first touch
        (:meth:`ensure_materialised`), so an untouched tenant costs two
        dict slots: its placement and DDL are tuples it shares.
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
        self.replica_map.add_database(db, machines)
        self.ddl[db] = tuple(ddl)
        self.set_sla(db, sla)

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
        # Drop any resident bucket; the next transaction re-provisions
        # from the registry (a fresh bucket starts full), or holds none.
        self.admission.forget(db)

    def bulk_load(self, db: str, table: str, rows: Sequence[Sequence[Any]]) -> None:
        """Load identical rows into every replica (setup phase).

        The rows become tuples once and every replica loads that one
        list: a row its engine stores unchanged is one object shared by
        all of them (rows are immutable).
        """
        self.ensure_materialised(db)
        rows = list(map(tuple, rows))
        for name in self.replica_map.replicas_view(db):
            self.machines[name].engine.load_table_rows(db, table, rows)

    def drop_database(self, db: str) -> None:
        """Remove a database from the cluster entirely (deregistration).

        Drops the data off every live replica, forgets the mapping and
        DDL, and discards in-flight copy state. A no-op for unknown
        databases so teardown paths can call it unconditionally.
        """
        if not self.replica_map.has(db):
            return
        for name in self.replica_map.replicas_view(db):
            machine = self.machines.get(name)
            if (machine is not None and machine.alive
                    and not machine.fenced and machine.engine.hosts(db)):
                machine.engine.drop_database(db)
        self.replica_map.drop_database(db)
        self._materialised.discard(db)
        self.ddl.pop(db, None)
        self.copy_states.pop(db, None)
        self.replication.drop_database(db)
        self.slas.pop(db, None)
        self.admission.forget(db)

    def reset_as_blank(self) -> None:
        """Wipe the whole cluster back to blank spares (colo failback).

        Every machine re-enters with a fresh empty engine, the replica
        map and DDL registry are emptied, detector state is cleared,
        and the controller replicas restart — the cluster rejoins service
        hosting nothing, like a machine readmitted as a spare but at
        colo scale.
        """
        for machine in self.machines.values():
            machine.readmit_as_spare()
        self.replica_map.clear()
        self.ddl.clear()
        self.slas.clear()
        self.admission.buckets.clear()
        self.copy_states.clear()
        self.replication.clear()
        self._materialised.clear()
        self.detector.reset()
        self.declared_dead.clear()
        for name in self.consensus.group.names:
            self.consensus.repair_controller(name)
        self.trace.emit("cluster_reset")

    def ensure_materialised(self, db: str) -> None:
        """Run ``db``'s engine-side creation, the one place engine DDL runs.

        A cold database exists only in the replica map and the DDL
        registry; the first statement, bulk load, or copy touching it
        marks it materialised, creates the catalog entry and runs the
        DDL on every live replica. A replica that left before that touch
        holds nothing of ``db``, so it can only come back by a full
        copy. A no-op for a marked or unknown database.
        """
        if db in self._materialised or db not in self.replica_map:
            return
        self._materialised.add(db)
        ddl = self.ddl[db]
        for name in self.replica_map.replicas_view(db):
            machine = self.machines.get(name)
            if (machine is not None and machine.alive and not machine.fenced
                    and not machine.engine.hosts(db)):
                machine.engine.create_database_from_ddl(db, ddl)
        self.trace.emit("db_materialised", db=db)

    def connect(self, db: str) -> Connection:
        # A non-leader controller replica redirects the client.
        self.consensus.check_leader()
        self.replica_map.replicas_view(db)  # raises if unknown; no copy
        return Connection(self, db)

    # -- machine failure handling (Section 3.2) ------------------------------------------

    def fail_machine(self, name: str) -> List[str]:
        """Fail a machine: a crash the controller declares at once.
        Returns the databases that lost a replica."""
        self.crash_machine(name)
        return self.declare_dead(name, reason="failed")

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

        Nothing is removed from the replica map and no recovery is
        scheduled here — only the heartbeat failure detector (or
        :meth:`fail_machine`, which declares at once) drives the
        declare→fence→recover path.
        """
        self._machine(name).fail()
        self.trace.emit("machine_crashed", machine=name)

    def repair_machine(self, name: str) -> None:
        """Return a failed or fenced machine to the cluster as a blank
        spare: fresh empty engine, hosting nothing, eligible as a
        recovery target. Refuses if the replica map still routes to it.
        """
        machine = self._machine(name)
        hosted = self.replica_map.hosted_on(name)
        if hosted:
            raise ValueError(
                f"cannot repair {name!r}: still mapped for {sorted(hosted)}")
        machine.readmit_as_spare()
        self.declared_dead.discard(name)
        self.detector.forget(name)
        self.replication.machine_left(name, ())
        self.trace.emit("machine_repaired", machine=name)

    # -- heartbeat failure detection -----------------------------------------------------

    def start_failure_detector(self) -> Process:
        """Start heartbeating every machine over the fabric (which must
        be on): *suspected* after ``suspect_after_misses`` silent
        heartbeats, *declared* dead (fenced, replicas removed, recovery
        scheduled) after ``declare_after_misses``, readmitted if it ever
        answers again."""
        return self.detector.start()

    def _on_suspect(self, name: str, misses: int) -> None:
        self.trace.emit("machine_suspected", machine=name, misses=misses)

    def _on_unsuspect(self, name: str, suspected_for: float) -> None:
        self.trace.emit("machine_unsuspected", machine=name,
                        suspected_for=suspected_for)

    def _declare_allowed(self, name: str) -> bool:
        """Never declare the machine holding the last live replica of
        any database: fencing it would lose the data outright. It stays
        merely suspected (routed around where possible) until the
        partition heals or another replica exists elsewhere."""
        return all(any(r != name for r in self.live_replicas(db))
                   for db in self.replica_map.hosted_on(name))

    def declare_dead(self, name: str, reason: str = "") -> List[str]:
        """Declare a silent machine dead: fence it, drop its replicas
        from the map, abandon copies through it, schedule recovery.

        Fencing models the machine-side lease expiring at the same
        simulated moment the controller declares: even if the machine is
        alive on the far side of a partition, it stops serving and its
        replicas are treated as lost (stale on readmission) — unless it
        comes back with its data intact, a false declaration, and can
        catch up from the LSNs the replication log keeps for it.
        """
        machine = self._machine(name)
        if name in self.declared_dead:
            return []
        self.detector.forget(name)
        self.declared_dead.add(name)
        was_alive = machine.alive
        machine.fence()
        affected = self.replica_map.remove_machine(name)
        self.replication.machine_left(name, affected)
        self.trace.emit("machine_declared", machine=name, reason=reason,
                        was_alive=was_alive, affected=sorted(affected))
        self.trace.emit("machine_fenced", machine=name)
        self._abandon_copies(name)
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
        self.detector.forget(name)
        holdings, eligible = self.replication.rejoin_eligibility(
            name, machine, self.copy_states)
        if not eligible:
            machine.readmit_as_spare()
            self.trace.emit("machine_readmitted", machine=name, mode="spare")
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
            pins[db] = (state, self.replication.log(db).pin(lsn))
        self.trace.emit("machine_readmitted", machine=name, mode="catchup",
                        dbs=sorted(eligible))
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
        replication = self.replication
        skip = machine.committed_txn_ids()
        for db, from_lsn in eligible.items():
            state, pin = pins[db]
            log = replication.log(db)
            self.trace.emit("machine_catchup_start", db=db, machine=name,
                            lsn=from_lsn)
            try:
                try:
                    applied, reject_s, replayed = (
                        yield from replication.replay_and_handoff(
                            db, machine, from_lsn, state, skip_txns=skip))
                    if (self.replica_map.has(db)
                            and name not in
                            self.replica_map.replicas_view(db)):
                        self.replica_map.add_replica(db, name)
                        replication.note_caught_up(db, name, applied)
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
