"""The coordinator's broadcast waits before PR 24, verbatim.

Until PR 24 the controller answered "send to every replica, then decide
from what came back" five times over: ``RpcLayer.fanout`` (a ``settled``
relay event per branch, an ``AllOf``, outcomes built when the coordinator
resumed) for PREPARE, COMMIT and the read-only release, each followed by
its own reading of a ``BranchOutcome``; and three loops for statement
writes — ``_await_all_writes`` (conservative), ``_await_first_write``
(aggressive) and the ``_watch_writes`` process it left behind — which
walked the branches in *issue* order. Production's
``repro.cluster.controller._Gather`` is one ``Event`` subclass whose
per-branch callback classifies, traces and counts down at the branch's
own settle instant; ``tests/property/test_gather_property.py`` runs one
scripted broadcast on both.

:class:`GeneratorGather` borrows the collaborators of a controller's
``TxnCoordinator`` and plays ``RpcLayer`` for itself (``self.rpc is
self``), so the methods below read exactly as they did inside
``RpcLayer`` and ``TxnCoordinator``. Two of them are cut out of longer
methods and say so: :meth:`write` is the issue loop and policy dispatch
of ``_execute_write`` without its bookkeeping, :meth:`prepare` is phase 1
of ``_commit`` up to the abort-or-decide fork, given the live write
participants (``_TxnState.write_participants`` went with PR 24).

Where the walk is wrong — and the differential therefore does not ask
for agreement — is spelled out in the property test: trace instants, the
resume instant after an SQL error in the conservative loop, which of two
different refusals is reported, branches queued behind one that never
settles, and a late branch on a machine declared dead poisoning the
transaction.
"""

from dataclasses import dataclass
from typing import (Any, Callable, Generator, List, Optional, Sequence,
                    Tuple)

from repro.cluster.controller import _TxnState
from repro.cluster.machine import Machine
from repro.cluster.routing import WritePolicy
from repro.errors import (DeadlockError, LockTimeoutError,
                          MachineFailedError, NoReplicaError,
                          RPCTimeoutError)
from repro.sim import Event, Interrupt, Process


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


class GeneratorGather:
    def __init__(self, txns):
        self.sim = txns.sim
        self.config = txns.config
        self.machines = txns.machines
        self.replica_map = txns.replica_map
        self.metrics = txns.metrics
        self.trace = txns.trace
        self.send = txns.rpc.send
        self.rpc = self

    # -- RpcLayer ----------------------------------------------------------------------

    def issue_branch(self, name: str,
                     make_body: Callable[[Machine], Generator], *,
                     txn_id: int, label: str,
                     retries: Optional[int] = None) -> Event:
        """Start one branch RPC without waiting on it; returns the event
        that settles with its result (the machine's process, or the
        :class:`_Rpc` to it)."""
        proc = self.send(self.machines[name], make_body, txn_id, label,
                         retries=retries)
        # The coordinator observes every branch outcome itself (gathered
        # BranchOutcome, or the write wait policies); defuse so one early
        # branch failure cannot crash the kernel before it gets there.
        proc.defused = True
        return proc

    def settled(self, proc: Event) -> Event:
        """An event that succeeds (never fails) when ``proc`` settles;
        its value is the settle instant."""
        settled = self.sim.event()
        proc.add_callback(lambda _proc: settled.succeed(self.sim.now))
        return settled

    @staticmethod
    def _outcome(name: str, proc: Event, latency: float) -> BranchOutcome:
        value = proc.value
        if not proc.ok and isinstance(value, Interrupt):
            # The branch body died without translating its interrupt
            # (e.g. torn down between ops): a machine failure.
            cause = value.cause
            value = (cause if isinstance(cause, BaseException)
                     else MachineFailedError(name))
        return BranchOutcome(machine=name, ok=proc.ok, value=value,
                             latency=latency)

    def fanout(self, names: Sequence[str],
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
        if names:
            self.metrics.record_fanout(label, len(names))
        self.trace.emit("fanout_start", txn=txn_id, label=label,
                        width=len(names), machines=list(names))
        started = self.sim.now
        procs = [self.issue_branch(name, make_body, txn_id=txn_id,
                                   label=label, retries=retries)
                 for name in names]
        settled = [self.settled(proc) for proc in procs]
        if settled:
            yield self.sim.all_of(settled)
        outcomes = [self._outcome(name, proc, at.value - started)
                    for name, proc, at in zip(names, procs, settled)]
        phase = f"branch:{label}"
        for outcome in outcomes:
            self.metrics.record_phase_latency(phase, outcome.latency)
        self.trace.emit("fanout_done", txn=txn_id, label=label,
                        width=len(outcomes), elapsed=self.sim.now - started)
        return outcomes

    # -- TxnCoordinator ----------------------------------------------------------------

    def _still_replica(self, db: str, name: str) -> bool:
        """Is ``name`` still in ``db``'s replica set? False once the
        failure detector declared it dead mid-operation (its in-flight
        branch outcomes are moot — survivors carry the transaction)."""
        return (self.replica_map.has(db)
                and name in self.replica_map.replicas_view(db))

    def write(self, txn, targets: Sequence[str],
              make_body: Callable[[Machine], Generator]) -> Generator:
        writes: List[Tuple[str, Process]] = []
        for name in targets:
            writes.append((name, self.rpc.issue_branch(
                name, make_body, txn_id=txn.txn_id, label="write")))
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
        pending: List[Tuple[str, Process, Event]] = [
            (name, proc, self.rpc.settled(proc)) for name, proc in writes]
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

    def prepare(self, txn, participants: Sequence[str]) -> Generator:
        outcomes = yield from self.rpc.fanout(
            participants,
            lambda m: m.prepare_body(txn.txn_id, txn.writes_sent.get(m.name)),
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
        return prepared, failure
