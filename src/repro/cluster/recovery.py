"""Failure recovery: background re-replication with Algorithm 1.

When a machine fails, every database it hosted drops below its
replication factor. The :class:`RecoveryManager` runs a configurable
number of *recovery threads* (the x-axis of the paper's Figure 8); each
thread takes one under-replicated database at a time and copies it to a
new machine with the dump tool.

The copy strategy is the manager's ``copy`` argument:

* ``"delta"`` (the default) — *log-structured*: the dump snapshots the
  database at a pinned LSN of the per-database commit log **without
  rejecting writes**, the snapshot streams to the target while writes
  keep flowing, and the retained log replays on the target from the
  pinned LSN. The write-rejection window shrinks to the final log-drain
  handoff — independent of database size;
* ``"table"`` — the paper's Algorithm 1: tables are copied one at a
  time; only writes to the table *currently* being copied are rejected
  (Algorithm 1 line 11);
* ``"database"`` — the whole database is copied under one lock
  footprint; every write to the database is rejected for the copy's
  full duration (the lower-concurrency curve of Figure 8).

The copy pipeline (:func:`copy_replica`, also what planned migration
copies through) charges simulated time for the source read, the rack
network transfer, and the destination load, so recovery durations scale
with database size like the paper's ~2 minutes for 200 MB.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, Iterable, List, Optional

from repro.cluster.controller import ClusterController
from repro.cluster.network import CONTROLLER
from repro.cluster.replication_log import CopyState
from repro.errors import NoReplicaError
from repro.sim import Process, Simulator, Store


class CopyGranularity(enum.Enum):
    TABLE = "table"
    DATABASE = "database"


class CopyInFlight(Exception):
    """Another copy pipeline (a rejoin catch-up) owns this database."""


@dataclass
class RecoveryRecord:
    """Outcome of one completed (or abandoned) re-replication."""

    db: str
    source: str
    target: str
    started_at: float
    finished_at: float
    bytes_copied: int
    succeeded: bool
    mode: str = "full"

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class RecoveryManager:
    """Re-replicates under-replicated databases in the background."""

    def __init__(self, controller: ClusterController,
                 copy: str = "delta",
                 threads: Optional[int] = None,
                 retry_delay_s: float = 5.0):
        if copy not in _STRATEGIES:
            raise ValueError(f"unknown copy strategy {copy!r}; "
                             f"expected one of {sorted(_STRATEGIES)}")
        self.controller = controller
        self.sim: Simulator = controller.sim
        self.copy = copy
        self.threads = threads or controller.config.recovery_threads
        # Wait this long before retrying a failed re-replication (e.g.
        # when no machine can host the new replica yet).
        self.retry_delay_s = retry_delay_s
        self.queue: Store = Store(self.sim)
        self.records: List[RecoveryRecord] = []
        self.in_progress: set = set()
        self._workers: List[Process] = []
        controller.recovery = self

    def start(self) -> None:
        """Launch the recovery worker processes."""
        if self._workers:
            return
        for idx in range(self.threads):
            proc = self.sim.process(self._worker(), name=f"recovery-{idx}")
            proc.defused = True  # workers run forever; failures logged
            self._workers.append(proc)

    # -- scheduling ------------------------------------------------------------

    def schedule_databases(self, dbs: Iterable[str]) -> None:
        """Queue databases that dropped below the replication factor."""
        want = self.controller.config.replication_factor
        for db in dbs:
            if db in self.in_progress:
                continue
            if self.controller.replica_map.replica_count(db) >= want:
                # A rejoin catch-up (or an earlier retry) restored the
                # factor between queue and re-schedule; resolve any
                # outstanding queue entry in the trace so the
                # rereplication-restores-factor audit sees closure.
                self.controller.trace.emit("rereplication_skipped", db=db,
                                           reason="already-replicated")
                continue
            self.in_progress.add(db)
            self.controller.trace.emit("rereplication_queued", db=db)
            self.queue.put(db)

    def _worker(self) -> Generator:
        while True:
            db = yield self.queue.get()
            try:
                yield from self._recover_database(db)
            except Exception:
                # Source or target died mid-copy, no machine can host
                # the replica yet, or another pipeline owns the copy:
                # back off, then retry if still needed. All partial-state
                # cleanup already happened inside copy_replica with
                # the copy's source/target still in hand; by the time
                # control returns here the copy state is gone, so a
                # second state-keyed cleanup pass would find nothing.
                self.in_progress.discard(db)
                yield self.sim.timeout(self.retry_delay_s)
                self.schedule_databases([db])
            else:
                self.in_progress.discard(db)
                # One copy restores one replica. If the database is
                # still short (e.g. the copy's *source* also died
                # mid-flight, and its failure's schedule call was
                # suppressed because this copy was in progress), go
                # again until the factor is met — unless no live
                # replica is left to copy from: requeueing that would
                # spin at this instant forever.
                want = self.controller.config.replication_factor
                if (self.controller.replica_map.has(db)
                        and self.controller.replica_map.replica_count(db)
                        < want and self.controller.live_replicas(db)):
                    self.schedule_databases([db])

    # -- placement of the new replica ----------------------------------------------

    def _choose_target(self, db: str) -> str:
        """Best-fit placement: the live machine not already hosting the
        database that currently hosts the *fewest* replicas.

        Mirrors Algorithm 2's greedy flavor at recovery time: packing
        the new replica onto the emptiest machine keeps the per-machine
        database counts level, so a later failure re-replicates a
        balanced share instead of a pile-up.
        """
        hosting = set(self.controller.replica_map.replicas(db))
        candidates = [
            m for m in self.controller.live_machines()
            if m.name not in hosting and not m.engine.hosts(db)
        ]
        if not candidates and self.controller.free_machine_hook is not None:
            fresh = self.controller.free_machine_hook()
            if fresh is not None:
                candidates = [fresh]
        if not candidates:
            raise NoReplicaError(f"no machine available to host {db!r}")
        candidates.sort(
            key=lambda m: self.controller.replica_map.hosted_count(m.name))
        return candidates[0].name

    def _recover_database(self, db: str) -> Generator:
        controller = self.controller
        if db in controller.copy_states:
            # A rejoin catch-up (or another worker's copy) already owns
            # this database; retry after it settles rather than racing
            # two pipelines toward the same replica.
            controller.trace.emit("rereplication_skipped", db=db,
                                  reason="copy-in-flight")
            raise CopyInFlight(db)
        replicas = controller.live_replicas(db)
        if not replicas:
            # All replicas lost; nothing to copy from.
            controller.trace.emit("rereplication_skipped", db=db,
                                  reason="no-source")
            return
        if controller.replica_map.replica_count(db) >= \
                controller.config.replication_factor:
            controller.trace.emit("rereplication_skipped", db=db,
                                  reason="already-replicated")
            return
        source_name = replicas[-1]  # spare the Option-1 primary
        # A cold tenant (deferred engine DDL) must exist engine-side
        # before it can be dumped from the source.
        controller.ensure_materialised(db)
        target_name = self._choose_target(db)
        mode = self.copy
        started = self.sim.now
        try:
            copied_bytes, applied_lsn = yield from copy_replica(
                controller, db, source_name, target_name, mode,
                event="rereplication")
        except Exception:
            self.records.append(RecoveryRecord(
                db, source_name, target_name, started, self.sim.now,
                0, succeeded=False, mode=mode))
            raise
        controller.replica_map.add_replica(db, target_name)
        if applied_lsn is not None:
            controller.replication.note_caught_up(db, target_name,
                                                  applied_lsn)
        controller.trace.emit(
            "rereplication_done", db=db, machine=target_name,
            replicas=controller.replica_map.replica_count(db),
            bytes=copied_bytes, mode=mode)
        self.records.append(RecoveryRecord(
            db, source_name, target_name, started, self.sim.now,
            copied_bytes, succeeded=True, mode=mode))


# -- the replica-copy pipeline (re-replication and planned migration) --------------


def copy_replica(controller: ClusterController, db: str, source_name: str,
                 target_name: str, mode: str, event: str) -> Generator:
    """Build a replica of ``db`` on ``target_name`` from ``source_name``.

    The one copy pipeline: register the :class:`CopyState`, create the
    empty database on the target from the saved DDL, run the ``mode``
    strategy (``"delta"``, or a full copy at ``"table"`` /
    ``"database"`` granularity), and clean up. ``event`` prefixes the
    ``*_start`` / ``*_abandoned`` trace kinds. Returns ``(bytes copied,
    LSN the target is consistent through)`` — the LSN is ``None`` for a
    full copy. The caller adds the replica to the map in the same
    instant (no sim time passes after the strategy returns).
    """
    source = controller.machines[source_name]
    target = controller.machines[target_name]
    # Register the copy state *before* touching the target: every
    # set-up step from here on runs under the abandonment protocol
    # (declare_dead finds the state, the except arm below drops the
    # partial replica), so a failure mid-set-up cannot strand an
    # orphaned half-created database on the target.
    state = CopyState(db, target_name, source=source_name)
    controller.copy_states[db] = state
    controller.trace.emit(f"{event}_start", db=db, machine=target_name,
                          source=source_name, mode=mode)
    try:
        target.engine.create_database_from_ddl(db, controller.ddl[db])
        return (yield from _STRATEGIES[mode](controller, db, state,
                                             source, target))
    except Exception as exc:
        # Clean the partial replica off a surviving target here, with
        # the target still in hand: when the *source* died,
        # declare_dead has already dropped the CopyState, so a
        # state-based cleanup could not find the target.
        partial_dropped = False
        if target.alive and target.engine.hosts(db):
            target.engine.drop_database(db)
            partial_dropped = True
        controller.trace.emit(f"{event}_abandoned", db=db,
                              machine=target_name,
                              error=type(exc).__name__,
                              partial_dropped=partial_dropped)
        raise
    finally:
        # Pop only our own state: a failure may have routed through
        # _abandon_copies already, and a rejoin catch-up could have
        # registered a fresh state for the same database since.
        if controller.copy_states.get(db) is state:
            del controller.copy_states[db]


def _dump(controller: ClusterController, source, body: Generator,
          label: str) -> Generator:
    # The copy tool is driven from the controller: it must reach the
    # source to dump (and the target to load, see _stream).
    controller.fabric.copy_gate(CONTROLLER, source.name)
    return (yield source.run_copy(body, label=label))


def _stream(controller: ClusterController, db: str, source, target,
            dumps) -> Generator:
    """Ship dumped tables across the rack and load them on the target.

    The stream is partition-checked at both ends of each transfer
    window, so a cut mid-copy abandons the copy (and its Algorithm 1
    reject window) promptly.
    """
    machine_cfg = controller.config.machine
    total = 0
    for dump in dumps:
        scaled = dump.bytes_estimate * machine_cfg.copy_bytes_factor
        seconds = (scaled / (1024.0 * 1024.0)) / machine_cfg.network_mbps
        yield from controller.fabric.transfer(source.name, target.name,
                                              seconds)
        controller.fabric.copy_gate(CONTROLLER, target.name)
        yield target.run_copy(
            target.load_rows_body(db, dump.table, dump.rows),
            label=f"load:{db}.{dump.table}")
        total += dump.bytes_estimate
    return total


def _copy_tables(controller: ClusterController, db: str, state: CopyState,
                 source, target) -> Generator:
    """Table-granularity copy: reject window is one table at a time."""
    total = 0
    for table_name in sorted(source.engine.database(db).tables):
        state.copying_table = table_name
        dump = yield from _dump(
            controller, source, source.dump_table_body(db, table_name),
            label=f"dump:{db}.{table_name}")
        total += yield from _stream(controller, db, source, target, [dump])
        state.copying_table = None
        state.copied_tables.add(table_name)
    return total, None


def _copy_database(controller: ClusterController, db: str, state: CopyState,
                   source, target) -> Generator:
    """Database-granularity copy: everything rejects for the duration."""
    state.copying_all = True
    dumps = yield from _dump(controller, source,
                             source.dump_database_body(db),
                             label=f"dump:{db}")
    total = yield from _stream(controller, db, source, target, dumps)
    # Tables become visible to writes only when the whole copy is done.
    state.copied_tables.update(dump.table for dump in dumps)
    state.copying_all = False
    return total, None


def _copy_delta(controller: ClusterController, db: str, state: CopyState,
                source, target) -> Generator:
    """Log-structured copy: snapshot at a pinned LSN, no rejection.

    The dump still takes its whole-database S-lock footprint, but
    only for the instant the rows are read (in-flight writers drain
    into it; the bulk I/O charge happens after release), and the
    copy state stays passive — Algorithm 1 rejects nothing while
    the snapshot streams and loads. ``on_snapshot`` pins the
    commit log at the dump instant: the S locks guarantee every
    commit with an assigned LSN has been applied on the source, so
    the snapshot contains exactly the commits with LSN <= pin and
    the retained tail after the pin is exactly what the target is
    missing. Replay then catches the target up live, and only the
    final drain handoff rejects writes.
    """
    log = controller.replication.log(db)
    holder = {}

    def on_snapshot(_dumps):
        holder["pin"] = log.pin()
        controller.trace.emit("delta_snapshot", db=db, machine=target.name,
                              lsn=holder["pin"].lsn)

    try:
        dumps = yield from _dump(
            controller, source,
            source.dump_database_body(db, on_snapshot=on_snapshot),
            label=f"dump:{db}")
        total = yield from _stream(controller, db, source, target, dumps)
        applied, _reject_s, _replayed = (
            yield from controller.replication.replay_and_handoff(
                db, target, holder["pin"].lsn, state))
        return total, applied
    finally:
        pin = holder.get("pin")
        if pin is not None:
            log.release(pin)


_STRATEGIES = {"delta": _copy_delta,
               CopyGranularity.TABLE.value: _copy_tables,
               CopyGranularity.DATABASE.value: _copy_database}
