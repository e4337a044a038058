"""The system controller: colos, proximity routing, disaster recovery.

"The colos are coordinated by a fault-tolerant system controller, which
routes client database connection requests to an appropriate colo, based
on... the replication configuration for the database, the load and status
of the colo, and the geographical proximity of the client and the colo.
A client database is (asynchronously) replicated across more than one
colo to provide disaster recovery."

Asynchronous replication is write-shipping: every committed writing
transaction's statements are appended to a per-database, sequence-
numbered replication log and replayed *in commit order* on the standby
colo's copy. Guarantees are deliberately weaker than in-cluster
replication (the paper's design): on colo failure the standby may miss
a suffix of recent transactions, but is always a transaction-consistent
prefix — the bounded data-loss window reported as RPO.

Entries ride :class:`~repro.cluster.network.NetworkFabric` WAN links
with seeded latency/jitter/drop and cut/heal partitions (without a
``wan`` config: lossless and jitter-free at ``wan_latency_s``). Shipping
is resumable — an entry is retransmitted with backoff until the standby
acks it — and apply is at-most-once keyed on ``(db, seq)``: a
redelivered entry the standby already applied is acked without
reapplying. An entry the standby cannot apply yet is *lag*, never a
drop: it waits in the log until the standby answers or the link is torn
down — the standby applies a prefix of the commit order, always.

Colo failover is detection-driven: the system
controller heartbeats every colo, *suspects* after K consecutive
misses, *declares* after more, fences the colo under a monotonically
increasing epoch (a fenced primary refuses new connections and stops
shipping), promotes the standby, and then *re-protects* each promoted
database by establishing a fresh standby on a surviving colo via
snapshot copy plus log catch-up. A repaired colo rejoins as a blank
standby target through the same path (failback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.analysis.metrics import MetricsCollector
from repro.analysis.trace import Tracer
from repro.cluster.controller import Connection, TransactionAborted
from repro.cluster.membership import HeartbeatDetector
from repro.cluster.network import SYSTEM, NetworkConfig, NetworkFabric
from repro.errors import NoReplicaError, PlatformError
from repro.platform.colo import ColoController
from repro.sim import Interrupt, Process, Simulator, Store
from repro.sla.model import ResourceVector, Sla


@dataclass
class ReplicationLink:
    """Async write-shipping from a primary colo db to a standby colo.

    ``log`` holds not-yet-acked entries keyed by sequence number;
    ``next_seq`` is the next number to assign. ``applied_seq`` is the
    standby's high-water mark (entries at or below it are duplicates on
    redelivery — the at-most-once key is ``(db, seq)``); ``acked_seq``
    is the primary's view of it. ``shipped``/``applied`` count entries
    for the lag metric: lag = shipped - applied.
    """

    db: str
    primary: str
    standby: str
    queue: Store
    applier: Optional[Process] = None
    shipped: int = 0
    applied: int = 0
    next_seq: int = 1
    applied_seq: int = 0
    acked_seq: int = 0
    torn: bool = False
    log: Dict[int, List[Tuple[str, Tuple]]] = field(default_factory=dict)
    hook: Any = None
    hook_cluster: Any = None


@dataclass
class DbRecord:
    """What the system controller needs to re-protect a database, and the
    SLA its serving copy enforces (a standby copy enforces none)."""

    db: str
    ddl: Optional[List[str]] = None
    requirement: Optional[ResourceVector] = None
    standby_replicas: int = 1
    sla: Optional[Sla] = None


class SystemController:
    """Top-level coordinator across geographically distributed colos."""

    def __init__(self, sim: Simulator, wan_latency_s: float = 0.05,
                 wan: Optional[NetworkConfig] = None,
                 heartbeat_interval_s: float = 0.5,
                 suspect_after_misses: int = 2,
                 declare_after_misses: int = 5,
                 wan_mbps: float = 50.0,
                 reprotect_retry_s: float = 5.0,
                 trace_capacity: int = 65536):
        self.sim = sim
        self.wan_latency_s = wan_latency_s
        self.wan_config = wan or NetworkConfig(enabled=True,
                                               latency_s=wan_latency_s)
        self.wan_mbps = wan_mbps
        self.reprotect_retry_s = reprotect_retry_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.suspect_after_misses = suspect_after_misses
        self.declare_after_misses = declare_after_misses
        self.metrics = MetricsCollector()
        self.trace = Tracer(capacity=trace_capacity,
                            clock=lambda: self.sim.now, metrics=self.metrics)
        self.wan = NetworkFabric(sim, self.wan_config, metrics=self.metrics,
                                 trace=self.trace)
        # wan_enabled: a constant now, kept because the dr soak's replay
        # hash covers this event.
        self.trace.emit("trace_meta", tier="system", wan_enabled=True)
        self.colos: Dict[str, ColoController] = {}
        # db -> (primary colo, standby colo or None)
        self.placements: Dict[str, Tuple[str, Optional[str]]] = {}
        self.links: Dict[str, ReplicationLink] = {}
        self.records: Dict[str, DbRecord] = {}
        # Monotonic fencing epoch; bumped by every declare/fail.
        self.epoch = 0
        self.declared_dead: set = set()
        # Heartbeats over SYSTEM -> colo links of the WAN fabric; this
        # class keeps only the reactions (declare_colo_dead /
        # repair_colo).
        self.detector = HeartbeatDetector(
            sim, self.wan, SYSTEM, self.colos, self.declared_dead, self,
            name="system:colo-detector", probe_prefix="colo-hb",
            on_suspect=self._on_suspect, on_unsuspect=self._on_unsuspect,
            on_declare=self.declare_colo_dead, on_return=self._on_return,
            declare_allowed=self._declare_colo_allowed)
        self._reprotect_procs: Dict[str, Process] = {}

    # -- membership ------------------------------------------------------------

    def add_colo(self, colo: ColoController) -> None:
        if colo.name in self.colos:
            raise ValueError(f"colo {colo.name!r} already registered")
        self.colos[colo.name] = colo

    def live_colos(self) -> List[ColoController]:
        return [c for c in self.colos.values() if c.alive and not c.fenced]

    # -- database placement across colos ---------------------------------------------

    def register_database(self, db: str, primary: str,
                          standby: Optional[str] = None,
                          ddl: Optional[List[str]] = None,
                          requirement: Optional[ResourceVector] = None,
                          standby_replicas: int = 1,
                          sla: Optional[Sla] = None) -> None:
        """Record a database's colo placement and start async shipping.

        ``ddl``/``requirement`` (when provided) let the controller
        re-protect the database after a failover: a fresh standby can be
        placed and created from scratch on a surviving colo. ``sla`` is
        enforced by whichever copy serves: the primary now, a standby
        once it is promoted.
        """
        if primary not in self.colos:
            raise NoReplicaError(f"unknown colo {primary!r}")
        if standby is not None and standby not in self.colos:
            raise NoReplicaError(f"unknown colo {standby!r}")
        self.placements[db] = (primary, standby)
        self.records[db] = DbRecord(db, ddl=list(ddl) if ddl else None,
                                    requirement=requirement,
                                    standby_replicas=standby_replicas,
                                    sla=sla)
        self.trace.emit("dr_protect", db=db, primary=primary,
                        standby=standby, base_seq=0)
        if standby is None:
            return
        link = self._attach_link(db, primary, standby)
        self._start_link(link)

    def deregister_database(self, db: str) -> None:
        """Drop a database from the platform: tear down its replication
        link (cancelling the applier) and remove its data and placement
        load from every hosting colo."""
        self._teardown_link(db)
        self.placements.pop(db, None)
        self.records.pop(db, None)
        self._cancel_reprotect(db)
        for colo in self.colos.values():
            if colo.hosts(db) and colo.alive:
                colo.drop_database(db)

    # -- the replication log ---------------------------------------------------------

    def _attach_link(self, db: str, primary: str,
                     standby: str) -> ReplicationLink:
        """Create a link and start sequencing the primary's commits.

        Synchronous (no sim time passes between the caller's snapshot
        and the hook attach), so the log is exactly the commit suffix
        after the snapshot instant.
        """
        link = ReplicationLink(db, primary, standby, Store(self.sim))
        cluster = self.colos[primary].cluster_of(db)

        def hook(committed_db, txn_id, writes, link=link):
            self._on_commit(link, committed_db, writes)

        link.hook = hook
        link.hook_cluster = cluster
        cluster.commit_hooks.append(hook)
        self.links[db] = link
        return link

    def _start_link(self, link: ReplicationLink) -> None:
        applier = self.sim.process(self._ship_loop(link),
                                   name=f"ship:{link.db}")
        applier.defused = True  # runs until the link is torn
        link.applier = applier

    def _teardown_link(self, db: str) -> None:
        link = self.links.pop(db, None)
        if link is None:
            return
        link.torn = True
        if link.applier is not None and link.applier.is_alive:
            link.applier.defused = True
            link.applier.interrupt("link torn")
        if link.hook is not None and link.hook_cluster is not None:
            try:
                link.hook_cluster.commit_hooks.remove(link.hook)
            except ValueError:
                pass
        self.trace.emit("dr_link_torn", db=db, primary=link.primary,
                        standby=link.standby,
                        lag=link.shipped - link.applied)

    def _on_commit(self, link: ReplicationLink, db: str, writes) -> None:
        if db != link.db or not writes or link.torn:
            return
        primary_colo = self.colos.get(link.primary)
        if (primary_colo is None or not primary_colo.alive
                or primary_colo.fenced):
            return  # a fenced primary stops shipping
        seq = link.next_seq
        link.next_seq += 1
        link.shipped += 1
        link.log[seq] = list(writes)
        link.queue.put(seq)
        self.trace.emit("dr_ship", db=link.db, rseq=seq,
                        src=link.primary, dst=link.standby)

    def _replay(self, colo: ColoController, db: str, writes) -> Generator:
        """Apply one shipped transaction on a fresh standby connection."""
        conn = colo.connect(db)
        try:
            for sql, params in writes:
                yield conn.execute(sql, params)
            yield conn.commit()
        finally:
            conn.close()

    def _standby_colo(self, link: ReplicationLink
                      ) -> Optional[ColoController]:
        colo = self.colos.get(link.standby)
        if (colo is None or not colo.alive or colo.fenced
                or not colo.hosts(link.db)):
            return None
        return colo

    def _ship_loop(self, link: ReplicationLink) -> Generator:
        """Sequenced, resumable, at-most-once shipping.

        Each entry is sent over the WAN link until the standby acks it;
        a drop or cut in either direction just means a retransmission
        after backoff (resumable catch-up — a long outage drains once
        the link heals). The standby applies an entry only once: a
        redelivery of ``seq <= applied_seq`` is acked without reapply.
        """
        try:
            while not link.torn:
                seq = yield link.queue.get()
                writes = link.log.get(seq)
                if writes is None:
                    continue
                attempt = 0
                while not link.torn:
                    primary_colo = self.colos.get(link.primary)
                    if (primary_colo is None or not primary_colo.alive
                            or primary_colo.fenced):
                        return  # a fenced/dead primary stops shipping
                    delivered = yield from self.wan.deliver(link.primary,
                                                            link.standby)
                    applied = False
                    if delivered:
                        applied = yield from self._apply_shipped(link, seq,
                                                                 writes)
                    if applied:
                        acked = yield from self.wan.deliver(link.standby,
                                                            link.primary)
                        if acked:
                            link.acked_seq = seq
                            link.log.pop(seq, None)
                            break
                    attempt += 1
                    yield self.sim.timeout(self.wan.backoff_delay(attempt))
        except Interrupt:
            return

    def _apply_shipped(self, link: ReplicationLink, seq: int,
                       writes) -> Generator:
        """Standby-side apply, at-most-once keyed on ``(db, seq)``."""
        if seq <= link.applied_seq:
            return True  # duplicate delivery; ack without reapplying
        standby_colo = self._standby_colo(link)
        if standby_colo is None:
            return False
        attempt = 0
        while not link.torn:
            try:
                yield from self._replay(standby_colo, link.db, writes)
            except TransactionAborted:
                # An apply conflict retries until it succeeds: a dropped
                # entry would break the standby-prefix guarantee.
                attempt += 1
                yield self.sim.timeout(self.wan.backoff_delay(attempt))
                continue
            except PlatformError:
                return False
            link.applied += 1
            link.applied_seq = seq
            self.trace.emit("dr_apply", db=link.db, rseq=seq,
                            machine=link.standby)
            return True
        return False

    # -- connection routing ---------------------------------------------------------

    def route(self, db: str,
              client_location: float = 0.0) -> ColoController:
        """Pick the colo to serve a connection.

        Prefers the primary colo; falls back to the standby when the
        primary is gone (disaster routing). Among equals, proximity wins
        (the |location - client| metric stands in for geography). Dead
        and fenced colos are never candidates.
        """
        if db not in self.placements:
            raise NoReplicaError(f"database {db!r} is not registered")
        primary, standby = self.placements[db]
        candidates = [name for name in (primary, standby)
                      if name is not None and name in self.colos
                      and self.colos[name].alive
                      and not self.colos[name].fenced
                      and self.colos[name].hosts(db)]
        if not candidates:
            raise NoReplicaError(f"no colo can serve {db!r}")
        candidates.sort(key=lambda name: (
            0 if name == primary else 1,
            abs(self.colos[name].location - client_location)))
        return self.colos[candidates[0]]

    def connect(self, db: str, client_location: float = 0.0) -> Connection:
        return self.route(db, client_location).connect(db)

    # -- colo failure detection ---------------------------------------------------------

    def start_failure_detector(self) -> Process:
        """Start heartbeating every colo over the WAN fabric.

        A colo is *suspected* after ``suspect_after_misses`` consecutive
        silent heartbeats, *declared* dead (fenced under a new epoch,
        standbys promoted, re-protection scheduled) after
        ``declare_after_misses``, and rejoined as a blank standby target
        if it ever answers again.
        """
        return self.detector.start()

    def _on_suspect(self, name: str, misses: int) -> None:
        self.trace.emit("colo_suspected", machine=name, misses=misses)

    def _on_unsuspect(self, name: str, suspected_for: float) -> None:
        self.trace.emit("colo_unsuspected", machine=name,
                        suspected_for=suspected_for)

    def _on_return(self, name: str) -> None:
        # False declaration: the colo was alive behind a partition. Its
        # state is stale (its databases were promoted away); it rejoins
        # blank through failback.
        self.metrics.dr.false_suspicions += 1
        self.repair_colo(name)

    def _declare_colo_allowed(self, name: str) -> bool:
        """Never declare a colo whose loss would lose a database
        outright: every database it primaries must have a live, unfenced
        standby holding a copy. It stays merely suspected until the
        partition heals or re-protection lands a standby elsewhere."""
        for db, (primary, standby) in self.placements.items():
            if primary != name:
                continue
            standby_colo = self.colos.get(standby) if standby else None
            if (standby_colo is None or not standby_colo.alive
                    or standby_colo.fenced or not standby_colo.hosts(db)):
                return False
        return True

    # -- disaster handling -------------------------------------------------------------

    def declare_colo_dead(self, name: str, reason: str = "") -> List[str]:
        """Declare a silent colo dead: fence it under a fresh epoch,
        promote standbys, and schedule re-protection.

        Fencing models the colo-side lease expiring at the declaration:
        even if the colo is alive on the far side of a partition it
        refuses new connections and stops shipping, so the promoted
        standby is the *only* primary under the new epoch (no dual
        primary)."""
        colo = self.colos.get(name)
        if colo is None:
            raise ValueError(f"unknown colo {name!r}")
        if name in self.declared_dead:
            return []
        self.detector.forget(name)
        self.declared_dead.add(name)
        self.epoch += 1
        was_alive = colo.alive
        colo.fence()
        self.trace.emit("colo_declared", machine=name, reason=reason,
                        was_alive=was_alive)
        self.trace.emit("colo_fenced", machine=name, epoch=self.epoch)
        return self._handle_colo_loss(name, self.epoch, self.sim.now)

    def crash_colo(self, name: str) -> None:
        """Power a colo off *without* telling the system controller.

        Nothing is promoted here — only the heartbeat failure detector
        can notice the silence and drive declare→fence→promote."""
        colo = self.colos.get(name)
        if colo is None:
            raise ValueError(f"unknown colo {name!r}")
        colo.crash()
        self.trace.emit("colo_crashed", machine=name)

    def fail_colo(self, name: str) -> List[str]:
        """Lose a whole colo: a crash the system controller declares at
        once. Returns the databases whose primary was lost."""
        self.crash_colo(name)
        return self.declare_colo_dead(name, reason="failed")

    def repair_colo(self, name: str) -> None:
        """Wipe a failed/fenced colo and rejoin it as a blank standby
        target; unprotected databases re-protect onto it (failback)."""
        colo = self.colos.get(name)
        if colo is None:
            raise ValueError(f"unknown colo {name!r}")
        colo.repair()
        self.declared_dead.discard(name)
        self.detector.forget(name)
        self.trace.emit("colo_repaired", machine=name)
        self._kick_reprotects()

    def _handle_colo_loss(self, name: str, epoch: int,
                          declared_at: float) -> List[str]:
        affected = []
        for db, (primary, standby) in list(self.placements.items()):
            if primary == name:
                affected.append(db)
                standby_colo = (self.colos.get(standby)
                                if standby is not None else None)
                if (standby_colo is not None and standby_colo.alive
                        and not standby_colo.fenced
                        and standby_colo.hosts(db)):
                    self._promote(db, name, standby, epoch, declared_at)
                else:
                    self._teardown_link(db)
                    self.placements.pop(db)
            elif standby == name:
                self._teardown_link(db)
                self.placements[db] = (primary, None)
                self._schedule_reprotect(db)
        return affected

    def _promote(self, db: str, old_primary: str, new_primary: str,
                 epoch: int, declared_at: float) -> None:
        link = self.links.get(db)
        # RPO: acked commits the standby never applied — the logged
        # suffix above its high-water mark at promotion time.
        rpo = ((link.next_seq - 1) - link.applied_seq
               if link is not None else 0)
        self._teardown_link(db)
        self.placements[db] = (new_primary, None)
        # The SLA follows the serving copy. Replaying the shipped log is
        # platform traffic and spent none of the tenant's tokens; from
        # now on its clients do.
        self.colos[new_primary].cluster_of(db).set_sla(db,
                                                       self.records[db].sla)
        self.trace.emit("dr_promote", db=db, old=old_primary,
                        new=new_primary, epoch=epoch, rpo_commits=rpo,
                        declared_at=declared_at)
        self._arm_rto(db, new_primary, declared_at)
        self._schedule_reprotect(db)

    def _arm_rto(self, db: str, new_primary: str,
                 declared_at: float) -> None:
        """RTO stops the clock at the first successful statement a
        client lands on the promoted primary."""
        colo = self.colos.get(new_primary)
        if colo is None or not colo.hosts(db):
            return
        cluster = colo.cluster_of(db)

        def hook(hdb, db=db, cluster=cluster, declared_at=declared_at):
            if hdb != db:
                return
            self.trace.emit("dr_rto", db=db,
                            seconds=self.sim.now - declared_at)
            try:
                cluster.statement_hooks.remove(hook)
            except ValueError:
                pass

        cluster.statement_hooks.append(hook)

    # -- re-protection (snapshot copy + log catch-up) ---------------------------------

    def _schedule_reprotect(self, db: str) -> None:
        proc = self._reprotect_procs.get(db)
        if proc is not None and proc.is_alive:
            return
        proc = self.sim.process(self._reprotect_loop(db),
                                name=f"reprotect:{db}")
        proc.defused = True
        self._reprotect_procs[db] = proc

    def _cancel_reprotect(self, db: str) -> None:
        proc = self._reprotect_procs.pop(db, None)
        if proc is not None and proc.is_alive:
            proc.interrupt("database deregistered")

    def _kick_reprotects(self) -> None:
        """Re-scan for unprotected databases (a colo was repaired or
        added, so a parked re-protection may now have a target)."""
        for db, (primary, standby) in list(self.placements.items()):
            if standby is not None:
                continue
            colo = self.colos.get(primary)
            if colo is not None and colo.alive and not colo.fenced:
                self._schedule_reprotect(db)

    def _pick_reprotect_target(self, db: str,
                               primary: str) -> Optional[str]:
        record = self.records.get(db)
        if (record is None or record.ddl is None
                or record.requirement is None):
            return None  # not enough to re-create the database
        candidates = [c for c in self.colos.values()
                      if c.name != primary and c.alive and not c.fenced
                      and not c.hosts(db)]
        if not candidates:
            return None
        candidates.sort(key=lambda c: (-c.free_pool, c.name))
        return candidates[0].name

    def _reprotect_loop(self, db: str) -> Generator:
        """Establish a fresh standby for an unprotected database.

        Parks (returns) when no surviving colo can host the copy — a
        later :meth:`repair_colo`/:meth:`add_colo` re-kicks it — and
        retries after a delay on transient failures (e.g. a WAN cut in
        the middle of the snapshot transfer)."""
        try:
            while True:
                record = self.records.get(db)
                placement = self.placements.get(db)
                if record is None or placement is None:
                    return
                primary, standby = placement
                if standby is not None:
                    return
                primary_colo = self.colos.get(primary)
                if (primary_colo is None or not primary_colo.alive
                        or primary_colo.fenced):
                    return
                target = self._pick_reprotect_target(db, primary)
                if target is None:
                    return  # parked until a target colo appears
                try:
                    done = yield from self._reprotect_once(db, record,
                                                           primary, target)
                except PlatformError:
                    done = False
                if done:
                    return
                yield self.sim.timeout(self.reprotect_retry_s)
        except Interrupt:
            return

    def _reprotect_once(self, db: str, record: DbRecord, primary: str,
                        target_name: str) -> Generator:
        """One snapshot-copy + catch-up attempt toward ``target_name``.

        The dump runs *without* rejecting writes, and the replication
        link is attached at the snapshot instant — the dump's S locks
        guarantee every commit whose hook has fired is in the snapshot,
        and every later commit's hook lands in the fresh link's log, so
        catch-up replays exactly the suffix after the snapshot and the
        standby is a transaction-consistent prefix.
        """
        primary_colo = self.colos[primary]
        target_colo = self.colos[target_name]
        cluster = primary_colo.cluster_of(db)
        sources = cluster.live_replicas(db)
        if not sources:
            raise NoReplicaError(f"no live replica of {db!r} to copy")
        self.trace.emit("dr_reprotect_start", db=db, src=primary,
                        target=target_name, mode="delta")
        target_colo.place_database(db, record.ddl, record.requirement,
                                   record.standby_replicas)
        link: Optional[ReplicationLink] = None
        try:
            source = cluster.machines[sources[-1]]  # spare the primary
            # No copy state, no rejection: commit hooks fire at the
            # decision point, and a decided-but-unapplied commit's X
            # locks block the dump — so attaching the link inside the
            # dump's synchronous snapshot step (no yields) splits
            # commits exactly: hooks fired before the attach are in the
            # rows read, hooks after land in the link log.
            holder: Dict[str, ReplicationLink] = {}

            def on_snapshot(_dumps):
                holder["link"] = self._attach_link(db, primary, target_name)

            dumps = yield source.run_copy(
                source.dump_database_body(db, on_snapshot=on_snapshot),
                label=f"dr-dump:{db}")
            link = holder.get("link")
            nbytes = sum(dump.bytes_estimate for dump in dumps)
            yield from self._wan_transfer(primary, target_name, nbytes)
            if (not primary_colo.alive or primary_colo.fenced
                    or not target_colo.alive or target_colo.fenced
                    or link.torn or db not in self.placements):
                raise NoReplicaError(
                    f"re-protection of {db!r} lost an endpoint")
            target_cluster = target_colo.cluster_of(db)
            for dump in dumps:
                target_cluster.bulk_load(db, dump.table, dump.rows)
            self.placements[db] = (primary, target_name)
            self._start_link(link)
        except BaseException:
            if link is not None and self.links.get(db) is link:
                self._teardown_link(db)
            if target_colo.alive and not target_colo.fenced:
                target_colo.drop_database(db)
            raise
        failback = target_colo.was_failed
        self.trace.emit("dr_reprotect_done", db=db, primary=primary,
                        standby=target_name, base_seq=0,
                        failback=failback)
        self.trace.emit("dr_protect", db=db, primary=primary,
                        standby=target_name, base_seq=0)
        if failback:
            self.trace.emit("dr_failback", db=db, machine=target_name)
        return True

    def _wan_transfer(self, src: str, dst: str, nbytes: int) -> Generator:
        """Cross-colo transfer time for the snapshot stream."""
        machine_cfg = self.colos[src].cluster_config.machine
        scaled = nbytes * machine_cfg.copy_bytes_factor
        seconds = (scaled / (1024.0 * 1024.0)) / self.wan_mbps
        yield from self.wan.transfer(src, dst, seconds)

    # -- metrics ---------------------------------------------------------------------

    def replication_lag(self, db: str) -> int:
        """Shipped-but-unapplied transaction count (staleness metric)."""
        link = self.links.get(db)
        if link is None:
            return 0
        return link.shipped - link.applied
