"""The per-database replication log (Section 3.2's recovery stream).

One LSN-addressed :class:`~repro.engine.wal.RetainedTail` of committed
write statements per database, fed at the 2PC decision point, plus what
is known about how far each replica has applied it. Delta re-replication
snapshots at a pinned LSN and replays the tail on the target; a machine
declared dead by mistake rejoins by replaying from the last LSN it
acknowledged.

:class:`ReplicationLog` is a role of the cluster controller, not a part
of it: it is built from a simulator, a :class:`ClusterConfig`, the
replica map and a tracer, and imports nothing from ``controller.py``.
Per-tenant state is materialised on first touch — a cold tenant holds
neither a log nor an LSN map, and both come into being in exactly the
state a creation-time allocation would have reached by then.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Any, Dict, Generator, Iterable, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.analysis.trace import Tracer
from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Machine
from repro.cluster.replica_map import ReplicaMap
from repro.engine.wal import RetainedTail
from repro.sim import Simulator

#: Cap on tenants whose delta logs keep their retained entries resident.
#: Past it, the least-recently-committed tenant's log is compacted in
#: place (entries dropped, LSN position kept, so ``covers()`` stays
#: truthful and delta catch-up falls back to a full copy exactly as if
#: the tail had truncated). With this many writing tenants or fewer it
#: never binds.
RESIDENT_TENANT_LOGS = 64
#: Bounded live-replay rounds before the delta handoff: if sustained
#: write load keeps the target behind after this many catch-up passes,
#: the drain (reject) window starts anyway and convergence is forced by
#: rejection.
DELTA_MAX_REPLAY_ROUNDS = 10
#: Entries of each database's commit log retained for delta catch-up
#: (snapshot pins hold truncation back further while a copy is in
#: flight). A rejoining machine whose last durable LSN fell behind the
#: retained tail is wiped to a blank spare instead.
REPLICATION_LOG_RETAIN = 512


@dataclass
class CopyState:
    """Algorithm 1 bookkeeping for one database being re-replicated."""

    db: str
    target: str
    copying_table: Optional[str] = None
    copied_tables: Set[str] = field(default_factory=set)
    # Database-granularity copy: every table counts as "being copied".
    copying_all: bool = False
    # The machine being copied *from*; lets declare_dead abandon copies
    # whose source died, not just copies whose target died.
    source: Optional[str] = None


class ReplicationLog:
    """Commit logs, replica LSNs and rejoin holdings of one cluster."""

    def __init__(self, sim: Simulator, config: ClusterConfig,
                 replica_map: ReplicaMap, trace: Tracer):
        self.sim = sim
        self.config = config
        self.replica_map = replica_map
        self.trace = trace
        self.db_logs: Dict[str, RetainedTail] = {}
        # db -> machine -> last contiguously applied LSN. A replica that
        # misses a commit (gap) is dropped from tracking — it can no
        # longer rejoin by delta catch-up.
        self.replica_lsns: Dict[str, Dict[str, int]] = {}
        # Holdings of declared-dead machines: name -> {db: last LSN}
        # captured at declaration, so a machine that comes back with its
        # data intact can catch up from its last durable LSN.
        self._stale_holdings: Dict[str, Dict[str, int]] = {}
        # Recency order of tenants whose logs hold resident entries, for
        # RESIDENT_TENANT_LOGS paging (dict order = LRU; values unused).
        self._log_lru: "OrderedDict[str, None]" = OrderedDict()
        # db -> ids of open transactions that have written to it; the
        # delta handoff drains until this empties. Tracked as a set (not
        # a count) so a take-over can resolve transactions whose
        # coordinator died with the old controller — a phantom count
        # would pin the drain gauge forever.
        self._open_writers: Dict[str, Set[int]] = {}

    # -- first-touch state ---------------------------------------------------------

    def log(self, db: str) -> RetainedTail:
        """The LSN-addressed commit log of ``db``, materialised on first
        touch (a fresh tail covers its whole, empty, history)."""
        log = self.db_logs.get(db)
        if log is None:
            log = RetainedTail(retain=REPLICATION_LOG_RETAIN)
            self.db_logs[db] = log
        return log

    def lsns(self, db: str) -> Dict[str, int]:
        """``db``'s per-replica applied-LSN map, materialised on first
        touch as every *current* replica at LSN 0 — what a map kept
        since creation would hold, because LSN entries only ever change
        at commits (which come through here first) and replica-set
        changes (which delete or re-add entries either way)."""
        lsns = self.replica_lsns.get(db)
        if lsns is None:
            lsns = self.replica_lsns[db] = {
                name: 0 for name in self.replica_map.replicas_view(db)}
        return lsns

    # -- the commit stream -----------------------------------------------------------

    def append(self, db: str, txn_id: int,
               write_log: Sequence[Tuple[str, Tuple[Any, ...]]]) -> int:
        """Assign a decided commit its LSN. Runs at the decision point:
        the commit is durable and irrevocable, but no COMMIT message
        has left yet — so any machine-side apply of this transaction
        happens after its LSN exists, and a dump snapshot (which its X
        locks exclude until the apply finishes) can never contain a
        commit the log missed."""
        # First write commit = the tenant's first touch: materialise its
        # LSN tracking before the log grows, so the map captures the
        # replica set as of LSN 0.
        self.lsns(db)
        lsn = self.log(db).append((txn_id, list(write_log)))
        self._page_cold_logs(db)
        return lsn

    def _page_cold_logs(self, db: str) -> None:
        """LRU bookkeeping for resident tenant logs: ``db`` just
        appended; past ``RESIDENT_TENANT_LOGS`` the coldest tenant's log
        is compacted in place (entries dropped, LSN position kept —
        ``covers()`` then reports the truth, namely that a delta
        catch-up must fall back to a full copy, exactly as after
        ordinary retention truncation)."""
        lru = self._log_lru
        if db in lru:
            lru.move_to_end(db)
        else:
            lru[db] = None
        while len(lru) > RESIDENT_TENANT_LOGS:
            cold_db, _ = lru.popitem(last=False)
            log = self.db_logs.get(cold_db)
            if log is not None:
                dropped = log.compact()
                if dropped:
                    self.trace.emit("log_paged_out", db=cold_db,
                                    dropped=dropped)

    def advance(self, db: str, machine: str, lsn: int) -> None:
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

    def untrack(self, db: str, machine: str) -> None:
        """``machine`` may have applied a commit of ``db`` no ack
        reported (a take-over finished it; redelivery gave up): as after
        a gap, no delta rejoin."""
        lsns = self.replica_lsns.get(db)
        if lsns is not None:
            lsns.pop(machine, None)

    def note_caught_up(self, db: str, machine: str, lsn: int) -> None:
        """A recovery handoff left ``machine`` consistent through
        ``lsn``; start tracking its contiguous progress from there."""
        self.lsns(db)[machine] = lsn

    # -- the open-writer gauge ----------------------------------------------------------

    def writer_opened(self, db: str, txn_id: int) -> None:
        """Transaction ``txn_id`` issued its first write to ``db``."""
        self._open_writers.setdefault(db, set()).add(txn_id)

    def writer_finished(self, db: str, txn_id: int) -> None:
        writers = self._open_writers.get(db)
        if writers is not None:
            writers.discard(txn_id)
            if not writers:
                self._open_writers.pop(db, None)

    def open_writers(self, db: str) -> int:
        """Open transactions that have written to ``db`` (drain gauge)."""
        return len(self._open_writers.get(db, ()))

    def resolve_stale_writers(self, txn_ids: Iterable[int]) -> None:
        """Drop take-over-resolved transactions from the drain gauge.

        A coordinator that dies with the old controller never finishes
        its transaction, which would count as an open writer forever and
        wedge any later delta-handoff drain on that database. The
        take-over settles every such transaction (committing decided
        ones, presuming the rest aborted), after which none of them can
        append new log entries — remove them from the gauge.
        """
        drop = set(txn_ids)
        for db in list(self._open_writers):
            writers = self._open_writers[db]
            writers.difference_update(drop)
            if not writers:
                del self._open_writers[db]

    # -- delta replay ------------------------------------------------------------------

    def replay_and_handoff(self, db: str, target: Machine, from_lsn: int,
                           state: CopyState,
                           skip_txns: Optional[Set[int]] = None
                           ) -> Generator:
        """Replay the retained log onto ``target``, then drain to handoff.

        Live phase: batches of retained entries after ``from_lsn``
        replay on the target while writes keep flowing to the serving
        replicas (``state`` stays passive, so Algorithm 1 rejects
        nothing). Once a replay pass finds the log head stable — or
        after ``DELTA_MAX_REPLAY_ROUNDS`` passes under sustained load —
        the drain begins: ``state.copying_all`` flips, new writes are
        rejected, and the loop replays stragglers until the head stops
        moving and no open transaction has unfinished writes to ``db``.
        Returns ``(applied_lsn, reject_seconds, replayed_entries)``;
        the caller adds the replica and clears the copy state (no sim
        time passes after the drain completes).
        """
        log = self.log(db)
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
                if not entries or rounds >= DELTA_MAX_REPLAY_ROUNDS:
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

    # -- machines leaving and rejoining ----------------------------------------------------

    def machine_left(self, name: str, affected: Iterable[str]) -> None:
        """``name`` just left the replica sets of ``affected``: stop
        tracking its LSNs, and remember how far it had applied each
        database — a declared machine may be alive behind a partition,
        and if it comes back with its data intact it can catch up from
        there instead of being wiped. An empty ``affected`` (a repaired,
        blank machine) forgets what it held."""
        holdings: Dict[str, int] = {}
        for db in affected:
            lsns = self.replica_lsns.get(db)
            # No LSN map yet: the database never committed a write, so
            # every mapped replica stands at LSN 0.
            lsn = 0 if lsns is None else lsns.pop(name, None)
            if lsn is not None:
                holdings[db] = lsn
        if holdings:
            self._stale_holdings[name] = holdings
        else:
            self._stale_holdings.pop(name, None)

    def rejoin_eligibility(self, name: str, machine: Machine,
                           copying: Mapping[str, CopyState]
                           ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """What a returning declared machine held, and the part of it
        that can rejoin by delta catch-up: ``(holdings, eligible)``, each
        ``{db: last acknowledged LSN}``. Eligible is a database it still
        holds, whose commit suffix the retained log still covers, that
        nothing else is copying and that is still short of a replica."""
        holdings = self._stale_holdings.pop(name, {})
        eligible: Dict[str, int] = {}
        if machine.alive:
            rm = self.replica_map
            for db, lsn in holdings.items():
                if not rm.has(db):
                    continue
                # log() (not db_logs.get): a log nobody has touched yet
                # covers its whole (empty) history.
                if (self.log(db).covers(lsn)
                        and machine.engine.hosts(db)
                        and db not in copying
                        and name not in rm.replicas_view(db)
                        and (rm.replica_count(db)
                             < self.config.replication_factor)):
                    eligible[db] = lsn
        return holdings, eligible

    # -- database lifecycle ------------------------------------------------------------------

    def drop_database(self, db: str) -> None:
        self._log_lru.pop(db, None)
        self.db_logs.pop(db, None)
        self.replica_lsns.pop(db, None)
        self._open_writers.pop(db, None)

    def clear(self) -> None:
        self.db_logs.clear()
        self.replica_lsns.clear()
        self._log_lru.clear()
        self._stale_holdings.clear()
        self._open_writers.clear()
