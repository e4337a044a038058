"""Structured cluster event tracing (the observability layer).

The cluster controller, its control plane, machines, recovery and
migration all emit typed, sim-time-stamped :class:`TraceEvent` records into a
shared ring-buffered :class:`Tracer`. The trace is the ground truth the
2PC invariant checker (:mod:`repro.analysis.invariants`) audits, and is
exportable as JSONL (``python -m repro.harness <experiment> --trace``).

Event taxonomy (the ``kind`` field):

================== ==========================================================
kind               emitted when
================== ==========================================================
trace_meta         tracer attached; carries policy/replication configuration
txn_begin          a connection opens a new transaction
write_issued       a write statement is fanned out to one replica
write_acked        that replica's ack reached the coordinator — stamped at
                   that instant, whatever the other replicas are doing
write_failed       that replica's write branch settled any other way,
                   stamped likewise (``error`` names the exception type,
                   or is "moot" for an answer from a machine declared
                   dead meanwhile)
poisoned           an aggressive-mode background write failure was recorded
prepare            2PC phase 1 succeeded on one participant
prepare_failed     one participant's PREPARE branch settled any other way
                   (``error`` as for ``write_failed``)
fanout_start       a coordinator broadcast was issued (``label`` names the
                   phase, ``width`` the branch count)
fanout_done        every gathered branch of that broadcast settled
                   (``elapsed`` is the scatter-to-gather span)
decision_logged    the coordinator decided commit, once the control plane
                   holds the decision (``actor`` replica, ``term``)
commit_sent        a COMMIT message left the coordinator for one machine
committed          the transaction finished committing
abort              the transaction was rolled back by the platform
rollback           the client voluntarily rolled back
copy_abandoned     a live copy lost its source or target to a failure
rereplication_*    queued / start / done / abandoned / skipped, from the
                   recovery manager
delta_snapshot     a log-structured copy pinned the commit log at the
                   dump's snapshot instant (``lsn``)
delta_drain_start  the delta handoff began rejecting writes (drain)
delta_handoff      the delta replay converged (``reject_s`` window)
machine_catchup_*  start / done / failed, per database, of a declared
                   machine rejoining with data via delta catch-up
migration_*        start / done / abandoned, from the migration manager
takeover_*         one transaction a controller take-over completed
                   (``takeover_commit``) or presumed-aborted
                   (``takeover_abort``), by its ``actor`` replica
machine_crashed    a machine powered off (only a declare takes it out of
                   the replica map: the detector's, or ``fail_machine``'s
                   at once)
machine_suspected  K consecutive heartbeats went unanswered
machine_unsuspected a suspected machine answered again (false suspicion)
machine_declared   a silent machine was declared dead (``reason``
                   "failed" when ``fail_machine`` declared it at its
                   crash; ``affected`` lists databases that lost a replica)
machine_fenced     a declared machine was fenced (serves nothing stale)
machine_readmitted a falsely declared machine rejoined (``mode`` is
                   "spare" for a blank wipe, "catchup" for a delta
                   rejoin from its last durable LSN)
machine_repaired   a failed machine was repaired into a blank spare
link_cut/healed    one fabric link was cut / healed by fault injection
net_partition      the fabric was split into disconnected groups
net_heal_all       every cut fabric link was healed
ctl_election_start a controller replica started a leader campaign
                   (``term`` it is campaigning for)
ctl_leader_elected a campaign won its quorum (``term``, ``lease_until``)
ctl_lease_renewed  a leader's lease was extended by a renewal quorum
                   (``term``, new ``lease_until``)
ctl_stepdown       a leader stopped leading (``term``, ``reason``)
ctl_applied        a replica of a group with peers applied log entry
                   ``index`` (``command`` kind, ``digest`` of the command)
                   to its state machine
ctl_takeover       a newly elected leader — or a restarted group of one —
                   finished take-over cleanup
                   (``term``, ``previous`` leader, ``completed``/``aborted``
                   transaction counts)
ctl_crashed        a controller replica was fail-stopped (``acting``: it
                   was driving the data plane, whose detector stops)
ctl_repaired       a crashed controller replica restarted
txn_orphaned       an in-flight transaction straddled a controller
                   leadership change and was cleaned up by take-over
                   (``term`` it began in, ``current_term``)
dr_protect         a database was placed under cross-colo protection
                   (``primary``/``standby`` colos, ``base_seq`` of the log)
dr_ship            one committed transaction was sequenced into a database's
                   replication log (``rseq`` is the per-link sequence number)
dr_apply           the standby colo applied log entry ``rseq``
dr_link_torn       a replication link was torn down (colo failure or
                   database deregistration)
colo_crashed       a colo went silent (only a declare promotes: the
                   detector's, or ``fail_colo``'s at once)
colo_suspected     K consecutive colo heartbeats went unanswered
colo_unsuspected   a suspected colo answered again (false suspicion)
colo_declared      the system controller declared a silent colo dead
                   (``reason`` "failed" when ``fail_colo`` declared it)
colo_fenced        a declared colo was fenced under a new ``epoch``
colo_repaired      a colo was wiped and rejoined as a blank standby target
dr_promote         a standby colo was promoted to primary for a database
                   (``epoch``, ``rpo_commits`` = acked commits lost)
dr_rto             first successful statement on the promoted primary
                   (``seconds`` since the declare)
dr_reprotect_start snapshot copy toward a fresh standby began
dr_reprotect_done  the fresh standby finished catch-up and is in service
dr_failback        the fresh standby landed on a previously failed colo
admission_reject   a new transaction was turned away at the door: its
                   tenant's token bucket was empty (``rate`` is the
                   provisioned admission rate in tps)
shed_read          a read spilled off an over-watermark replica to the
                   least-loaded one (``machine`` serves it, ``load`` its
                   in-flight count at the choice)
sla_window         one SLA-monitor observation window for one database
                   (``offered_tps``, ``finished``, ``rejected`` =
                   admission rejections, ``bound``, ``within_rate``)
sla_breach         a window's admission-rejected fraction exceeded the
                   tenant's ``max_rejected_fraction`` (``fraction``,
                   ``bound``, ``within_rate``)
cluster_reset      a repaired colo's cluster was wiped back to blank machines
db_materialised    a cold database's deferred engine-side DDL ran on its
                   replicas (first statement, bulk load or copy touching it)
log_paged_out      a cold tenant's commit log was compacted to stay under
                   ``RESIDENT_TENANT_LOGS`` (``dropped`` entries)
fault              the fault applier reached one schedule entry (``at``,
                   ``fault`` = its kind, ``target``, ``resolved``;
                   ``skipped`` is the guard's reason, or null) — the
                   exported trace carries the schedule that made it
================== ==========================================================

Adding an event: call ``tracer.emit(kind, db=..., txn=..., machine=...,
**extra)`` at the site and a row to the table above (``emit`` accepts any
kind; ``tests/unit/test_code_shape.py`` holds the table to the emit
sites). If the checker should understand it, teach
:mod:`repro.analysis.invariants` the kind.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, TextIO,
                    Union)


@dataclass(slots=True)
class TraceEvent:
    """One sim-time-stamped occurrence in the cluster.

    ``seq`` is a tracer-assigned monotone counter: events emitted at the
    same simulated time keep their emission order under ``(t, seq)``.
    """

    seq: int
    t: float
    kind: str
    db: Optional[str] = None
    txn: Optional[int] = None
    machine: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"seq": self.seq, "t": self.t,
                                  "kind": self.kind}
        if self.db is not None:
            record["db"] = self.db
        if self.txn is not None:
            record["txn"] = self.txn
        if self.machine is not None:
            record["machine"] = self.machine
        if self.extra:
            record["extra"] = self.extra
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        return cls(seq=record["seq"], t=record["t"], kind=record["kind"],
                   db=record.get("db"), txn=record.get("txn"),
                   machine=record.get("machine"),
                   extra=dict(record.get("extra", {})))


class Tracer:
    """Ring-buffered event trace shared by one cluster's components.

    The buffer holds the most recent ``capacity`` events; older ones are
    dropped (counted in :attr:`dropped`) so long soaks cannot exhaust
    memory. The invariant checker weakens cross-event rules when a trace
    is truncated.
    """

    def __init__(self, capacity: int = 65536,
                 clock: Optional[Callable[[], float]] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.clock = clock or (lambda: 0.0)
        self._events: List[TraceEvent] = []
        self._start = 0          # ring head index into _events
        self._seq = itertools.count()
        self.dropped = 0

    # -- recording -----------------------------------------------------------

    def emit(self, kind: str, db: Optional[str] = None,
             txn: Optional[int] = None, machine: Optional[str] = None,
             **extra: Any) -> TraceEvent:
        event = TraceEvent(seq=next(self._seq), t=self.clock(), kind=kind,
                           db=db, txn=txn, machine=machine, extra=extra)
        if len(self._events) < self.capacity:
            self._events.append(event)
        else:
            # Overwrite the oldest slot; the ring never reallocates.
            self._events[self._start] = event
            self._start = (self._start + 1) % self.capacity
            self.dropped += 1
        return event

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self, kind: Optional[str] = None, db: Optional[str] = None,
               txn: Optional[int] = None,
               machine: Optional[str] = None) -> List[TraceEvent]:
        """Events in emission order, optionally filtered."""
        ordered = (self._events[self._start:] + self._events[:self._start]
                   if self.dropped else list(self._events))
        return [e for e in ordered
                if (kind is None or e.kind == kind)
                and (db is None or e.db == db)
                and (txn is None or e.txn == txn)
                and (machine is None or e.machine == machine)]

    # -- JSONL export / import -------------------------------------------------

    def dump_jsonl(self, target: Union[str, TextIO]) -> int:
        """Write the trace as JSON Lines; returns the event count.

        The first line is a ``trace_dump`` header carrying the ring's
        capacity and dropped-event count, so consumers of a truncated
        trace know it is truncated.
        """
        events = self.events()
        header = {"kind": "trace_dump", "events": len(events),
                  "capacity": self.capacity, "dropped": self.dropped}

        def write_all(fh: TextIO) -> None:
            fh.write(json.dumps(header) + "\n")
            for event in events:
                fh.write(json.dumps(event.to_dict()) + "\n")

        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as fh:
                write_all(fh)
        else:
            write_all(target)
        return len(events)


def load_jsonl(source: Union[str, TextIO, Iterable[str]]
               ) -> tuple:
    """Read a trace dump; returns ``(events, dropped_count)``."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    events: List[TraceEvent] = []
    dropped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("kind") == "trace_dump":
            dropped = int(record.get("dropped", 0))
            continue
        events.append(TraceEvent.from_dict(record))
    events.sort(key=lambda e: (e.t, e.seq))
    return events, dropped
