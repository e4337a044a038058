"""Trace-driven 2PC / replication invariant checker.

Replays a cluster trace (:mod:`repro.analysis.trace`) and asserts the
correctness properties the paper's controller design promises:

* **decision-unique** — a prepared transaction reaches at most one
  decision: never two commit decisions, never commit *and* abort; in
  strict mode every prepared transaction must reach a terminal state.
* **decision-before-commit** — no COMMIT message leaves the coordinator
  before the commit decision is logged (replicated through the
  controller's group). On a truncated trace only transactions whose
  ``txn_begin`` is inside the trace are held to it.
* **conservative-all-acked** — under the conservative write policy a
  commit decision is only taken once every issued replica write has been
  acknowledged (or its machine has failed).
* **poisoned-never-commits** — an aggressive-mode transaction whose
  background write failed (poisoned) never reaches a commit decision.
* **deadlock-aborts-everywhere** — a transaction that saw a deadlock or
  lock-wait timeout on any replica write never commits; it must abort on
  every replica (no surviving replica keeps the write).
* **rereplication-restores-factor** — (with ``expect_recovery_complete``)
  every database queued for re-replication after a machine failure ends
  with a successful copy restoring the replication factor.
* **single-leader-per-term** — controller elections produce strictly
  increasing terms, never the same term twice, and never a new leader
  while another node's traced lease is still unexpired (lease mutual
  exclusion) — the no-split-brain rule, for every controller (a group
  of one re-elects itself on each restart).
* **log-prefix-agreement** — every controller replica with peers
  applies log entries in contiguous ascending index order, and any two
  replicas that apply the same index apply the identical command (by
  digest): all applied prefixes agree. (A group of one traces no
  applies: it has nothing to agree with.)
* **decision-only-under-valid-lease** — a commit decision
  (``decision_logged``, stamped with its ``actor`` and ``term``) is only
  taken by a node whose traced leader lease covers the decision
  instant.
* **fenced-replica-never-serves** — between ``machine_fenced`` and
  readmission/repair, no write, PREPARE, or COMMIT is issued to the
  machine and it is never a re-replication source or target (its state
  is stale by construction).
* **suspicion-eventually-resolves** — every ``machine_suspected`` (and
  ``colo_suspected``) is eventually followed by an unsuspect (it
  answered again) or a declare (it was fenced); no suspicion dangles at
  the end of a complete trace. With ``suspicion_horizon_s`` (the
  detector's suspect-to-declare span, which a live audit takes from the
  configuration) a machine suspicion younger than that when the acting
  controller replica crashed, or when the trace ended, is excused: the
  detector stops with it, so no probe was left to resolve it.
* **no-dual-primary-colo** — a database's standby colo is only promoted
  after the old primary was fenced under a monotonically increasing
  epoch, and never onto a fenced colo; fencing epochs strictly increase.
* **standby-applies-a-prefix-of-commit-order** — per database, the
  standby resolves replication-log entries in exact sequence order with
  no gaps and no duplicates: the applied entries are always a prefix of
  the primary's commit order.
* **lag-eventually-drains** — (with ``expect_lag_drained``) every
  replication link still attached at the end of the trace has applied
  everything the primary shipped; a torn
  link's unapplied suffix is accounted as RPO instead.
* **neighbour-sla-holds-under-stampede** — a tenant that stayed within
  its provisioned admission rate over an SLA-monitor window is never
  rejected by admission control beyond its ``max_rejected_fraction``
  in that window: another tenant's overload must drain only its own
  bucket (one stray rejection is tolerated — a burst can land on a
  bucket the same tenant drained legitimately a window earlier).
* **rejections-within-sla-bound** — in steady state (a tenant that
  never exceeded its provisioned rate in any window of the trace), the
  tenant's *cumulative* admission-rejected fraction stays within its
  SLA bound.

One rule reads the live cluster, not its trace (:func:`check_bounds`):

* **state-bounded-after-quiescence** — every per-transaction table, the
  decision table, the retained commit logs and the kernel's schedule are
  under a stated bound that does not depend on how many commits ran
  (DESIGN §4q); :data:`KNOWN_UNBOUNDED` lists what still grows.

Usable three ways: :func:`check_controller` on a live controller (what
the test suites call), :func:`check_trace` on a list of events, or as a
CLI over a JSONL dump::

    python -m repro.analysis.invariants trace.jsonl
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.analysis.trace import TraceEvent, load_jsonl
from repro.cluster import replication_log

#: Write-failure error types that mean "deadlock class" (the InnoDB rule:
#: these roll the whole local branch back, so commit must be impossible).
DEADLOCK_ERRORS = {"DeadlockError", "LockTimeoutError"}

#: Terminal per-transaction events.
_TERMINAL_KINDS = {"committed", "abort", "rollback",
                   "takeover_commit", "takeover_abort"}


@dataclass
class Violation:
    """One broken invariant, anchored to the event that exposed it."""

    rule: str
    message: str
    txn: Optional[int] = None
    db: Optional[str] = None
    seq: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.txn is not None:
            where.append(f"txn {self.txn}")
        if self.db is not None:
            where.append(f"db {self.db!r}")
        if self.seq is not None:
            where.append(f"seq {self.seq}")
        suffix = f" [{', '.join(where)}]" if where else ""
        return f"{self.rule}: {self.message}{suffix}"


@dataclass
class _TxnAudit:
    """Checker-side state of one traced transaction."""

    db: Optional[str] = None
    # ``txn_begin`` was seen: the transaction's whole life is inside the
    # trace, even when older events fell off the ring.
    began: bool = False
    prepared: bool = False
    decision_seq: Optional[int] = None
    terminal_kinds: List[str] = field(default_factory=list)
    poisoned_seq: Optional[int] = None
    deadlock_seq: Optional[int] = None
    # Outstanding (issued - resolved) writes per machine at current seq.
    outstanding: Dict[str, int] = field(default_factory=dict)


class InvariantChecker:
    """Single-pass auditor over a cluster event trace."""

    def __init__(self, write_policy: Optional[str] = None,
                 replication_factor: Optional[int] = None,
                 expect_recovery_complete: bool = False,
                 expect_lag_drained: bool = False,
                 strict: bool = False, dropped: int = 0,
                 suspicion_horizon_s: float = 0.0):
        self.write_policy = write_policy
        self.replication_factor = replication_factor
        self.expect_recovery_complete = expect_recovery_complete
        self.expect_lag_drained = expect_lag_drained
        self.strict = strict
        self.suspicion_horizon_s = suspicion_horizon_s
        # Events lost to ring-buffer overflow: cross-event rules that need
        # a complete view (conservative acks, recovery completion, strict
        # termination) are skipped on truncated traces.
        self.dropped = dropped
        self.violations: List[Violation] = []
        self.in_flight: Set[int] = set()

    # -- entry point -----------------------------------------------------------

    def check(self, events: Sequence[TraceEvent]) -> List[Violation]:
        txns: Dict[int, _TxnAudit] = {}
        failed_machines: Set[str] = set()
        # db -> seq of the latest re-replication enqueue (rule 6).
        queued: Dict[str, int] = {}
        recovered: Dict[str, TraceEvent] = {}
        truncated = self.dropped > 0
        fenced: Set[str] = set()
        suspected_at: Dict[str, TraceEvent] = {}   # machine -> suspicion
        detector_stops: List[float] = []   # acting-replica crashes, the end
        # Cross-colo DR state (system-tier traces).
        fenced_colos: Set[str] = set()
        colo_suspected_at: Dict[str, int] = {}
        last_epoch = 0
        # db -> next replication-log seq the standby must resolve.
        expected_rseq: Dict[str, int] = {}
        # db -> outstanding (shipped - applied) on the live link.
        link_lag: Dict[str, int] = {}
        link_lag_seq: Dict[str, int] = {}   # seq of the last ship, for anchors
        # Overload / SLA enforcement (sla_window events from the
        # runtime monitor): per-db cumulative admission accounting.
        # db -> [finished, rejected, bound, over_rate_windows, last_seq]
        sla_stats: Dict[str, List] = {}
        # The control plane (ctl_* traces).
        ctl_terms_seen: Set[int] = set()
        last_ctl_term = 0
        node_lease: Dict[str, float] = {}      # node -> traced lease_until
        ctl_applied_next: Dict[str, int] = {}  # node -> next expected index
        ctl_digests: Dict[int, tuple] = {}     # index -> (digest, node, seq)

        def audit(txn_id: Optional[int]) -> Optional[_TxnAudit]:
            if txn_id is None:
                return None
            return txns.setdefault(txn_id, _TxnAudit())

        for e in events:
            if e.kind == "trace_meta":
                if self.write_policy is None:
                    self.write_policy = e.extra.get("write_policy")
                if self.replication_factor is None:
                    self.replication_factor = e.extra.get(
                        "replication_factor")
                continue
            state = audit(e.txn)
            if state is not None and state.db is None and e.db is not None:
                state.db = e.db

            if (e.kind in ("write_issued", "write_acked", "prepare",
                           "commit_sent")
                    and e.machine is not None and e.machine in fenced):
                self.violations.append(Violation(
                    "fenced-replica-never-serves",
                    f"{e.kind} on fenced machine {e.machine}",
                    txn=e.txn, db=e.db, seq=e.seq))

            if e.kind == "txn_begin":
                state.began = True
            elif e.kind == "write_issued":
                state.outstanding[e.machine] = (
                    state.outstanding.get(e.machine, 0) + 1)
            elif e.kind in ("write_acked", "write_failed"):
                state.outstanding[e.machine] = (
                    state.outstanding.get(e.machine, 0) - 1)
                if e.kind == "write_failed" and \
                        e.extra.get("error") in DEADLOCK_ERRORS:
                    if state.deadlock_seq is None:
                        state.deadlock_seq = e.seq
            elif e.kind == "poisoned":
                if state.poisoned_seq is None:
                    state.poisoned_seq = e.seq
            elif e.kind in ("prepare", "prepare_failed"):
                state.prepared = state.prepared or e.kind == "prepare"
            elif e.kind == "decision_logged":
                self._on_decision(e, state, failed_machines, truncated)
                if "term" in e.extra and not truncated:
                    # The deciding node must hold a traced leader lease
                    # covering the decision instant.
                    actor = e.extra.get("actor")
                    lease = node_lease.get(actor)
                    if lease is None or lease < e.t:
                        self.violations.append(Violation(
                            "decision-only-under-valid-lease",
                            f"decision by {actor} at t={e.t:.4f} without "
                            "a valid leader lease"
                            + (f" (lease expired {e.t - lease:.4f}s "
                               "earlier)" if lease is not None else ""),
                            txn=e.txn, db=e.db, seq=e.seq))
            elif e.kind == "commit_sent":
                # On a truncated trace the decision of a transaction
                # that began before the ring's oldest event may have
                # fallen off with it; only one that began inside the
                # trace must show its decision.
                if state.decision_seq is None and (state.began
                                                   or not truncated):
                    self.violations.append(Violation(
                        "decision-before-commit",
                        "COMMIT sent before the decision was logged",
                        txn=e.txn, db=e.db, seq=e.seq))
            elif e.kind in _TERMINAL_KINDS:
                if e.kind in ("abort", "rollback", "takeover_abort") and \
                        state.decision_seq is not None:
                    self.violations.append(Violation(
                        "decision-unique",
                        f"{e.kind} after a logged commit decision",
                        txn=e.txn, db=e.db, seq=e.seq))
                state.terminal_kinds.append(e.kind)
            elif e.kind == "machine_crashed":
                failed_machines.add(e.machine)
            elif e.kind == "machine_declared":
                failed_machines.add(e.machine)
                suspected_at.pop(e.machine, None)
            elif e.kind == "machine_fenced":
                fenced.add(e.machine)
            elif e.kind in ("machine_readmitted", "machine_repaired"):
                fenced.discard(e.machine)
                suspected_at.pop(e.machine, None)
                failed_machines.discard(e.machine)
            elif e.kind == "machine_suspected":
                suspected_at.setdefault(e.machine, e)
            elif e.kind == "ctl_crashed" and e.extra.get("acting"):
                detector_stops.append(e.t)
            elif e.kind == "machine_unsuspected":
                suspected_at.pop(e.machine, None)
            elif e.kind == "ctl_leader_elected":
                term = e.extra.get("term")
                lease_until = e.extra.get("lease_until")
                if term is not None and not truncated:
                    if term in ctl_terms_seen:
                        self.violations.append(Violation(
                            "single-leader-per-term",
                            f"term {term} elected twice", seq=e.seq))
                    elif term <= last_ctl_term:
                        self.violations.append(Violation(
                            "single-leader-per-term",
                            f"election term {term} does not advance past "
                            f"{last_ctl_term}", seq=e.seq))
                    ctl_terms_seen.add(term)
                    last_ctl_term = max(last_ctl_term, term)
                if not truncated:
                    for other, until in sorted(node_lease.items()):
                        if other != e.machine and until > e.t:
                            self.violations.append(Violation(
                                "single-leader-per-term",
                                f"{e.machine} elected at t={e.t:.4f} while "
                                f"{other}'s lease runs to {until:.4f}",
                                seq=e.seq))
                if lease_until is not None:
                    node_lease[e.machine] = lease_until
            elif e.kind == "ctl_lease_renewed":
                lease_until = e.extra.get("lease_until")
                if lease_until is not None:
                    node_lease[e.machine] = lease_until
            elif e.kind == "ctl_stepdown":
                node_lease.pop(e.machine, None)
            elif e.kind == "ctl_applied":
                index = e.extra.get("index")
                digest = e.extra.get("digest")
                if index is not None:
                    want = ctl_applied_next.get(e.machine)
                    if want is None:
                        # A complete trace sees every apply from entry 1;
                        # a truncated one may join each node mid-stream.
                        if index != 1 and not truncated:
                            self.violations.append(Violation(
                                "log-prefix-agreement",
                                f"{e.machine} first applied entry {index}, "
                                "not 1", seq=e.seq))
                    elif index != want:
                        self.violations.append(Violation(
                            "log-prefix-agreement",
                            f"{e.machine} applied entry {index}, expected "
                            f"{want} (non-contiguous apply)", seq=e.seq))
                    ctl_applied_next[e.machine] = max(
                        index + 1, ctl_applied_next.get(e.machine, 0))
                    if digest is not None:
                        seen = ctl_digests.get(index)
                        if seen is None:
                            ctl_digests[index] = (digest, e.machine, e.seq)
                        elif seen[0] != digest:
                            self.violations.append(Violation(
                                "log-prefix-agreement",
                                f"entry {index} diverges: {e.machine} "
                                f"applied {digest}, {seen[1]} applied "
                                f"{seen[0]}", seq=e.seq))
            elif e.kind == "sla_window":
                finished = e.extra.get("finished") or 0
                rejected = e.extra.get("rejected") or 0
                bound = e.extra.get("bound")
                within = bool(e.extra.get("within_rate"))
                if bound is not None and finished > 0:
                    stats = sla_stats.setdefault(e.db, [0, 0, bound, 0,
                                                        None, 0])
                    stats[0] += finished
                    stats[1] += rejected
                    stats[2] = bound
                    if not within:
                        stats[3] += 1
                    stats[4] = e.seq
                    if within and rejected > bound * finished + 1:
                        stats[5] += 1
                        self.violations.append(Violation(
                            "neighbour-sla-holds-under-stampede",
                            f"tenant within its provisioned rate had "
                            f"{rejected}/{finished} transactions rejected "
                            f"by admission (bound {bound})",
                            db=e.db, seq=e.seq))
            elif e.kind == "rereplication_start":
                for role, name in (("target", e.machine),
                                   ("source", e.extra.get("source"))):
                    if name is not None and name in fenced:
                        self.violations.append(Violation(
                            "fenced-replica-never-serves",
                            f"re-replication {role} {name} is fenced",
                            db=e.db, seq=e.seq))
            elif e.kind == "rereplication_queued":
                queued[e.db] = e.seq
                recovered.pop(e.db, None)
            elif e.kind == "rereplication_done":
                recovered[e.db] = e
            elif e.kind == "rereplication_skipped":
                if e.extra.get("reason") == "already-replicated":
                    recovered[e.db] = e
            elif e.kind == "colo_suspected":
                colo_suspected_at.setdefault(e.machine, e.seq)
            elif e.kind == "colo_unsuspected":
                colo_suspected_at.pop(e.machine, None)
            elif e.kind == "colo_declared":
                colo_suspected_at.pop(e.machine, None)
            elif e.kind == "colo_fenced":
                colo_suspected_at.pop(e.machine, None)
                fenced_colos.add(e.machine)
                epoch = e.extra.get("epoch")
                if epoch is not None:
                    if epoch <= last_epoch:
                        self.violations.append(Violation(
                            "no-dual-primary-colo",
                            f"fencing epoch {epoch} does not advance past "
                            f"{last_epoch}", seq=e.seq))
                    else:
                        last_epoch = epoch
            elif e.kind == "colo_repaired":
                fenced_colos.discard(e.machine)
                colo_suspected_at.pop(e.machine, None)
            elif e.kind == "dr_promote":
                old = e.extra.get("old")
                new = e.extra.get("new")
                epoch = e.extra.get("epoch")
                if old is not None and old not in fenced_colos:
                    self.violations.append(Violation(
                        "no-dual-primary-colo",
                        f"db promoted to {new} while old primary {old} "
                        "was not fenced", db=e.db, seq=e.seq))
                if new is not None and new in fenced_colos:
                    self.violations.append(Violation(
                        "no-dual-primary-colo",
                        f"db promoted onto fenced colo {new}",
                        db=e.db, seq=e.seq))
                if epoch is not None and epoch < last_epoch:
                    self.violations.append(Violation(
                        "no-dual-primary-colo",
                        f"promotion under stale epoch {epoch} < "
                        f"{last_epoch}", db=e.db, seq=e.seq))
                # The link died with the old primary; its unapplied
                # suffix is RPO, not lag.
                expected_rseq.pop(e.db, None)
                link_lag.pop(e.db, None)
            elif e.kind == "dr_protect":
                primary = e.extra.get("primary")
                if primary is not None and primary in fenced_colos:
                    self.violations.append(Violation(
                        "no-dual-primary-colo",
                        f"db protected with fenced primary {primary}",
                        db=e.db, seq=e.seq))
                # A fresh link restarts the sequence numbering.
                expected_rseq[e.db] = e.extra.get("base_seq", 0) + 1
                link_lag[e.db] = 0
            elif e.kind == "dr_link_torn":
                expected_rseq.pop(e.db, None)
                link_lag.pop(e.db, None)
            elif e.kind == "dr_ship":
                if e.db in link_lag:
                    link_lag[e.db] += 1
                    link_lag_seq[e.db] = e.seq
            elif e.kind == "dr_apply":
                if e.db in link_lag:
                    link_lag[e.db] -= 1
                rseq = e.extra.get("rseq")
                want = expected_rseq.get(e.db)
                if rseq is not None and want is not None and not truncated:
                    if rseq != want:
                        self.violations.append(Violation(
                            "standby-applies-a-prefix-of-commit-order",
                            f"standby resolved log seq {rseq}, expected "
                            f"{want} ({'gap' if rseq > want else 'replay'})",
                            db=e.db, seq=e.seq))
                    expected_rseq[e.db] = max(want, rseq) + 1

        if events:
            detector_stops.append(events[-1].t)
        self._finish(txns, queued, recovered, truncated,
                     [e for e in suspected_at.values()
                      if next(t for t in detector_stops if t >= e.t) - e.t
                      >= self.suspicion_horizon_s])
        for db, (finished, rejected, bound, over_windows, last_seq,
                 window_violations) in sorted(sla_stats.items()):
            # Steady state only: a tenant that ever overran its
            # provisioned rate *earned* its rejections. A tenant whose
            # windows were already flagged individually is not
            # re-reported cumulatively.
            if over_windows == 0 and window_violations == 0 \
                    and finished > 0 \
                    and rejected > bound * finished + 1:
                self.violations.append(Violation(
                    "rejections-within-sla-bound",
                    f"steady-state tenant had {rejected}/{finished} "
                    f"({rejected / finished:.4f}) transactions rejected "
                    f"by admission, above its bound {bound}",
                    db=db, seq=last_seq))
        if colo_suspected_at and not truncated:
            for colo, seq in sorted(colo_suspected_at.items()):
                self.violations.append(Violation(
                    "suspicion-eventually-resolves",
                    f"colo {colo} still suspected at end of trace",
                    seq=seq))
        if self.expect_lag_drained and not truncated:
            for db, lag in sorted(link_lag.items()):
                if lag > 0:
                    self.violations.append(Violation(
                        "lag-eventually-drains",
                        f"replication link still has {lag} shipped "
                        "entries unresolved at end of trace",
                        db=db, seq=link_lag_seq.get(db)))
        return self.violations

    # -- per-rule helpers -------------------------------------------------------

    def _on_decision(self, e: TraceEvent, state: _TxnAudit,
                     failed_machines: Set[str], truncated: bool) -> None:
        if state.decision_seq is not None:
            self.violations.append(Violation(
                "decision-unique", "second commit decision logged",
                txn=e.txn, db=e.db, seq=e.seq))
        if any(k in ("abort", "rollback", "takeover_abort")
               for k in state.terminal_kinds):
            self.violations.append(Violation(
                "decision-unique", "commit decision after an abort",
                txn=e.txn, db=e.db, seq=e.seq))
        state.decision_seq = e.seq
        if state.poisoned_seq is not None:
            self.violations.append(Violation(
                "poisoned-never-commits",
                "poisoned transaction reached a commit decision",
                txn=e.txn, db=e.db, seq=e.seq))
        if state.deadlock_seq is not None:
            self.violations.append(Violation(
                "deadlock-aborts-everywhere",
                "transaction with a deadlocked replica write committed",
                txn=e.txn, db=e.db, seq=e.seq))
        if self.write_policy == "conservative" and not truncated:
            stragglers = sorted(
                machine for machine, count in state.outstanding.items()
                if count > 0 and machine not in failed_machines)
            if stragglers:
                self.violations.append(Violation(
                    "conservative-all-acked",
                    "commit decision with unacknowledged writes on "
                    f"{', '.join(stragglers)}",
                    txn=e.txn, db=e.db, seq=e.seq))

    def _finish(self, txns: Dict[int, _TxnAudit], queued: Dict[str, int],
                recovered: Dict[str, TraceEvent], truncated: bool,
                dangling: Sequence[TraceEvent]) -> None:
        if not truncated:
            for e in sorted(dangling, key=lambda e: e.machine):
                self.violations.append(Violation(
                    "suspicion-eventually-resolves",
                    f"machine {e.machine} still suspected at end of trace",
                    seq=e.seq))
        for txn_id, state in txns.items():
            if not state.terminal_kinds:
                if state.prepared or state.decision_seq is not None:
                    self.in_flight.add(txn_id)
                    if self.strict and not truncated:
                        self.violations.append(Violation(
                            "decision-unique",
                            "prepared transaction never reached a "
                            "terminal state", txn=txn_id, db=state.db))
        if self.expect_recovery_complete and not truncated:
            for db, queue_seq in sorted(queued.items()):
                done = recovered.get(db)
                if done is None or done.seq < queue_seq:
                    self.violations.append(Violation(
                        "rereplication-restores-factor",
                        "database queued for re-replication was never "
                        "restored", db=db, seq=queue_seq))
                    continue
                replicas = done.extra.get("replicas")
                if (done.kind == "rereplication_done"
                        and self.replication_factor is not None
                        and replicas is not None
                        and replicas < self.replication_factor):
                    self.violations.append(Violation(
                        "rereplication-restores-factor",
                        f"re-replication finished with {replicas} < "
                        f"{self.replication_factor} replicas",
                        db=db, seq=done.seq))


def check_trace(events: Sequence[TraceEvent], **kwargs: Any
                ) -> List[Violation]:
    """Audit a list of trace events; returns the violations found."""
    return InvariantChecker(**kwargs).check(events)


def suspicion_horizon_s(config) -> float:
    """How long the detector may take to resolve a suspicion: declare
    comes ``declare_after_misses - suspect_after_misses`` heartbeats
    after it, and one more covers the probe in flight."""
    return ((config.declare_after_misses - config.suspect_after_misses + 1)
            * config.heartbeat_interval_s)


def check_controller(controller, expect_recovery_complete: bool = False,
                     strict: bool = False) -> List[Violation]:
    """Audit a live :class:`~repro.cluster.controller.ClusterController`.

    Policy and replication factor are taken from the controller's
    configuration; the trace comes from its attached tracer.
    """
    checker = InvariantChecker(
        write_policy=controller.config.write_policy.value,
        replication_factor=controller.config.replication_factor,
        expect_recovery_complete=expect_recovery_complete,
        strict=strict, dropped=controller.trace.dropped,
        suspicion_horizon_s=suspicion_horizon_s(controller.config))
    return checker.check(controller.trace.events())


#: Open transactions a quiescent audit allows for. A machine's
#: per-transaction tables hold the open ones plus those closed since it
#: last heard the watermark: they follow the clients, not the commits.
OPEN_TXNS_BOUND = 64

#: Table -> bound; :func:`state_sizes` says what each one counts.
STATE_BOUNDS = {
    "open": OPEN_TXNS_BOUND, "background_holders": OPEN_TXNS_BOUND,
    "decisions": OPEN_TXNS_BOUND, "retire": OPEN_TXNS_BOUND,
    "transactions": 2 * OPEN_TXNS_BOUND, "dedup": 2 * OPEN_TXNS_BOUND,
    "tails": 2 * OPEN_TXNS_BOUND, "write_counts": 2 * OPEN_TXNS_BOUND,
    # Records: 16 each, twice (the checkpoint runs in chunks).
    "wal": 2 * 16 * 2 * OPEN_TXNS_BOUND,
    # Heartbeats, lease and election timers, thinking clients.
    "sim_pending": 8 * OPEN_TXNS_BOUND,
    # The largest latency histogram: 32 buckets per octave over 38.
    "metrics_histogram_buckets": 32 * 38,
}

#: Latency phases the coordinator feeds: write, prepare, commit, txn and
#: one ``branch:<label>`` per gathered broadcast (three labels).
PHASES_BOUND = 8

#: What still grows with the number of commits, and who owns it.
KNOWN_UNBOUNDED = {
    "chosen log of a group with peers":
        "ROADMAP item 7: the benchmark counts len(chosen); it must read "
        "PaxosStats.commands_chosen before the log can be truncated (a "
        "group of one keeps none)",
}


def state_sizes(controller) -> Dict[str, int]:
    """Size of every table that must not grow with the commit count;
    per-machine tables (and the per-database commit logs) at their
    largest."""
    machines = controller.machines.values()
    rpc, plane = controller.txns.rpc, controller.consensus
    metrics = controller.metrics
    histograms = [*metrics.phase_latencies.values(),
                  *metrics.link_latencies.values(),
                  *metrics.db_latencies.values()]

    def worst(size) -> int:
        return max(map(size, machines), default=0)

    return {
        "open": len(rpc.open),
        "background_holders": sum(rpc.open.values()) - len(rpc.open),
        "transactions": worst(lambda m: len(m.engine.transactions)),
        "dedup": worst(lambda m: len(m._rpc_cache)),
        "tails": worst(lambda m: len(m._tails)),
        "write_counts": worst(lambda m: len(m._write_counts)),
        "wal": worst(lambda m: len(m.engine.wal)),
        "decisions": len(plane.acting_node.state.decisions),
        "retire": len(plane._retire),
        "retained_tail": max(map(len, controller.replication.db_logs.values()),
                             default=0),
        "sim_pending": controller.sim.pending,
        "metrics_histograms": len(histograms),
        "metrics_histogram_buckets": max(
            (len(h.buckets) for h in histograms), default=0),
    }


def check_bounds(controller) -> List[Violation]:
    """Audit a quiescent cluster: one ``state-bounded-after-quiescence``
    violation per table over its bound (retained commit logs are held to
    ``REPLICATION_LOG_RETAIN`` — no copy pins them after quiescence —
    and the histograms to one per phase, per link that carried a message
    and per tenant that finished a transaction).

    Tombstones are held to the transactions the watermark has not
    passed: the watermark waits for the slowest open transaction
    (DESIGN §4q), so while one sits in a lock wait every transaction
    issued since it began is still remembered — ids the coordinator
    knows, ``next_txn_id - low``. Clients that keep running through the
    drain (the stampede's) leave such a transaction open at the audit."""
    rpc = controller.txns.rpc
    bounds = dict(STATE_BOUNDS,
                  transactions=max(STATE_BOUNDS["transactions"],
                                   rpc.next_txn_id - rpc.low),
                  retained_tail=replication_log.REPLICATION_LOG_RETAIN,
                  metrics_histograms=(PHASES_BOUND
                                      + len(controller.fabric.link_stats)
                                      + len(controller.metrics.per_db)))
    sizes = state_sizes(controller)
    return [Violation("state-bounded-after-quiescence",
                      f"{table} holds {sizes[table]} entries, bound {bound}")
            for table, bound in bounds.items() if sizes[table] > bound]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.invariants",
        description="Audit a JSONL cluster trace for 2PC/replication "
                    "invariant violations")
    parser.add_argument("traces", nargs="+", help="JSONL trace file(s)")
    parser.add_argument("--write-policy",
                        choices=["conservative", "aggressive"],
                        help="override the policy recorded in the trace")
    parser.add_argument("--replication-factor", type=int)
    parser.add_argument("--expect-recovery-complete", action="store_true",
                        help="require every queued re-replication to have "
                             "finished")
    parser.add_argument("--expect-lag-drained", action="store_true",
                        help="require every live replication link to have "
                             "drained its shipped entries")
    parser.add_argument("--strict", action="store_true",
                        help="fail on prepared transactions left in flight")
    args = parser.parse_args(argv)

    exit_code = 0
    for path in args.traces:
        events, dropped = load_jsonl(path)
        checker = InvariantChecker(
            write_policy=args.write_policy,
            replication_factor=args.replication_factor,
            expect_recovery_complete=args.expect_recovery_complete,
            expect_lag_drained=args.expect_lag_drained,
            strict=args.strict, dropped=dropped)
        violations = checker.check(events)
        status = "OK" if not violations else f"{len(violations)} VIOLATED"
        note = f", {dropped} dropped" if dropped else ""
        print(f"{path}: {len(events)} events{note}, "
              f"{len(checker.in_flight)} in flight -> {status}")
        for violation in violations:
            print(f"  {violation}")
        if violations:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
