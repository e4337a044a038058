"""Cluster-controller fault tolerance: the process pair (Section 2).

The cluster controller "is configured to run as a process pair in two
machines... the backup keeps track of the primary cluster controller's
state with respect to committing transactions and cleans up the
transactions in transit as part of its take-over processing."

:class:`ProcessPairBackup` mirrors exactly that state: the primary logs a
commit *decision* to the backup after every successful PREPARE round and
before any COMMIT message leaves. On primary failure, the backup's
take-over:

* completes every decided-commit transaction on its participant engines
  (they are PREPARED and hold their write locks, so this is always
  possible);
* presumed-aborts every other open transaction — their clients lost the
  connection and must re-establish it, per the paper.

Take-over can be invoked two ways: directly (the oracle path older
experiments use), or *detected* — :meth:`start_monitor` heartbeats the
primary over the network fabric and runs take-over itself once the
primary has been silent for a configurable number of intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.cluster.consensus import takeover_cleanup
from repro.cluster.controller import ClusterController
from repro.cluster.network import BACKUP, CONTROLLER
from repro.sim import Process


@dataclass
class _Decision:
    decision: str
    machines: List[str]


class ProcessPairBackup:
    """The standby half of the cluster-controller process pair."""

    def __init__(self, controller: ClusterController):
        self.controller = controller
        self.sim = controller.sim
        self.decisions: Dict[int, _Decision] = {}
        self.took_over = False
        self.completed_on_takeover: List[int] = []
        self.aborted_on_takeover: List[int] = []
        self._monitor_proc: Optional[Process] = None
        controller.backup = self

    # -- primary failure detection -------------------------------------------------

    def start_monitor(self, interval_s: Optional[float] = None,
                      misses: int = 3) -> Process:
        """Heartbeat the primary; run take-over when it goes silent.

        The backup pings the primary over the fabric every
        ``interval_s`` (default: the cluster heartbeat interval) and
        invokes :meth:`take_over` itself after ``misses`` consecutive
        unanswered rounds — detection-driven fail-over, no oracle.
        """
        if (self._monitor_proc is not None
                and not self._monitor_proc.triggered
                and not self.took_over):
            return self._monitor_proc
        if self._monitor_proc is not None and self._monitor_proc.is_alive:
            # The old loop is a zombie: its pair already took over (or
            # was re-formed), so it exits at its next wake-up. Replace
            # it instead of handing the stale handle back.
            self._monitor_proc.interrupt("monitor superseded")
        interval = interval_s or self.controller.config.heartbeat_interval_s
        self._monitor_proc = self.sim.process(
            self._monitor_loop(interval, misses), name="backup:monitor")
        self._monitor_proc.defused = True
        return self._monitor_proc

    def reform(self) -> None:
        """Re-form the pair after a completed take-over.

        The surviving controller becomes primary again with an empty
        backup mirror, exactly as a repaired pair restarts in Section 2.
        Clears the take-over latch and the stale monitor handle so
        :meth:`start_monitor` can arm a fresh detection loop.
        """
        if self._monitor_proc is not None and self._monitor_proc.is_alive:
            self._monitor_proc.interrupt("pair re-formed")
        self._monitor_proc = None
        self.took_over = False
        self.decisions.clear()
        self.completed_on_takeover = []
        self.aborted_on_takeover = []
        self.controller.primary_alive = True

    def _ping_primary(self) -> Generator:
        fabric = self.controller.fabric
        if not fabric.enabled:
            # No fabric: the pair shares a rack-local supervision channel.
            return self.controller.primary_alive
        delivered = yield from fabric.deliver(BACKUP, CONTROLLER)
        if not delivered or not self.controller.primary_alive:
            return False
        delivered = yield from fabric.deliver(CONTROLLER, BACKUP)
        return delivered

    def _monitor_loop(self, interval: float, threshold: int) -> Generator:
        missed = 0
        while not self.took_over:
            yield self.sim.timeout(interval)
            answered = yield from self._ping_primary()
            if self.took_over:
                return
            if answered:
                missed = 0
                continue
            missed += 1
            if missed >= threshold:
                self.take_over(reason=f"{missed} missed heartbeats")
                return

    # -- mirroring (called by the primary) ---------------------------------------

    def log_decision(self, txn_id: int, decision: str,
                     machines: List[str]) -> None:
        self.decisions[txn_id] = _Decision(decision, list(machines))

    def replicate_decision(self, db: str, txn_id: int, decision: str,
                           machines: List[str]) -> Generator:
        """Mirror a 2PC decision (what the coordinator asks of whichever
        control plane is attached; the pair's channel is rack-local, so
        the generator finishes without waiting)."""
        self.log_decision(txn_id, decision, machines)
        return
        yield  # pragma: no cover - generator marker

    def decision_stamp(self) -> Dict[str, str]:
        """Who made a decision this plane holds, for its trace event."""
        return {"actor": "primary"}

    def clear_decision(self, db: str, txn_id: int) -> None:
        self.decisions.pop(txn_id, None)

    # -- take-over -----------------------------------------------------------------

    def take_over(self, reason: str = "invoked") -> Tuple[List[int], List[int]]:
        """The backup takes over from the (crashed) primary.

        Returns (committed transaction ids, aborted transaction ids).
        Connection-level state is gone: any open :class:`Connection`
        objects raise on further use and clients must reconnect.
        """
        if self.took_over:
            return (list(self.completed_on_takeover),
                    list(self.aborted_on_takeover))
        self.took_over = True
        # Fence the old primary before acting on any decision: even if it
        # is merely partitioned from the backup (not dead), it must not
        # issue another COMMIT once the backup starts cleaning up —
        # process-pair equivalent of STONITH, the no-split-brain rule.
        self.controller.primary_alive = False
        trace = self.controller.trace
        trace.emit("takeover", actor="backup", reason=reason,
                   decided=sorted(txn_id for txn_id, d in
                                  self.decisions.items()
                                  if d.decision == "commit"))
        # Phase 1 completes decided commits; Phase 2 presumed-aborts
        # every other in-flight transaction on all alive machines —
        # fenced ones included, since their engines still hold the old
        # transactions' locks and nothing else will release them.
        committed, aborted = takeover_cleanup(
            self.controller,
            {txn_id: (d.decision, list(d.machines))
             for txn_id, d in self.decisions.items()},
            actor="backup")
        self.decisions.clear()
        self.completed_on_takeover.extend(committed)
        self.aborted_on_takeover.extend(aborted)
        return (list(self.completed_on_takeover),
                list(self.aborted_on_takeover))
