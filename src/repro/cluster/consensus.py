"""The control plane: multi-Paxos with leader leases.

What a controller must not lose when it fails — the 2PC commit
decisions its take-over completes — is a small, explicit state machine.
This module replicates it across a group of controller replicas with
multi-Paxos in the style of ScalienDB's master-lease design: one
replicated log of typed commands, applied deterministically on every
replica, with leader election via Paxos prepare rounds and
*time-bounded leader leases* as the fence.

Lease rule (the safety core). An acceptor that PROMISEs a ballot to a
candidate, or acks a lease RENEW, grants that node a lease of
``LEASE_DURATION_S`` measured on its *own* clock, and refuses to
promise any other node while the grant is unexpired. The leader derives
its own lease conservatively from the *send* time of the request, so
its view always expires no later than any grant it received:

    leader lease  = sent_at        + lease_duration
    acceptor hold = receive_time   + lease_duration  (>= leader lease)

A new leader needs a majority of promises, and any majority intersects
the old leader's grant majority, so no candidate can be elected until
at least one of the old grants — and therefore the old leader's own
lease view — has expired. Leases never overlap: at most one node can
believe it holds a valid lease at any instant. A deposed or partitioned
leader stops acting not because someone told it to, but because its own
clock ran out.

All messages travel through the shared :class:`NetworkFabric`, so the
seeded drop/latency/partition machinery applies to controller traffic
exactly as it does to 2PC. A pluggable transport lets property tests
substitute seeded message drop, duplication, and reordering.

Every cluster controller owns one group. ``ConsensusConfig.replicas``
is 1 by default: the degenerate group, a single controller that
restarts from its own decision table — the paper's process pair, with
the take-over run on the restart. Its quorum is itself, so it has no
peers to renew a lease with, retransmit to, campaign against or keep a
log for; the sites keyed on :attr:`PaxosGroup.solo` are exactly those
(DESIGN §4u). Three or more replicas tolerate a minority of failures.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ControllerFailedError, NotLeaderError
from repro.sim import Interrupt, SeededRNG, Simulator

Ballot = Tuple[int, int]  # (round, node_id), compared lexicographically
Command = Tuple[str, Dict[str, Any]]

NO_BALLOT: Ballot = (0, -1)


def ballot_term(ballot: Ballot, n_nodes: int) -> int:
    """Map a ballot to a unique, strictly increasing integer term."""
    rnd, node_id = ballot
    return (rnd - 1) * n_nodes + node_id + 1


def command_digest(kind: str, payload: Dict[str, Any]) -> str:
    """Stable digest of a command for cross-replica log agreement audits."""
    blob = json.dumps([kind, payload], sort_keys=True, default=sorted)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]


#: The group's timers. They only run with peers (a group of one has no
#: lease to renew, nothing to retransmit and nobody to campaign against).
LEASE_DURATION_S = 2.0
RENEW_INTERVAL_S = 0.5
TICK_S = 0.1
ELECTION_JITTER_S = 0.5
ELECTION_TIMEOUT_S = 1.5
ACCEPT_RETRY_S = 0.3
PROPOSE_TIMEOUT_S = 6.0
#: Chosen entries per catch-up (``learn``) message.
LEARN_BATCH = 64


@dataclass
class ConsensusConfig:
    """The controller group: ``replicas`` is 1 (a restarting controller)
    or at least 3 (fault-tolerant); ``seed`` feeds election jitter."""

    replicas: int = 1
    seed: int = 0


class ControllerState:
    """What the log decides, rebuilt by replaying it.

    Command taxonomy (see DESIGN §4i):

    ``leader_takeover``    new leader announces its term through the log
    ``decision``           2PC commit decision; its ``retire`` list names
                           earlier decisions every participant has acked,
                           dropped in the same step
    ``decision_clear``     an idle leader's batch of such retirements
    ``noop``               gap filler from leader change-over

    Replica maps and machine verdicts are not replicated: every replica
    drives the one :class:`ClusterController`, whose live maps a
    take-over reads (DESIGN §4u).
    """

    def __init__(self) -> None:
        self.term = 0
        self.leader: Optional[str] = None
        self.decisions: Dict[int, Tuple[str, List[str]]] = {}

    def apply(self, kind: str, payload: Dict[str, Any]) -> None:
        """Apply one command. Must be deterministic and non-mutating of
        the payload — every replica replays the identical log."""
        if kind == "noop":
            return
        elif kind == "leader_takeover":
            self.term = payload["term"]
            self.leader = payload["node"]
        elif kind == "decision":
            self.decisions[payload["txn"]] = (
                payload["decision"], list(payload["machines"]))
            for txn in payload.get("retire", ()):
                self.decisions.pop(txn, None)
        elif kind == "decision_clear":
            for txn in payload["txns"]:
                self.decisions.pop(txn, None)
        else:
            raise ValueError(f"unknown controller command {kind!r}")


@dataclass
class _Pending:
    """A log slot this leader is driving toward a quorum."""

    cmd: Command
    #: The event a waiting proposer blocks on, created only once one
    #: waits: it succeeds with the index and fails on deposition. A slot
    #: chosen inside the proposing call never schedules it.
    done: Any = None
    acks: Set[str] = field(default_factory=set)
    last_sent: float = 0.0


@dataclass
class _Campaign:
    """An in-flight prepare round."""

    ballot: Ballot
    started_at: float
    grants: Set[str] = field(default_factory=set)
    nacks: int = 0
    accepted: Dict[int, Tuple[Ballot, Command]] = field(default_factory=dict)
    chosen: Dict[int, Command] = field(default_factory=dict)
    max_index: int = 0
    won: bool = False


@dataclass
class PaxosStats:
    """Cumulative per-replica counters."""

    #: Log indexes learned as chosen, each counted on first sight:
    #: ``len(chosen)`` for as long as nothing truncates the log.
    commands_chosen: int = 0


class PaxosNode:
    """One controller replica: acceptor state plus (maybe) leader state."""

    def __init__(self, name: str, node_id: int):
        self.name = name
        self.node_id = node_id
        self.alive = True
        # Durable acceptor/learner state — survives crash/repair.
        self.promised: Ballot = NO_BALLOT
        self.accepted: Dict[int, Tuple[Ballot, Command]] = {}
        self.chosen: Dict[int, Command] = {}
        self.stats = PaxosStats()
        self.applied_to = 0
        self.state = ControllerState()
        self.lease_holder: Optional[str] = None
        self.lease_until = 0.0
        # Volatile state — reset by a crash.
        self.round_hint = 0
        self.is_leader = False
        self.ballot: Ballot = NO_BALLOT
        self.leader_term = 0
        self.own_lease_until = 0.0
        self.next_index = 1
        self.pending: Dict[int, _Pending] = {}
        self.campaign: Optional[_Campaign] = None
        self.next_campaign_at = 0.0
        self.last_renew_at = 0.0
        self.renew_seq = 0
        self.renew_grants: Dict[int, Tuple[float, Set[str]]] = {}
        self.next_learn_at = 0.0
        self.procs: List[Any] = []


class FabricTransport:
    """Delivers consensus messages through the shared NetworkFabric so
    seeded drops, latency, and partitions apply to controller traffic."""

    def __init__(self, sim: Simulator, fabric):
        self.sim = sim
        self.fabric = fabric

    def send(self, group: "PaxosGroup", src: str, dst: str,
             msg: Dict[str, Any]) -> None:
        self.fabric.post(src, dst, lambda delivered:
                         delivered and group.enqueue(dst, msg))


class PaxosGroup:
    """A multi-Paxos group with leader leases over a message transport.

    ``on_leader(node, term)`` fires when a newly elected leader *applies*
    its own ``leader_takeover`` command — i.e. once the new term is
    committed in the log, not merely when the election quorum arrives.
    """

    def __init__(self, sim: Simulator, names: List[str],
                 config: Optional[ConsensusConfig] = None,
                 fabric=None, transport=None, trace=None,
                 on_leader: Optional[Callable] = None):
        self.sim = sim
        self.config = config or ConsensusConfig()
        self.names = list(names)
        if len(self.names) in (0, 2):
            raise ValueError("a consensus group is one replica or at least "
                             f"three, not {len(self.names)}")
        self.nodes = {name: PaxosNode(name, i)
                      for i, name in enumerate(self.names)}
        self.majority = len(self.names) // 2 + 1
        #: No peers: the group of one (DESIGN §4u).
        self.solo = len(self.names) == 1
        if transport is None:
            if fabric is None:
                raise ValueError("need a fabric or an explicit transport")
            transport = FabricTransport(sim, fabric)
        self.transport = transport
        self.trace = trace
        self.on_leader = on_leader
        base = SeededRNG(self.config.seed)
        self._rngs = {name: base.fork(f"ctl:{name}") for name in self.names}
        self.last_leader: Optional[str] = None
        self._started = False
        # id(command) -> (command, digest): every replica applies the
        # same tuple object, so the audit digest is computed once.
        self._digests: Dict[int, Tuple[Command, str]] = {}

    # -- lifecycle -------------------------------------------------------------

    def start(self, bootstrap: Optional[int] = 0) -> None:
        """Spawn every replica's loops; optionally campaign immediately
        from ``names[bootstrap]`` so the group has a leader at t~=0."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.next_campaign_at = (node.node_id + 1) * self._jitter(node)
            self._spawn(node)
        if bootstrap is not None:
            self._start_campaign(self.nodes[self.names[bootstrap]])

    def _spawn(self, node: PaxosNode) -> None:
        if self.solo:
            return  # rule 1: nothing to renew, retransmit or campaign for
        proc = self.sim.process(self._timer_loop(node),
                                name=f"{node.name}:timer")
        proc.defused = True
        node.procs.append(proc)

    def crash(self, name: str) -> None:
        """Fail-stop a replica. Durable acceptor state (promises,
        accepted/chosen entries, the applied state machine) survives;
        leadership and campaigns do not, and messages that arrive while it
        is down are ignored."""
        node = self.nodes[name]
        if not node.alive:
            return
        node.alive = False
        node.is_leader = False
        node.campaign = None
        node.renew_grants.clear()
        self._fail_pending(node, f"{name} crashed")
        for proc in node.procs:
            if proc.is_alive:
                proc.interrupt("controller crash")
        node.procs = []

    def repair(self, name: str) -> None:
        """Restart a crashed replica as a follower — or, alone, as the
        leader it re-elects on the spot: nobody else can lead."""
        node = self.nodes[name]
        if node.alive:
            return
        node.alive = True
        if self.solo:
            self._start_campaign(node)
            return
        node.next_campaign_at = self.sim.now + self._jitter(node)
        node.next_learn_at = 0.0
        self._spawn(node)

    def leader(self) -> Optional[PaxosNode]:
        for node in self.nodes.values():
            if node.alive and node.is_leader:
                return node
        return None

    # -- client interface ------------------------------------------------------

    def propose(self, node: PaxosNode, cmd: Command,
                timeout_s: Optional[float] = None):
        """Replicate one command from ``node`` (which must be leader).

        Generator: yields until the command is chosen, then returns its
        log index. Raises :class:`NotLeaderError` if the node is not (or
        ceases to be) the leader, or if the quorum cannot be reached
        before the deadline. On deadline the slot stays pending — the
        retransmit timer keeps driving it, so the log cannot develop a
        permanent hole from an impatient proposer. A group of one chooses
        the command inside this call and returns without yielding.
        """
        if not node.alive:
            raise NotLeaderError(f"{node.name} is down",
                                 leader=self.last_leader)
        if not node.is_leader:
            raise NotLeaderError(f"{node.name} is not the leader",
                                 leader=self.last_leader)
        index = node.next_index
        node.next_index += 1
        pend = self._propose_at(node, index, cmd)
        if index not in node.pending:
            return index  # rule 3: chosen and applied already
        pend.done = self.sim.event()
        pend.done.defused = True  # failures settle here, not in the kernel
        deadline = self.sim.now + (timeout_s if timeout_s is not None
                                   else PROPOSE_TIMEOUT_S)
        while not pend.done.triggered:
            remaining = deadline - self.sim.now
            if remaining <= 0:
                raise NotLeaderError(
                    f"{node.name}: proposal {cmd[0]!r} timed out")
            yield self.sim.any_of([
                pend.done,
                self.sim.timeout(min(remaining, ACCEPT_RETRY_S)),
            ])
        if pend.done.ok:
            return pend.done.value
        raise pend.done.value

    def enqueue(self, dst: str, msg: Dict[str, Any]) -> None:
        """Transport callback: a delivered message is handled at once."""
        self._dispatch(self.nodes[dst], msg)

    # -- loops -----------------------------------------------------------------

    def _timer_loop(self, node: PaxosNode):
        try:
            while node.alive:
                yield self.sim.timeout(TICK_S)
                now = self.sim.now
                if node.is_leader:
                    if now >= node.own_lease_until + LEASE_DURATION_S:
                        # A full grace lease has passed without a renewal
                        # quorum: the majority has moved on (or is gone).
                        # Abdicate instead of lingering as a zombie —
                        # lease_valid() already went False long ago.
                        self._step_down(node, "lease expired unrenewed")
                        continue
                    if now - node.last_renew_at >= RENEW_INTERVAL_S:
                        self._send_renewals(node)
                    self._retransmit(node)
                elif node.campaign is not None:
                    if now - node.campaign.started_at >= ELECTION_TIMEOUT_S:
                        node.campaign = None
                        # Back off past our own self-granted lease with
                        # FRESH jitter. The self-grant expires a fixed
                        # lease_duration after the campaign began, so
                        # without the jitter term every failed candidate
                        # retries on an identical 1/lease_duration cycle
                        # and rival candidacies phase-lock forever. The
                        # max() also keeps any nack-reported rival lease
                        # backoff intact.
                        node.next_campaign_at = max(
                            node.next_campaign_at,
                            node.lease_until + self._jitter(node),
                            now + self._jitter(node))
                        self._drop_self_grant(node)
                elif now >= node.lease_until and now >= node.next_campaign_at:
                    self._start_campaign(node)
        except Interrupt:
            return

    def _retransmit(self, node: PaxosNode) -> None:
        now = self.sim.now
        for index in sorted(node.pending):
            if now - node.pending[index].last_sent >= ACCEPT_RETRY_S:
                self._broadcast_accept(node, index)

    def _jitter(self, node: PaxosNode) -> float:
        return self._rngs[node.name].uniform(TICK_S, ELECTION_JITTER_S)

    # -- messaging -------------------------------------------------------------

    def _send(self, node: PaxosNode, dst: str, msg: Dict[str, Any]) -> None:
        msg = dict(msg, frm=node.name)
        if dst == node.name:
            # A replica is always connected to itself: no fabric hop.
            self._dispatch(node, msg)
        else:
            self.transport.send(self, node.name, dst, msg)

    def _broadcast(self, node: PaxosNode, msg: Dict[str, Any],
                   include_self: bool = True) -> None:
        for name in self.names:
            if include_self or name != node.name:
                self._send(node, name, msg)  # _send copies it

    def _dispatch(self, node: PaxosNode, msg: Dict[str, Any]) -> None:
        if not node.alive:
            return
        getattr(self, "_on_" + msg["type"])(node, msg)

    # -- election --------------------------------------------------------------

    def _start_campaign(self, node: PaxosNode) -> None:
        rnd = max(node.round_hint, node.promised[0], node.ballot[0]) + 1
        ballot = (rnd, node.node_id)
        node.round_hint = rnd
        node.campaign = _Campaign(ballot=ballot, started_at=self.sim.now)
        node.next_campaign_at = (self.sim.now + ELECTION_TIMEOUT_S
                                 + self._jitter(node))
        if self.trace is not None:
            self.trace.emit("ctl_election_start", machine=node.name,
                            term=ballot_term(ballot, len(self.names)))
        self._broadcast(node, {"type": "prepare", "ballot": ballot,
                               "sent_at": self.sim.now,
                               "from_index": node.applied_to})

    def _on_prepare(self, node: PaxosNode, msg: Dict[str, Any]) -> None:
        ballot, frm, now = msg["ballot"], msg["frm"], self.sim.now
        node.round_hint = max(node.round_hint, ballot[0])
        if (node.lease_holder is not None and node.lease_holder != frm
                and now < node.lease_until):
            # A standing lease for someone else blocks this election —
            # the mutual-exclusion half of the lease protocol.
            self._send(node, frm, {"type": "promise", "ballot": ballot,
                                   "ok": False, "promised": node.promised,
                                   "lease_until": node.lease_until})
            return
        if ballot <= node.promised:
            self._send(node, frm, {"type": "promise", "ballot": ballot,
                                   "ok": False, "promised": node.promised,
                                   "lease_until": None})
            return
        node.promised = ballot
        node.lease_holder = frm
        node.lease_until = now + LEASE_DURATION_S
        if frm != node.name:
            # Stagger our own candidacy past the grant so that replicas
            # whose leader dies do not all campaign on the same tick.
            node.next_campaign_at = max(node.next_campaign_at,
                                        node.lease_until + self._jitter(node))
        if node.is_leader and ballot > node.ballot:
            self._step_down(node, "higher-ballot prepare")
        start = msg["from_index"]
        accepted = {i: v for i, v in node.accepted.items()
                    if i > start and i not in node.chosen}
        chosen = {i: c for i, c in node.chosen.items() if i > start}
        self._send(node, frm, {
            "type": "promise", "ballot": ballot, "ok": True,
            "accepted": accepted, "chosen": chosen,
            "max_index": max([0, *node.accepted, *node.chosen])})

    @staticmethod
    def _drop_self_grant(node: PaxosNode) -> None:
        """A lost campaign gives up the lease its prepare granted itself.

        No leader stands behind that grant, yet while it lasts this
        replica nacks every rival's prepare; with several losers each
        blocking the others no candidate reaches a majority. The
        promise stays (``promised`` is Paxos state) and ``lease_until``
        still delays this replica's own retry.
        """
        if node.lease_holder == node.name:
            node.lease_holder = None

    def _on_promise(self, node: PaxosNode, msg: Dict[str, Any]) -> None:
        camp = node.campaign
        if camp is None or msg["ballot"] != camp.ballot:
            return
        if not msg["ok"]:
            promised = msg.get("promised")
            if promised is not None:
                node.round_hint = max(node.round_hint, promised[0])
            lease = msg.get("lease_until")
            if lease is not None:
                # Back off past the standing lease before trying again.
                node.next_campaign_at = max(node.next_campaign_at,
                                            lease + self._jitter(node))
            camp.nacks += 1
            if camp.nacks >= self.majority:
                # The round is lost; retry after our own self-granted
                # lease runs out, jittered (see the timer-loop comment).
                node.campaign = None
                node.next_campaign_at = max(
                    node.next_campaign_at,
                    node.lease_until + self._jitter(node))
                self._drop_self_grant(node)
            return
        if msg["frm"] in camp.grants:
            return
        camp.grants.add(msg["frm"])
        for index, (bal, cmd) in msg.get("accepted", {}).items():
            current = camp.accepted.get(index)
            if current is None or bal > current[0]:
                camp.accepted[index] = (bal, cmd)
        camp.chosen.update(msg.get("chosen", {}))
        camp.max_index = max(camp.max_index, msg.get("max_index", 0))
        if len(camp.grants) >= self.majority and not camp.won:
            camp.won = True
            self._become_leader(node, camp)

    def _become_leader(self, node: PaxosNode, camp: _Campaign) -> None:
        node.campaign = None
        node.is_leader = True
        node.ballot = camp.ballot
        node.leader_term = ballot_term(camp.ballot, len(self.names))
        # Conservative: measured from the *send* time of the prepares,
        # so this view expires no later than any acceptor's grant. Alone
        # there is no grant to outlive (rule 2).
        node.own_lease_until = (math.inf if self.solo else
                                camp.started_at + LEASE_DURATION_S)
        node.last_renew_at = camp.started_at
        for index, cmd in camp.chosen.items():
            if index not in node.chosen:
                node.chosen[index] = cmd
                node.stats.commands_chosen += 1
        # (A group of one keeps no chosen entries: it counts from what it
        # applied.)
        max_index = max([node.applied_to, camp.max_index, *node.chosen,
                         *node.accepted])
        # Finish what the old leader started: re-propose the
        # highest-ballot accepted value per open slot, no-op the gaps.
        for index in range(node.applied_to + 1, max_index + 1):
            if index in node.chosen:
                continue
            picked = camp.accepted.get(index)
            own = node.accepted.get(index)
            if own is not None and (picked is None or own[0] > picked[0]):
                picked = own
            cmd = picked[1] if picked is not None else ("noop", {})
            self._propose_at(node, index, cmd)
        node.next_index = max_index + 1
        if self.trace is not None:
            self.trace.emit("ctl_leader_elected", machine=node.name,
                            term=node.leader_term,
                            lease_until=node.own_lease_until,
                            previous=self.last_leader)
        self.last_leader = node.name
        # The new term reaches every replica through the log itself (and
        # a group of one applies it, take-over included, in this call).
        index = node.next_index
        node.next_index += 1
        self._propose_at(node, index,
                         ("leader_takeover", {"node": node.name,
                                              "term": node.leader_term}))
        self._apply_ready(node)

    def _step_down(self, node: PaxosNode, reason: str) -> None:
        if not node.is_leader:
            return
        node.is_leader = False
        node.renew_grants.clear()
        self._fail_pending(node, f"{node.name} deposed ({reason})")
        node.next_campaign_at = self.sim.now + self._jitter(node)
        if self.trace is not None:
            self.trace.emit("ctl_stepdown", machine=node.name,
                            term=node.leader_term, reason=reason)

    def _fail_pending(self, node: PaxosNode, why: str) -> None:
        for pend in node.pending.values():
            if pend.done is not None and not pend.done.triggered:
                pend.done.fail(NotLeaderError(why))
        node.pending.clear()

    # -- replication -----------------------------------------------------------

    def _propose_at(self, node: PaxosNode, index: int,
                    cmd: Command) -> _Pending:
        pend = _Pending(cmd=cmd)
        node.pending[index] = pend
        if node.ballot >= node.promised:
            # The leader accepts its own proposal in place, with no
            # message to itself (and refuses, as any acceptor would, once
            # it promised a higher ballot). Its vote alone is a group of
            # one's quorum.
            node.accepted[index] = (node.ballot, cmd)
            pend.acks.add(node.name)
            if len(pend.acks) >= self.majority:
                self._choose(node, index)
                return pend
        self._broadcast_accept(node, index)
        return pend

    def _broadcast_accept(self, node: PaxosNode, index: int) -> None:
        pend = node.pending.get(index)
        if pend is None:
            return
        pend.last_sent = self.sim.now
        self._broadcast(node, {"type": "accept", "ballot": node.ballot,
                               "index": index, "cmd": pend.cmd,
                               "chosen_upto": node.applied_to},
                        include_self=False)

    def _on_accept(self, node: PaxosNode, msg: Dict[str, Any]) -> None:
        ballot, frm, index = msg["ballot"], msg["frm"], msg["index"]
        node.round_hint = max(node.round_hint, ballot[0])
        if ballot >= node.promised:
            node.promised = ballot
            if node.is_leader and ballot > node.ballot:
                self._step_down(node, "higher-ballot accept")
            if index not in node.chosen:
                node.accepted[index] = (ballot, msg["cmd"])
            self._send(node, frm, {"type": "accepted", "ballot": ballot,
                                   "index": index, "ok": True})
        else:
            self._send(node, frm, {"type": "accepted", "ballot": ballot,
                                   "index": index, "ok": False,
                                   "promised": node.promised})
        if msg.get("chosen_upto", 0) > node.applied_to:
            self._request_learn(node, frm)

    def _on_accepted(self, node: PaxosNode, msg: Dict[str, Any]) -> None:
        if not node.is_leader or msg["ballot"] != node.ballot:
            return
        if not msg["ok"]:
            # A single refusal only proves one acceptor promised higher —
            # usually a *failed* candidate's self-promise, not a new
            # leader. Deposing on it livelocks the group under election
            # churn; a real successor reveals itself through a
            # higher-ballot accept/prepare/renew, and a majority of
            # refusals starves the lease until the grace-period
            # abdication fires.
            node.round_hint = max(node.round_hint, msg["promised"][0])
            return
        pend = node.pending.get(msg["index"])
        if pend is None:
            return
        pend.acks.add(msg["frm"])
        if len(pend.acks) >= self.majority:
            self._choose(node, msg["index"])

    def _choose(self, node: PaxosNode, index: int) -> None:
        pend = node.pending.pop(index)
        if index not in node.chosen:
            node.stats.commands_chosen += 1
        node.chosen[index] = pend.cmd
        node.accepted.pop(index, None)
        if pend.done is not None and not pend.done.triggered:
            pend.done.succeed(index)
        self._broadcast(node, {"type": "decide", "index": index,
                               "cmd": pend.cmd}, include_self=False)
        self._apply_ready(node)

    def _on_decide(self, node: PaxosNode, msg: Dict[str, Any]) -> None:
        index = msg["index"]
        if index not in node.chosen:
            node.chosen[index] = msg["cmd"]
            node.stats.commands_chosen += 1
            node.accepted.pop(index, None)
        self._apply_ready(node)

    def _apply_ready(self, node: PaxosNode) -> None:
        """Advance the applied prefix; contiguous chosen entries only."""
        while node.applied_to + 1 in node.chosen:
            index = node.applied_to + 1
            # Alone, nobody will ask to learn an applied entry (rule 4),
            # nor compare digests with it (rule 5).
            cmd = node.chosen.pop(index) if self.solo else node.chosen[index]
            kind, payload = cmd
            node.state.apply(kind, payload)
            node.applied_to = index
            if self.trace is not None and not self.solo:
                memo = self._digests.get(id(cmd))
                if memo is None or memo[0] is not cmd:
                    if len(self._digests) >= 256:
                        self._digests.clear()
                    memo = self._digests[id(cmd)] = (
                        cmd, command_digest(kind, payload))
                self.trace.emit("ctl_applied", machine=node.name,
                                index=index, command=kind, digest=memo[1])
            if (kind == "leader_takeover" and node.is_leader
                    and payload.get("node") == node.name
                    and self.on_leader is not None):
                self.on_leader(node, payload["term"])

    # -- leases ----------------------------------------------------------------

    def _send_renewals(self, node: PaxosNode) -> None:
        now = self.sim.now
        node.last_renew_at = now
        node.renew_seq += 1
        rid = node.renew_seq
        node.renew_grants[rid] = (now, set())
        while len(node.renew_grants) > 8:
            node.renew_grants.pop(min(node.renew_grants))
        self._broadcast(node, {"type": "renew", "ballot": node.ballot,
                               "rid": rid, "sent_at": now,
                               "chosen_upto": node.applied_to})

    def _on_renew(self, node: PaxosNode, msg: Dict[str, Any]) -> None:
        ballot, frm, now = msg["ballot"], msg["frm"], self.sim.now
        node.round_hint = max(node.round_hint, ballot[0])
        ok = False
        if ballot >= node.promised and (node.lease_holder in (None, frm)
                                        or now >= node.lease_until):
            node.promised = max(node.promised, ballot)
            node.lease_holder = frm
            node.lease_until = now + LEASE_DURATION_S
            if frm != node.name:
                node.next_campaign_at = max(
                    node.next_campaign_at,
                    node.lease_until + self._jitter(node))
                if node.is_leader:
                    # Granting another node a renewal means its ballot
                    # beat ours: a real successor exists.
                    self._step_down(node, f"granted lease to {frm}")
            ok = True
        self._send(node, frm, {"type": "renew_ack", "ballot": ballot,
                               "rid": msg["rid"], "ok": ok,
                               "promised": node.promised})
        if msg.get("chosen_upto", 0) > node.applied_to and frm != node.name:
            self._request_learn(node, frm)

    def _on_renew_ack(self, node: PaxosNode, msg: Dict[str, Any]) -> None:
        if not node.is_leader or msg["ballot"] != node.ballot:
            return
        if not msg["ok"]:
            # Same reasoning as refused accepts: a lone higher promise is
            # a failed candidate, not a verdict. Remember the round and
            # keep renewing with the nodes that still honour our lease.
            node.round_hint = max(node.round_hint, msg["promised"][0])
            return
        entry = node.renew_grants.get(msg["rid"])
        if entry is None:
            return
        sent_at, grants = entry
        grants.add(msg["frm"])
        if len(grants) == self.majority:
            new_until = sent_at + LEASE_DURATION_S
            if new_until > node.own_lease_until:
                node.own_lease_until = new_until
                if self.trace is not None:
                    self.trace.emit("ctl_lease_renewed", machine=node.name,
                                    term=node.leader_term,
                                    lease_until=new_until)

    # -- catch-up --------------------------------------------------------------

    def _request_learn(self, node: PaxosNode, frm: str) -> None:
        now = self.sim.now
        if now < node.next_learn_at:
            return
        node.next_learn_at = now + TICK_S
        self._send(node, frm, {"type": "learn_req",
                               "from_index": node.applied_to})

    def _on_learn_req(self, node: PaxosNode, msg: Dict[str, Any]) -> None:
        start = msg["from_index"]
        entries = [(i, node.chosen[i])
                   for i in range(start + 1, start + 1 + LEARN_BATCH)
                   if i in node.chosen]
        if entries:
            self._send(node, msg["frm"], {"type": "learn",
                                          "entries": entries})

    def _on_learn(self, node: PaxosNode, msg: Dict[str, Any]) -> None:
        for index, cmd in msg["entries"]:
            if index not in node.chosen:
                node.chosen[index] = cmd
                node.stats.commands_chosen += 1
                node.accepted.pop(index, None)
        self._apply_ready(node)


def takeover_cleanup(controller, decisions: Dict[int, Tuple[str, List[str]]],
                     actor: str) -> Tuple[List[int], List[int]]:
    """Complete the data-plane side of a controller take-over.

    Phase 1: every transaction with a replicated commit decision is
    driven to commit on its participants — the decision was made before
    the old controller died, so it must stick. Phase 2: every other
    in-flight transaction is presumed aborted on *all* alive machines,
    fenced ones included — a fenced machine is unreachable for new work
    but its engine still holds the old transaction's locks, and nothing
    else will ever release them. This is the paper's process-pair
    take-over (Section 2), run by whichever replica leads next — by the
    restarted controller itself in a group of one.
    """
    trace = controller.trace
    committed: List[int] = []
    aborted: List[int] = []
    for txn_id in sorted(decisions):
        decision, machines = decisions[txn_id]
        if decision != "commit":
            continue
        for name in machines:
            machine = controller.machines.get(name)
            if machine is None or not machine.alive or machine.fenced:
                continue
            txn = machine.engine.transactions.get(txn_id)
            if txn is not None and not txn.finished:
                machine.engine.commit(txn)
                if txn.wrote:
                    # No ack advanced its LSN, and the COMMIT record a
                    # rejoin would skip by may be checkpointed: untrack.
                    for db in txn.databases:
                        controller.replication.untrack(db, name)
            machine.forget_txn(txn_id)
        committed.append(txn_id)
        trace.emit("takeover_commit", txn=txn_id, actor=actor)
    decided = set(decisions)
    for machine in controller.machines.values():
        if not machine.alive:
            continue  # fenced-but-alive machines are swept too
        for txn_id, txn in list(machine.engine.transactions.items()):
            if txn_id in decided or txn.finished:
                continue
            machine.engine.abort(txn)
            machine.forget_txn(txn_id)
            if txn_id not in aborted:
                aborted.append(txn_id)
                trace.emit("takeover_abort", txn=txn_id, actor=actor)
    # Every transaction settled here had its coordinator die with the
    # old controller, so _finish never ran for it; purge them from the
    # open-writer drain gauge or a later delta handoff on their
    # database would wait on them forever.
    controller.replication.resolve_stale_writers(
        set(decisions) | set(aborted))
    controller.txns.rpc.abandon_open()
    return committed, aborted


class ConsensusControlPlane:
    """Binds a :class:`PaxosGroup` to one :class:`ClusterController`.

    Each replica notionally co-hosts a full controller; the *acting*
    replica is the one currently driving the data plane, and its
    liveness is the controller's. When leadership moves — or a group of
    one restarts — the new leader runs the data-plane take-over from the
    replicated decision table, then the data plane resumes under the new
    term. A controller whose lease lapses fails every gated operation
    until re-elected.
    """

    def __init__(self, controller, config: ConsensusConfig):
        if config.replicas < 1 or config.replicas == 2:
            raise ValueError("ConsensusConfig.replicas must be 1 or at "
                             f"least 3, not {config.replicas}")
        self.controller = controller
        self.sim: Simulator = controller.sim
        self.config = config
        names = [f"{controller.name}-ctl{i}" for i in range(config.replicas)]
        self.group = PaxosGroup(
            controller.sim, names, config=config,
            fabric=controller.fabric, trace=controller.trace,
            on_leader=self._on_leader)
        #: The replica driving the data plane.
        self.acting_node: PaxosNode = self.group.nodes[names[0]]
        self.term = 0
        self._had_leader = False
        # Decisions every participant acked, waiting to ride the next
        # decision command out of the replicated table.
        self._retire: List[int] = []
        self._flush = None  # timer of the idle flush, while one is armed

    def start(self) -> "ConsensusControlPlane":
        self.group.start(bootstrap=0)
        return self

    # -- leadership / lease queries --------------------------------------------

    @property
    def acting(self) -> str:
        return self.acting_node.name

    @property
    def alive(self) -> bool:
        """Is the acting replica up — what the paper calls the primary?"""
        return self.acting_node.alive

    @property
    def stats(self) -> PaxosStats:
        """The acting replica's counters (``commands_chosen`` is what a
        benchmark reads in place of ``len(acting_node.chosen)``)."""
        return self.acting_node.stats

    def lease_valid(self) -> bool:
        """True iff the acting replica holds an unexpired leader lease.

        This is the controller's fence: it needs no message from anyone
        to turn False — the lease's own clock does the fencing.
        """
        node = self.acting_node
        return (node.alive and node.is_leader
                and self.sim.now < node.own_lease_until)

    def check_leader(self) -> None:
        """Redirect clients that reached a non-leader controller."""
        node = self.acting_node
        if not (node.alive and node.is_leader):
            raise NotLeaderError(
                f"controller replica {self.acting} is not the leader",
                leader=self.group.last_leader)

    # -- replicated mutations --------------------------------------------------

    def replicate_decision(self, db: str, txn_id: int, decision: str,
                           machines: List[str]):
        """Quorum-replicate a 2PC decision; generator, yields until
        chosen (a group of one never yields). No decision may leave a
        controller whose lease lapsed: the lease is checked both before
        proposing and after the quorum round-trip, so a deposed leader's
        in-flight COMMIT is cut off.
        """
        node = self.acting_node
        if not self.lease_valid():
            raise ControllerFailedError(
                f"controller {self.controller.name}: no valid leader lease")
        try:
            yield from self._propose_retiring(
                node, "decision", "retire",
                {"txn": txn_id, "decision": decision,
                 "machines": list(machines), "db": db})
        except NotLeaderError as exc:
            raise ControllerFailedError(str(exc)) from exc
        if self.acting_node is not node or not self.lease_valid():
            raise ControllerFailedError(
                f"controller {self.controller.name}: leader lease lapsed "
                f"while replicating the decision for txn {txn_id}")

    def decision_stamp(self) -> Dict[str, Any]:
        """Who made a decision this plane holds, for its trace event."""
        return {"actor": self.acting, "term": self.term}

    def clear_decision(self, db: str, txn_id: int) -> None:
        """Retire a decision: not a command of its own — it rides in the
        next ``decision``, or in the batched ``decision_clear`` an idle
        leader proposes within one ``RENEW_INTERVAL_S`` (a group of one,
        whose proposals cost no round trip, proposes it at once)."""
        self._retire_later([txn_id])

    def _retire_later(self, txn_ids: List[int]) -> None:
        self._retire.extend(txn_ids)
        if self.group.solo:
            self._flush_retired()
        elif self._flush is None:
            self._flush = self.sim.timeout(RENEW_INTERVAL_S)
            self._flush.add_callback(self._flush_retired)

    def _flush_retired(self, _timer=None) -> None:
        self._flush = None
        node = self.acting_node
        # Without a leader the list waits: _on_leader rebuilds it from
        # the table the new leader inherits.
        if self._retire and node.alive and node.is_leader:
            proposal = self._propose_retiring(node, "decision_clear",
                                              "txns", {})
            if self.group.solo:
                next(proposal, None)  # chosen inside the call (rule 3)
            else:
                proc = self.sim.process(proposal,
                                        name="ctl-propose:decision_clear")
                proc.defused = True

    def _propose_retiring(self, node: PaxosNode, kind: str, key: str,
                          payload: Dict[str, Any]):
        """Propose a command carrying the retire list under ``key``; a
        failed proposal puts the list back (it may still be chosen later:
        retiring twice is a no-op)."""
        payload[key], self._retire = self._retire, []
        try:
            yield from self.group.propose(node, (kind, payload))
        except NotLeaderError:
            self._retire_later(payload[key])
            raise

    # -- leader change ---------------------------------------------------------

    def _on_leader(self, node: PaxosNode, term: int) -> None:
        controller = self.controller
        previous = self.acting
        first = not self._had_leader
        self._had_leader = True
        self.term = term
        self.acting_node = node
        if first and node.name == previous:
            return  # bootstrap election: nothing to take over
        committed, aborted = takeover_cleanup(
            controller, dict(node.state.decisions), actor=node.name)
        # Every inherited decision is now complete on its participants;
        # the old leader's unproposed retirements are among them.
        self._retire = []
        self._retire_later(committed)
        controller.trace.emit("ctl_takeover", machine=node.name, term=term,
                              previous=previous, completed=committed,
                              aborted=aborted)
        if controller.detector.started:
            controller.start_failure_detector()

    # -- failure machinery -----------------------------------------------------

    def crash_controller(self, name: str) -> None:
        """Fail-stop one controller replica, exactly like a machine
        crash: no goodbye message, queued work lost, durable log kept.
        The acting replica takes the data plane down with it."""
        node = self.group.nodes[name]
        if not node.alive:
            return
        self.group.crash(name)
        self.controller.trace.emit("ctl_crashed", machine=name,
                                   term=self.term,
                                   acting=name == self.acting)

    def repair_controller(self, name: str) -> None:
        """Restart a crashed replica; a group of one is re-elected and
        has run its take-over when this returns."""
        node = self.group.nodes[name]
        if node.alive:
            return
        self.controller.trace.emit("ctl_repaired", machine=name)
        self.group.repair(name)

    def crash_all(self) -> None:
        """Every replica at once: the site they run in went down."""
        for name in self.group.names:
            self.crash_controller(name)
