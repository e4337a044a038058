"""Fault injection: machine failures, repairs, and network partitions.

The paper's availability model (Section 4.1) is parameterized by a
machine failure rate; :class:`FailureInjector` produces exactly that —
Poisson machine failures at a configurable mean time between failures —
so experiments can measure rejected fractions under sustained failures
rather than a single staged one. Two extensions for robustness soaks:

* ``repair_mtbf_s`` adds a Poisson *repair* stream that returns dead
  machines to the cluster as blank spares, so long soaks no longer
  monotonically drain the cluster to ``min_live_machines`` and stall;
* ``oracle=False`` switches from :meth:`fail_machine` (the controller is
  told instantly) to :meth:`crash_machine` (the machine just goes
  silent; only the heartbeat failure detector can notice).

:class:`PartitionInjector` drives the network fabric: it cuts random
links or splits the cluster into disconnected groups, healing each
episode after a random duration — the workload for the partition-soak
experiment and its no-split-brain / fencing invariants.

:class:`ControllerKillInjector` targets the consensus control plane
(:mod:`repro.cluster.consensus`): it fail-stops controller replicas —
preferring the current leader, never below the group's majority — and
optionally cuts controller↔controller links, so soaks exercise
elections, lease hand-off, and take-over cleanup under churn.

:class:`WanPartitionInjector` is the cross-colo analogue: it cuts
colo↔colo WAN links (stalling log shipping until catch-up) or isolates
a whole colo from the system controller and its peers (starving the
colo heartbeat detector), healing each episode after a random duration
— the workload for the disaster-recovery soak and its dual-primary /
prefix-order / lag-drain invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple

from repro.cluster.controller import ClusterController
from repro.cluster.network import CONTROLLER, SYSTEM
from repro.sim import Interrupt, Process
from repro.sim.rng import SeededRNG


@dataclass
class FailureEvent:
    when: float
    machine: str
    databases_affected: List[str]


@dataclass
class RepairEvent:
    when: float
    machine: str


@dataclass
class PartitionEvent:
    when: float
    kind: str                                  # "cut" | "split"
    links: List[Tuple[str, str]] = field(default_factory=list)
    groups: List[List[str]] = field(default_factory=list)
    healed_at: Optional[float] = None


class _RestartableInjector:
    """start()/stop() lifecycle shared by the injectors.

    ``stop()`` interrupts the loop processes and forgets them; a later
    ``start()`` spawns fresh ones, so one injector instance can be
    started and stopped repeatedly within a run. Loop processes are
    always defused — both so background failures cannot crash the
    kernel and so the stop interrupt itself never counts as unhandled
    if it lands after the loop already finished.
    """

    def __init__(self, controller: ClusterController):
        self.controller = controller
        self._procs: List[Process] = []

    def _loops(self) -> List[Tuple[str, Generator]]:
        raise NotImplementedError

    def start(self) -> None:
        if any(p.is_alive for p in self._procs):
            return
        self._procs = []
        for name, loop in self._loops():
            proc = self.controller.sim.process(loop, name=name)
            proc.defused = True
            self._procs.append(proc)

    def stop(self) -> None:
        for proc in self._procs:
            proc.defused = True
            if proc.is_alive:
                proc.interrupt("injector stopped")
        self._procs = []

    def _cut_episodes(self, fabric, mtbf_s: float, mean_heal_s: float,
                      cut, log: List[PartitionEvent]) -> Generator:
        """Sequential cut → wait → heal episodes drawn from ``self.rng``.

        ``cut()`` severs some links and returns the :class:`PartitionEvent`
        (or None when there is nothing to cut this round); the links an
        episode cut are healed by the same episode, and a stop heals
        whatever is still cut so a stopped soak can drain cleanly.
        """
        sim = self.controller.sim
        try:
            while True:
                yield sim.timeout(self.rng.expovariate(1.0 / mtbf_s))
                event = cut()
                if event is None:
                    continue
                log.append(event)
                yield sim.timeout(self.rng.expovariate(1.0 / mean_heal_s))
                for a, b in event.links:
                    fabric.heal(a, b)
                event.healed_at = sim.now
        except Interrupt:
            for event in log:
                if event.healed_at is None:
                    for a, b in event.links:
                        fabric.heal(a, b)
                    event.healed_at = sim.now


class FailureInjector(_RestartableInjector):
    """Fails random live machines with exponential inter-arrival times."""

    def __init__(self, controller: ClusterController, mtbf_s: float,
                 seed: int = 0, min_live_machines: int = 1,
                 spare_last_replicas: bool = True,
                 repair_mtbf_s: Optional[float] = None,
                 oracle: bool = True):
        if mtbf_s <= 0:
            raise ValueError("MTBF must be positive")
        if repair_mtbf_s is not None and repair_mtbf_s <= 0:
            raise ValueError("repair MTBF must be positive")
        super().__init__(controller)
        self.mtbf_s = mtbf_s
        self.repair_mtbf_s = repair_mtbf_s
        # oracle=True: fail_machine (controller learns instantly).
        # oracle=False: crash_machine (silence; detection must notice).
        self.oracle = oracle
        self.rng = SeededRNG(seed).fork("failure-injector")
        # Never fail below this many live machines (the cluster would
        # just be gone; the paper assumes failures are sparse).
        self.min_live_machines = min_live_machines
        # Skip machines holding the only live replica of some database
        # (simulates the paper's assumption that simultaneous loss of
        # all replicas is a disaster-recovery event, not a cluster one).
        self.spare_last_replicas = spare_last_replicas
        self.events: List[FailureEvent] = []
        self.repairs: List[RepairEvent] = []

    def _loops(self) -> List[Tuple[str, Generator]]:
        loops = [("failure-injector", self._loop())]
        if self.repair_mtbf_s is not None:
            loops.append(("repair-injector", self._repair_loop()))
        return loops

    def _candidates(self) -> List[str]:
        live = [m.name for m in self.controller.live_machines()]
        if len(live) <= self.min_live_machines:
            return []
        if not self.spare_last_replicas:
            return live
        spared = set()
        for db in self.controller.replica_map.databases():
            live_replicas = self.controller.live_replicas(db)
            if len(live_replicas) == 1:
                spared.add(live_replicas[0])
        return [name for name in live if name not in spared]

    def _repair_candidates(self) -> List[str]:
        """Dead machines the replica map no longer routes to.

        A crashed (non-oracle) machine keeps its map entries until the
        failure detector declares it, so repair naturally waits for
        detection to run its course.
        """
        return sorted(
            name for name, machine in self.controller.machines.items()
            if not machine.alive
            and not self.controller.replica_map.hosted_on(name))

    def _loop(self) -> Generator:
        sim = self.controller.sim
        try:
            while True:
                yield sim.timeout(self.rng.expovariate(1.0 / self.mtbf_s))
                candidates = self._candidates()
                if not candidates:
                    continue
                victim = self.rng.choice(sorted(candidates))
                if self.oracle:
                    affected = self.controller.fail_machine(victim)
                else:
                    self.controller.crash_machine(victim)
                    affected = []
                self.events.append(FailureEvent(sim.now, victim, affected))
        except Interrupt:
            return

    def _repair_loop(self) -> Generator:
        sim = self.controller.sim
        try:
            while True:
                yield sim.timeout(
                    self.rng.expovariate(1.0 / self.repair_mtbf_s))
                candidates = self._repair_candidates()
                if not candidates:
                    continue
                machine = self.rng.choice(candidates)
                self.controller.repair_machine(machine)
                self.repairs.append(RepairEvent(sim.now, machine))
        except Interrupt:
            return


@dataclass
class ControllerKillEvent:
    when: float
    node: str
    was_leader: bool
    repaired_at: Optional[float] = None


class ControllerKillInjector(_RestartableInjector):
    """Kills consensus controller replicas (preferring the leader), and
    optionally partitions the control-plane links, then heals both.

    Episodes are sequential: crash one replica, wait an exponential
    repair delay, repair it. The victim is the current lease holder with
    probability ``prefer_leader`` (kills that force an election are the
    interesting ones); the injector never reduces the group below its
    majority, so the control plane always stays electable. A second loop
    (when the fabric is enabled and ``partition_mtbf_s`` is set) cuts a
    random controller↔controller link for an exponential duration —
    renewals and accepts stall, leases lapse, and deposed leaders must
    cut off their in-flight COMMITs.
    """

    def __init__(self, controller: ClusterController, kill_mtbf_s: float,
                 seed: int = 0, mean_repair_s: float = 5.0,
                 prefer_leader: float = 0.8,
                 partition_mtbf_s: Optional[float] = None,
                 mean_heal_s: float = 2.0):
        if kill_mtbf_s <= 0:
            raise ValueError("kill MTBF must be positive")
        if mean_repair_s <= 0:
            raise ValueError("mean repair time must be positive")
        super().__init__(controller)
        if controller.consensus is None:
            raise ValueError("ControllerKillInjector needs the consensus "
                             "control plane (config.consensus_enabled)")
        self.consensus = controller.consensus
        self.kill_mtbf_s = kill_mtbf_s
        self.mean_repair_s = mean_repair_s
        self.prefer_leader = prefer_leader
        self.partition_mtbf_s = partition_mtbf_s
        self.mean_heal_s = mean_heal_s
        self.rng = SeededRNG(seed).fork("controller-kill-injector")
        self.events: List[ControllerKillEvent] = []
        self.partitions: List[PartitionEvent] = []

    def _loops(self) -> List[Tuple[str, Generator]]:
        loops = [("controller-kill-injector", self._kill_loop())]
        if (self.partition_mtbf_s is not None
                and self.controller.fabric.enabled):
            loops.append(("controller-partition-injector",
                          self._cut_episodes(
                              self.controller.fabric, self.partition_mtbf_s,
                              self.mean_heal_s, self._cut_controller_link,
                              self.partitions)))
        return loops

    def _pick_victim(self) -> Optional[str]:
        group = self.consensus.group
        alive = sorted(n.name for n in group.nodes.values() if n.alive)
        if len(alive) <= group.majority:
            return None          # never make the group unelectable
        leader = group.leader()
        if (leader is not None and leader.name in alive
                and self.rng.random() < self.prefer_leader):
            return leader.name
        return self.rng.choice(alive)

    def _kill_loop(self) -> Generator:
        sim = self.controller.sim
        group = self.consensus.group
        try:
            while True:
                yield sim.timeout(
                    self.rng.expovariate(1.0 / self.kill_mtbf_s))
                victim = self._pick_victim()
                if victim is None:
                    continue
                was_leader = group.nodes[victim].is_leader
                event = ControllerKillEvent(sim.now, victim, was_leader)
                self.events.append(event)
                self.consensus.crash_controller(victim)
                yield sim.timeout(
                    self.rng.expovariate(1.0 / self.mean_repair_s))
                self.consensus.repair_controller(victim)
                event.repaired_at = sim.now
        except Interrupt:
            # Repair whatever this injector still has down so a stopped
            # soak can drain (and re-elect) cleanly.
            for event in self.events:
                if event.repaired_at is None:
                    self.consensus.repair_controller(event.node)
                    event.repaired_at = self.controller.sim.now
            return

    def _cut_controller_link(self) -> Optional[PartitionEvent]:
        names = sorted(self.consensus.group.names)
        if len(names) < 2:
            return None
        a, b = self.rng.sample(names, 2)
        self.controller.fabric.cut(a, b)
        return PartitionEvent(self.controller.sim.now, "cut", links=[(a, b)])


class PartitionInjector(_RestartableInjector):
    """Cuts random fabric links (or splits the cluster), then heals.

    Episodes arrive with exponential inter-arrival times (``mtbf_s``)
    and last an exponential duration (``mean_heal_s``). With probability
    ``split_probability`` an episode isolates a random group of machines
    from the controller and everyone else; otherwise it cuts between one
    and ``max_cut_links`` individual controller↔machine links.
    Episodes are sequential (cut, wait, heal) so every link an episode
    cut is healed by the same episode.
    """

    def __init__(self, controller: ClusterController, mtbf_s: float,
                 seed: int = 0, mean_heal_s: float = 5.0,
                 split_probability: float = 0.25, max_cut_links: int = 2,
                 asymmetric_probability: float = 0.25):
        if mtbf_s <= 0:
            raise ValueError("MTBF must be positive")
        if mean_heal_s <= 0:
            raise ValueError("mean heal time must be positive")
        super().__init__(controller)
        if not controller.fabric.enabled:
            raise ValueError("PartitionInjector needs the network fabric "
                             "(config.network.enabled)")
        self.mtbf_s = mtbf_s
        self.mean_heal_s = mean_heal_s
        self.split_probability = split_probability
        self.max_cut_links = max_cut_links
        # Chance that a cut episode severs only *one* direction of a
        # link: requests vanish but responses flow, or the reverse —
        # the nastiest case for RPC dedup and failure detection.
        self.asymmetric_probability = asymmetric_probability
        self.rng = SeededRNG(seed).fork("partition-injector")
        self.events: List[PartitionEvent] = []

    def _loops(self) -> List[Tuple[str, Generator]]:
        return [("partition-injector", self._cut_episodes(
            self.controller.fabric, self.mtbf_s, self.mean_heal_s,
            self._cut, self.events))]

    def _cut(self) -> Optional[PartitionEvent]:
        machines = sorted(self.controller.machines)
        if not machines:
            return None
        if len(machines) >= 2 and self.rng.random() < self.split_probability:
            return self._split(machines)
        return self._cut_links(machines)

    def _split(self, machines: List[str]) -> PartitionEvent:
        """Isolate a random minority of machines from everyone else."""
        fabric = self.controller.fabric
        k = self.rng.randint(1, max(1, len(machines) // 2))
        isolated = sorted(self.rng.sample(machines, k))
        rest = [CONTROLLER] + [m for m in machines if m not in isolated]
        links = [(a, b) for a in rest for b in isolated]
        for a, b in links:
            fabric.cut(a, b)
        self.controller.trace.emit(
            "net_partition", groups=[sorted(rest), isolated])
        return PartitionEvent(self.controller.sim.now, "split",
                              links=links, groups=[sorted(rest), isolated])

    def _cut_links(self, machines: List[str]) -> PartitionEvent:
        """Cut a few individual controller↔machine links.

        Each cut may be asymmetric: only one direction is severed, so
        e.g. a machine keeps receiving statements whose acks never make
        it back. Healing is always symmetric (a no-op on the direction
        that was never cut).
        """
        fabric = self.controller.fabric
        k = self.rng.randint(1, min(self.max_cut_links, len(machines)))
        targets = sorted(self.rng.sample(machines, k))
        links = []
        for name in targets:
            if self.rng.random() < self.asymmetric_probability:
                link = (CONTROLLER, name) if self.rng.random() < 0.5 \
                    else (name, CONTROLLER)
                fabric.cut(*link, symmetric=False)
            else:
                link = (CONTROLLER, name)
                fabric.cut(*link)
            links.append(link)
        return PartitionEvent(self.controller.sim.now, "cut", links=links)


class WanPartitionInjector(_RestartableInjector):
    """Cuts colo↔colo WAN links or isolates a colo, then heals.

    Episodes arrive with exponential inter-arrival times (``mtbf_s``)
    and last an exponential duration (``mean_heal_s``). With probability
    ``isolate_probability`` an episode isolates one colo from the system
    controller *and* every peer colo — starving the colo heartbeat
    detector (suspicion, and declaration if the outage outlives the
    detector's patience); otherwise it cuts a single colo↔colo link,
    stalling that direction's log shipping until the resumable catch-up
    drains it after the heal. Episodes are sequential, so every link an
    episode cut is healed by the same episode.
    """

    def __init__(self, system, mtbf_s: float, seed: int = 0,
                 mean_heal_s: float = 2.0,
                 isolate_probability: float = 0.25,
                 asymmetric_probability: float = 0.25):
        if mtbf_s <= 0:
            raise ValueError("MTBF must be positive")
        if mean_heal_s <= 0:
            raise ValueError("mean heal time must be positive")
        super().__init__(system)
        self.system = system
        self.mtbf_s = mtbf_s
        self.mean_heal_s = mean_heal_s
        self.isolate_probability = isolate_probability
        self.asymmetric_probability = asymmetric_probability
        self.rng = SeededRNG(seed).fork("wan-partition-injector")
        self.events: List[PartitionEvent] = []

    def _loops(self) -> List[Tuple[str, Generator]]:
        return [("wan-partition-injector", self._cut_episodes(
            self.system.wan, self.mtbf_s, self.mean_heal_s, self._cut,
            self.events))]

    def _cut(self) -> Optional[PartitionEvent]:
        colos = sorted(self.system.colos)
        if not colos:
            return None
        if self.rng.random() < self.isolate_probability:
            return self._isolate(colos)
        if len(colos) >= 2:
            return self._cut_wan_link(colos)
        return None

    def _isolate(self, colos: List[str]) -> PartitionEvent:
        """Cut one colo off from the system controller and every peer."""
        fabric = self.system.wan
        victim = self.rng.choice(colos)
        rest = [SYSTEM] + [c for c in colos if c != victim]
        links = [(a, victim) for a in rest]
        for a, b in links:
            fabric.cut(a, b)
        self.system.trace.emit("net_partition",
                               groups=[sorted(rest), [victim]])
        return PartitionEvent(self.system.sim.now, "split", links=links,
                              groups=[sorted(rest), [victim]])

    def _cut_wan_link(self, colos: List[str]) -> PartitionEvent:
        """Cut one colo↔colo WAN link (maybe only one direction)."""
        fabric = self.system.wan
        a, b = self.rng.sample(colos, 2)
        if self.rng.random() < self.asymmetric_probability:
            link = (a, b)
            fabric.cut(*link, symmetric=False)
        else:
            link = (a, b)
            fabric.cut(*link)
        return PartitionEvent(self.system.sim.now, "cut", links=[link])
