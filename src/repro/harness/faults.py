"""Faults are data: a schedule drawn from the seed, applied by one process.

A fault is an immutable :class:`Fault` ``(at, kind, target)`` and a
schedule is a list of them sorted by ``at``. Each family is one pure
draw function — :func:`crashes`, :func:`link_cuts`,
:func:`controller_kills`, :func:`wan_cuts` — that takes the seed, the
rates and the endpoint names the built world already knows and returns
every entry up front, including the ``heal`` / ``repair`` closing each
episode (clamped to ``until``). Nothing random happens while the run
runs, so a schedule can be printed, replayed from JSON (:func:`load`)
and shrunk.

:func:`apply` spawns the one process that walks a schedule through the
:data:`EFFECTS` table. A rank target is resolved when its entry fires,
into the sorted candidates of that instant; an entry the guards refuse
is skipped and the reason logged. DESIGN §4t has the kind table, the
guards and why.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Callable, Deque, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.cluster.controller import ClusterController
from repro.cluster.network import CONTROLLER, SYSTEM
from repro.sim.rng import SeededRNG

#: Machine faults never leave fewer live machines than this.
MIN_LIVE_MACHINES = 3
#: Chance that a fabric episode isolates a minority instead of cutting links.
SPLIT_PROBABILITY = 0.25
#: At most this many controller↔machine links per cut episode.
MAX_CUT_LINKS = 2
#: Chance that a cut severs one direction only: requests vanish but
#: responses flow, or the reverse — the nastiest case for RPC dedup.
ASYMMETRIC_PROBABILITY = 0.25
#: Chance that a WAN episode isolates a whole colo.
ISOLATE_PROBABILITY = 0.25
#: Chance that a controller kill targets the lease holder.
PREFER_LEADER = 0.8

#: Opening kind -> the kind that closes its episode.
CLOSES = {"cut": "heal", "split": "heal", "kill_ctl": "repair_ctl"}


class Fault(NamedTuple):
    """One schedule entry: at sim time ``at``, apply ``kind`` to ``target``."""

    at: float
    kind: str
    target: Any = None


class Applied(NamedTuple):
    """One log line of the applier: ``resolved`` is None when skipped,
    and ``result`` is then the reason (``fail``: the affected databases)."""

    at: float
    kind: str
    target: Any
    resolved: Any
    result: Any


def _frozen(value: Any) -> Any:
    return (tuple(_frozen(v) for v in value) if isinstance(value, list)
            else value)


def load(entries: Sequence[Sequence[Any]]) -> List[Fault]:
    """A schedule back from its JSON form (lists become tuples)."""
    return [Fault(at, kind, _frozen(target)) for at, kind, target in entries]


def injected(log: Sequence[Applied], *kinds: str) -> List[Applied]:
    """The entries of ``kinds`` that were applied, not skipped."""
    return [a for a in log if a.kind in kinds and a.resolved is not None]


# -- draws ------------------------------------------------------------------

def _cuttable(network) -> None:
    """The one fabric check: links exist only on an enabled fabric."""
    if not network.enabled:
        raise ValueError("link faults need the network fabric "
                         "(config.network.enabled)")


def _episodes(rng: SeededRNG, until: float, mtbf_s: float,
              close_s: Optional[float],
              opening: Callable[[], List[Tuple[str, Any]]]) -> List[Fault]:
    """Poisson episodes before ``until``, one after another: each opens
    the ``(kind, target)`` entries ``opening`` draws and, given
    ``close_s``, closes them after an exponential ``close_s`` — or at
    ``until``, whichever comes first."""
    if mtbf_s <= 0 or (close_s is not None and close_s <= 0):
        raise ValueError("MTBF and mean heal/repair time must be positive")
    schedule, t = [], 0.0
    while True:
        t += rng.expovariate(1.0 / mtbf_s)
        if t >= until:
            return schedule
        opened = opening()
        schedule += [Fault(t, kind, target) for kind, target in opened]
        if close_s is not None:
            t = min(t + rng.expovariate(1.0 / close_s), until)
            schedule += [Fault(t, CLOSES[kind], target)
                         for kind, target in opened]


def _one_link(rng: SeededRNG, a: str, b: str) -> Tuple[str, Any]:
    if rng.random() < ASYMMETRIC_PROBABILITY:
        return "cut", (a, b, False) if rng.random() < 0.5 else (b, a, False)
    return "cut", (a, b, True)


def crashes(seed: int, machines: Sequence[str], until: float, mtbf_s: float,
            kind: str = "fail",
            repair_mtbf_s: Optional[float] = None) -> List[Fault]:
    """Poisson machine faults (``kind`` ``"fail"`` or ``"crash"``) at
    ``mtbf_s``, each a rank into the candidates of its instant, and —
    from a stream of its own — Poisson repairs at ``repair_mtbf_s``."""
    rng = SeededRNG(seed).fork("failure-injector")
    schedule = _episodes(rng, until, mtbf_s, None, lambda: [
        (kind, rng.randint(0, len(machines) - 1))])
    if repair_mtbf_s is not None:
        repairs = SeededRNG(seed).fork("repair-injector")
        schedule += _episodes(repairs, until, repair_mtbf_s, None, lambda: [
            ("repair", repairs.randint(0, len(machines) - 1))])
    return sorted(schedule, key=lambda f: f.at)


def link_cuts(seed: int, machines: Sequence[str], until: float, mtbf_s: float,
              mean_heal_s: float, network) -> List[Fault]:
    """Fabric episodes: isolate a random minority of ``machines`` from
    the controller and the rest, or cut one to :data:`MAX_CUT_LINKS`
    controller↔machine links (each maybe one-way)."""
    _cuttable(network)
    rng = SeededRNG(seed).fork("partition-injector")
    names = sorted(machines)

    def opening():
        if len(names) >= 2 and rng.random() < SPLIT_PROBABILITY:
            isolated = sorted(rng.sample(names, rng.randint(
                1, max(1, len(names) // 2))))
            rest = sorted([CONTROLLER] + [m for m in names
                                          if m not in isolated])
            return [("split", (tuple(rest), tuple(isolated)))]
        k = rng.randint(1, min(MAX_CUT_LINKS, len(names)))
        return [_one_link(rng, CONTROLLER, name)
                for name in sorted(rng.sample(names, k))]

    return _episodes(rng, until, mtbf_s, mean_heal_s, opening) if names else []


def controller_kills(seed: int, nodes: Sequence[str], until: float,
                     kill_mtbf_s: float, mean_repair_s: float,
                     partition_mtbf_s: Optional[float], mean_heal_s: float,
                     network) -> List[Fault]:
    """Consensus replica kills (the lease holder with probability
    :data:`PREFER_LEADER`, else a rank) each repaired after
    ``mean_repair_s``; and, from their own stream, symmetric
    controller↔controller link cuts healed after ``mean_heal_s``."""
    kills = SeededRNG(seed).fork("controller-kill-injector")
    schedule = _episodes(kills, until, kill_mtbf_s, mean_repair_s, lambda: [
        ("kill_ctl", "leader" if kills.random() < PREFER_LEADER
         else kills.randint(0, len(nodes) - 1))])
    if partition_mtbf_s is not None:
        _cuttable(network)
        cuts = SeededRNG(seed).fork("controller-partition-injector")
        schedule += _episodes(cuts, until, partition_mtbf_s, mean_heal_s,
                              lambda: [("cut", (*cuts.sample(sorted(nodes), 2),
                                                True))])
    return sorted(schedule, key=lambda f: f.at)


def wan_cuts(seed: int, colos: Sequence[str], until: float, mtbf_s: float,
             mean_heal_s: float, network) -> List[Fault]:
    """WAN episodes: isolate one colo from the system controller and
    every peer (:data:`ISOLATE_PROBABILITY`), or cut one colo↔colo link
    (maybe one-way), stalling that direction's log shipping."""
    _cuttable(network)
    rng = SeededRNG(seed).fork("wan-partition-injector")
    names = sorted(colos)

    def opening():
        if rng.random() < ISOLATE_PROBABILITY:
            victim = rng.choice(names)
            return [("split", (tuple(sorted([SYSTEM] + [c for c in names
                                                        if c != victim])),
                               (victim,)))]
        return [_one_link(rng, *rng.sample(names, 2))] if len(names) >= 2 \
            else []

    return _episodes(rng, until, mtbf_s, mean_heal_s, opening) if names else []


# -- the applier ------------------------------------------------------------

class _Skip(Exception):
    """The guards refused an entry; the message is the logged reason."""


def _rank(candidates: Sequence[str], target: Any, empty: str) -> str:
    """``target`` (a name or a rank) resolved among ``candidates``."""
    if not candidates:
        raise _Skip(empty)
    if isinstance(target, str):
        if target not in candidates:
            raise _Skip(f"{target} is not a candidate")
        return target
    if isinstance(target, int):
        return candidates[target % len(candidates)]
    raise _Skip("bad target")


def _links(target: Any) -> Tuple[str, List[Tuple[str, str]]]:
    """``("cut", links)`` of an ``(a, b, symmetric)`` target, ``("split",
    links)`` of a tuple of groups: the directed links it covers."""
    if (isinstance(target, tuple) and len(target) == 3
            and isinstance(target[0], str) and isinstance(target[1], str)
            and isinstance(target[2], bool)):
        a, b, symmetric = target
        return "cut", [(a, b), (b, a)] if symmetric else [(a, b)]
    if (isinstance(target, tuple) and len(target) >= 2
            and all(isinstance(g, tuple) and all(isinstance(n, str) for n in g)
                    for g in target)):
        return "split", [link for i, group in enumerate(target)
                         for other in target[i + 1:]
                         for a in group for b in other
                         for link in ((a, b), (b, a))]
    raise _Skip("bad target")


class _Applier:
    """What one applier remembers: the episodes still open (to pair each
    closing entry with its opening one) and how many open entries cover
    each cut link."""

    def __init__(self, world):
        self.world = world
        self.cluster = world if isinstance(world, ClusterController) else None
        self.fabric = world.wan if self.cluster is None else world.fabric
        self.open: Dict[Tuple[str, Any], Deque[Any]] = {}
        self.cuts: Dict[Tuple[str, str], int] = {}
        self.log: List[Applied] = []

    def run(self, schedule: Sequence[Fault]):
        sim = self.world.sim
        for fault in schedule:
            if fault.at > sim.now:
                yield sim.timeout(fault.at - sim.now)
            effect = EFFECTS.get(fault.kind)
            try:
                if effect is None:
                    raise _Skip("unknown kind")
                resolved, result = effect(self, fault.target)
            except _Skip as skip:
                resolved, result = None, str(skip)
            self.log.append(Applied(sim.now, fault.kind, fault.target,
                                    resolved, result))
            self.world.trace.emit(
                "fault", at=fault.at, fault=fault.kind, target=fault.target,
                resolved=resolved,
                skipped=result if resolved is None else None)

    # -- guards --------------------------------------------------------------

    def _machines(self) -> ClusterController:
        if self.cluster is None:
            raise _Skip("no cluster")
        return self.cluster

    def _colo(self, target: Any) -> str:
        if self.cluster is not None:
            raise _Skip("no colos")
        if not isinstance(target, str) or target not in self.world.colos:
            raise _Skip("bad target")
        return target

    def _victim(self, target: Any) -> str:
        cluster = self._machines()
        live = sorted(m.name for m in cluster.live_machines())
        if len(live) <= MIN_LIVE_MACHINES:
            raise _Skip("min live machines")
        spared = set()
        for db in cluster.replica_map.databases():
            replicas = cluster.live_replicas(db)
            if len(replicas) == 1:
                spared.update(replicas)
        if isinstance(target, str) and target in spared:
            raise _Skip("last live replica")
        return _rank([n for n in live if n not in spared], target,
                     "last live replica")

    def _opened(self, kind: str, target: Any, resolve: Callable[[], Any]):
        """Resolve an opening entry and file it — or its skip — for the
        entry that will close it."""
        episodes = self.open.setdefault((CLOSES[kind], target), deque())
        try:
            resolved = resolve()
        except _Skip:
            episodes.append(None)
            raise
        episodes.append(resolved)
        return resolved

    def _closed(self, kind: str, target: Any) -> Any:
        """What the earliest open entry this one closes resolved to."""
        episodes = self.open.get((kind, target))
        if not episodes:
            raise _Skip("nothing to heal" if kind == "heal"
                        else "nothing to repair")
        resolved = episodes.popleft()
        if resolved is None:
            raise _Skip("its opening entry was skipped")
        return resolved

    # -- effects -------------------------------------------------------------

    def fail(self, target):
        name = self._victim(target)
        return name, self.cluster.fail_machine(name)

    def crash(self, target):
        name = self._victim(target)
        self.cluster.crash_machine(name)
        return name, None

    def repair(self, target):
        cluster = self._machines()
        name = _rank(sorted(n for n, m in cluster.machines.items()
                            if not m.alive
                            and not cluster.replica_map.hosted_on(n)),
                     target, "nothing to repair")
        cluster.repair_machine(name)
        return name, None

    def _cover(self, kind: str, target: Any) -> None:
        shape, links = _links(target)
        if shape != kind:
            raise _Skip("bad target")
        self._opened(kind, target, lambda: target)
        for link in links:
            self.cuts[link] = self.cuts.get(link, 0) + 1

    def cut(self, target):
        self._cover("cut", target)
        self.fabric.cut(*target[:2], symmetric=target[2])
        return target, None

    def split(self, target):
        self._cover("split", target)
        self.fabric.split(target)
        return target, None

    def heal(self, target):
        _shape, links = _links(target)
        self._closed("heal", target)
        healed = []
        for link in links:
            self.cuts[link] -= 1
            if not self.cuts[link]:
                del self.cuts[link]
                healed.append(link)
        # One symmetric heal per link whose both directions reopened.
        pending = set(healed)
        for a, b in healed:
            if (a, b) in pending:
                pending.discard((a, b))
                symmetric = (b, a) in pending
                pending.discard((b, a))
                self.fabric.heal(a, b, symmetric=symmetric)
        return target, None

    def kill_ctl(self, target):
        consensus = self._machines().consensus

        def victim():
            group = consensus.group
            alive = sorted(n.name for n in group.nodes.values() if n.alive)
            if len(alive) <= group.majority:
                raise _Skip("majority")
            if target == "leader":
                leader = group.leader()
                if leader is None:
                    raise _Skip("no leader")
                return leader.name
            return _rank(alive, target, "majority")

        if not isinstance(target, (str, int)):
            raise _Skip("bad target")
        name = self._opened("kill_ctl", target, victim)
        consensus.crash_controller(name)
        return name, None

    def repair_ctl(self, target):
        consensus = self._machines().consensus
        if not isinstance(target, (str, int)):
            raise _Skip("bad target")
        name = self._closed("repair_ctl", target)
        consensus.repair_controller(name)
        return name, None

    def crash_colo(self, target):
        name = self._colo(target)
        self.world.crash_colo(name)
        return name, None

    def repair_colo(self, target):
        if self._colo(target) not in self.world.declared_dead:
            raise _Skip("nothing to repair")
        self.world.repair_colo(target)
        return target, None


#: The ``kind -> effect`` table; an effect returns ``(resolved, result)``.
EFFECTS = {kind: getattr(_Applier, kind) for kind in (
    "fail", "crash", "repair", "cut", "split", "heal", "kill_ctl",
    "repair_ctl", "crash_colo", "repair_colo")}


def apply(world, schedule: Sequence[Fault]) -> List[Applied]:
    """Spawn the one applier process over ``schedule`` (in ``at`` order)
    on a :class:`ClusterController` or a system controller; returns its
    log, which fills as entries fire. An empty schedule spawns nothing."""
    applier = _Applier(world)
    if schedule:
        world.sim.process(applier.run(sorted(
            (Fault(at, kind, _frozen(target))
             for at, kind, target in schedule), key=lambda f: f.at)),
            name="faults")
    return applier.log
