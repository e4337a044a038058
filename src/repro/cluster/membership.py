"""Heartbeat failure detection: suspect, then declare.

One detector serves both tiers: the cluster controller binds it over
``CONTROLLER -> machine`` links of the rack fabric, the system
controller over ``SYSTEM -> colo`` links of the WAN fabric. Each keeps
only its *reactions* (what suspecting, declaring or readmitting a
target means there) and hands them in as callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Mapping, Optional, Set

from repro.cluster.network import NetworkFabric
from repro.sim import Process, Simulator


@dataclass(eq=False)
class HeartbeatDetector:
    """Suspect→declare failure detector over one fabric endpoint.

    Every ``heartbeat_interval_s`` one probe per target makes a round
    trip over the fabric; a lost or late reply is a miss. A target is
    *suspected* after ``suspect_after_misses`` consecutive misses and
    *declared* after ``declare_after_misses``, unless ``declare_allowed``
    vetoes it (the last replica / last standby is never fenced). A
    fenced target still answers probes — it refuses work, not liveness
    checks — which is how a falsely declared one comes back
    (``on_return``).

    ``targets`` is the owner's live ``name -> object`` mapping (objects
    expose ``name`` and ``alive``), ``declared`` its live set of
    declared-dead names, and ``settings`` any object carrying the three
    heartbeat values above, read at each use — the detector mutates
    none of them. ``suspected`` maps a name to when suspicion began;
    ``misses`` counts its consecutive silent probes.
    """

    sim: Simulator
    fabric: NetworkFabric
    source: str
    targets: Mapping[str, Any]
    declared: Set[str]
    settings: Any
    name: str
    probe_prefix: str
    on_suspect: Callable[[str, int], None]
    on_unsuspect: Callable[[str, float], None]
    on_declare: Callable[..., Any]          # (name, reason=...)
    on_return: Callable[[str], None]
    declare_allowed: Callable[[str], bool]
    # False while the owner may not act (a crashed primary controller):
    # the loop ends and in-flight probes are ignored.
    active: Callable[[], bool] = lambda: True
    suspected: Dict[str, float] = field(default_factory=dict, init=False)
    misses: Dict[str, int] = field(default_factory=dict, init=False)
    # Outstanding probe per target: one that outlasts the interval (slow
    # or cut link) suppresses new probes for the same target, so probes
    # cannot pile up and double-count one silence.
    _probes: Dict[str, Process] = field(default_factory=dict, init=False)
    _proc: Optional[Process] = field(default=None, init=False)

    @property
    def started(self) -> bool:
        """Has :meth:`start` ever run (the loop may have ended since)?"""
        return self._proc is not None

    def start(self) -> Process:
        """Start (or return the still-running) heartbeat loop."""
        if not self.fabric.enabled:
            raise RuntimeError(
                f"failure detector {self.name!r} needs its network fabric "
                "enabled")
        if self._proc is None or self._proc.triggered:
            self._proc = self.sim.process(self._detector_loop(),
                                          name=self.name)
            self._proc.defused = True
        return self._proc

    def forget(self, name: str) -> None:
        """Drop suspicion and the miss count of ``name`` (it was
        declared, repaired or readmitted by the owner)."""
        self.suspected.pop(name, None)
        self.misses.pop(name, None)

    def reset(self) -> None:
        """Forget every target (the owner was wiped back to blank)."""
        self.suspected.clear()
        self.misses.clear()
        self._probes.clear()

    def _detector_loop(self) -> Generator:
        while self.active():
            for name in list(self.targets):
                outstanding = self._probes.get(name)
                if outstanding is not None and outstanding.is_alive:
                    continue
                probe = self.sim.process(
                    self._probe(name), name=f"{self.probe_prefix}:{name}")
                probe.defused = True
                self._probes[name] = probe
            yield self.sim.timeout(self.settings.heartbeat_interval_s)

    def _ping(self, target) -> Generator:
        """One heartbeat round trip; late replies count as misses."""
        deadline = self.sim.now + self.settings.heartbeat_interval_s
        delivered = yield from self.fabric.deliver(self.source, target.name)
        if not delivered or not target.alive:
            return False
        delivered = yield from self.fabric.deliver(target.name, self.source)
        return delivered and self.sim.now <= deadline

    def _probe(self, name: str) -> Generator:
        target = self.targets.get(name)
        if target is None:
            return
        answered = yield from self._ping(target)
        if not self.active():
            return
        if answered:
            self.misses[name] = 0
            if name in self.declared:
                self.on_return(name)
            elif name in self.suspected:
                since = self.suspected.pop(name)
                self.on_unsuspect(name, self.sim.now - since)
            return
        if name in self.declared:
            return
        misses = self.misses.get(name, 0) + 1
        self.misses[name] = misses
        if (misses >= self.settings.suspect_after_misses
                and name not in self.suspected):
            self.suspected[name] = self.sim.now
            self.on_suspect(name, misses)
        if (misses >= self.settings.declare_after_misses
                and name in self.suspected and self.declare_allowed(name)):
            self.on_declare(name, reason=f"{misses} missed heartbeats")
