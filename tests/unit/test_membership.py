"""One set of cases for the heartbeat detector, run against both of its
bindings: the cluster controller over ``CONTROLLER -> machine`` and the
system controller over ``SYSTEM -> colo``."""

from dataclasses import dataclass
from typing import Any

import pytest

from repro.cluster.membership import HeartbeatDetector
from repro.cluster.network import (CONTROLLER, SYSTEM, NetworkConfig,
                                   NetworkFabric)
from repro.platform import DataPlatform, DatabaseSpec
from repro.sim import Simulator
from repro.sla import Sla
from tests.conftest import make_cluster

DDL = ["CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"]
INTERVAL = 0.1
# Both tiers' defaults: suspect after 2 silent heartbeats, declare after 5.
SUSPECT_AFTER, DECLARE_AFTER = 2, 5


@dataclass
class Tier:
    """One binding of the detector, reduced to what the cases need."""

    sim: Simulator
    owner: Any              # ClusterController / SystemController
    source: str             # the detector's own fabric endpoint
    noun: str               # trace kinds are ``{noun}_suspected`` etc.
    victim: str             # a target the tier can afford to declare
    last: str               # holds the only copy of a database: vetoed

    @property
    def detector(self) -> HeartbeatDetector:
        return self.owner.detector

    @property
    def fabric(self) -> NetworkFabric:
        return self.detector.fabric

    def kinds(self):
        return {e.kind for e in self.owner.trace.events()}


def cluster_tier(latency_s: float) -> Tier:
    sim = Simulator()
    controller = make_cluster(
        sim, machines=3, heartbeat_interval_s=INTERVAL,
        network=NetworkConfig(enabled=True, latency_s=latency_s, seed=1))
    m1, m2, m3 = controller.machines
    controller.create_database("pair", DDL, machines=[m1, m2])
    controller.create_database("solo", DDL, machines=[m3])
    return Tier(sim, controller, CONTROLLER, "machine", victim=m1, last=m3)


def system_tier(latency_s: float) -> Tier:
    platform = DataPlatform(
        wan=NetworkConfig(enabled=True, latency_s=latency_s, seed=1),
        heartbeat_interval_s=INTERVAL)
    for i in range(2):
        platform.add_colo(f"colo{i}", free_machines=8)
    for name, dr in (("pair", True), ("solo", False)):
        platform.create_database(DatabaseSpec(
            name=name, ddl=list(DDL), sla=Sla(1.0, 0.001),
            expected_size_mb=5.0, replicas=2, disaster_recovery=dr))
    system = platform.system
    last = system.placements["solo"][0]
    victim, = set(system.colos) - {last}
    return Tier(platform.sim, system, SYSTEM, "colo", victim, last)


@pytest.fixture(params=[cluster_tier, system_tier],
                ids=["cluster", "system"])
def build(request):
    def start(latency_s: float = 0.005) -> Tier:
        tier = request.param(latency_s)
        assert tier.detector.source == tier.source
        assert tier.detector.declare_allowed(tier.victim)
        assert not tier.detector.declare_allowed(tier.last)
        tier.owner.start_failure_detector()
        return tier
    return start


class TestSuspectThenDeclare:
    def test_suspects_after_k_misses_declares_after_n(self, build):
        tier = build()
        tier.fabric.cut(tier.source, tier.victim)
        # Miss k lands one request leg after heartbeat k-1.
        tier.sim.run(until=(SUSPECT_AFTER - 1) * INTERVAL + 0.05)
        assert tier.detector.misses[tier.victim] == SUSPECT_AFTER
        assert tier.victim in tier.detector.suspected
        assert tier.victim not in tier.owner.declared_dead
        assert f"{tier.noun}_suspected" in tier.kinds()
        tier.sim.run(until=(DECLARE_AFTER - 1) * INTERVAL + 0.05)
        assert tier.victim in tier.owner.declared_dead
        assert tier.victim not in tier.detector.suspected
        assert f"{tier.noun}_declared" in tier.kinds()
        # Everyone else kept answering.
        assert tier.last not in tier.detector.suspected

    def test_answer_in_time_unsuspects(self, build):
        tier = build()
        tier.fabric.cut(tier.source, tier.victim)
        tier.sim.run(until=SUSPECT_AFTER * INTERVAL + 0.05)
        assert tier.victim in tier.detector.suspected
        tier.fabric.heal(tier.source, tier.victim)
        tier.sim.run(until=1.0)
        assert tier.victim not in tier.detector.suspected
        assert tier.victim not in tier.owner.declared_dead
        assert tier.detector.misses[tier.victim] == 0
        assert f"{tier.noun}_unsuspected" in tier.kinds()

    def test_answer_after_declaration_brings_the_target_back(self, build):
        tier = build()
        tier.fabric.cut(tier.source, tier.victim)
        tier.sim.run(until=1.0)
        assert tier.victim in tier.owner.declared_dead
        tier.fabric.heal(tier.source, tier.victim)
        tier.sim.run(until=2.0)
        assert tier.victim not in tier.owner.declared_dead
        assert not tier.detector.suspected

    def test_veto_holds_the_last_copy(self, build):
        tier = build()
        tier.fabric.cut(tier.source, tier.last)
        tier.sim.run(until=2.0)
        # Declaring would lose the only replica / the unprotected
        # primary: it stays suspected however long the silence lasts.
        assert tier.detector.misses[tier.last] > DECLARE_AFTER
        assert tier.last in tier.detector.suspected
        assert tier.last not in tier.owner.declared_dead
        tier.fabric.heal(tier.source, tier.last)
        tier.sim.run(until=3.0)
        assert tier.last not in tier.detector.suspected


class TestProbeCoalescing:
    """A slow probe suppresses new ones instead of stacking misses.

    One ping round trip (1.0s) spans ten heartbeat intervals (0.1s);
    every response arrives past its deadline, so each *completed* probe
    is one miss. Stacked probes would instead count one miss per
    interval for the same silence.
    """

    def test_outstanding_probe_suppresses_new_ones(self, build):
        tier = build(latency_s=0.5)
        tier.sim.run(until=2.0)
        for name in tier.detector.targets:
            # ~2 completed probes by t=2.0, not ~20 stacked ones.
            assert tier.detector.misses.get(name, 0) <= 3
            assert name not in tier.owner.declared_dead

    def test_probe_resumes_after_outstanding_settles(self, build):
        tier = build(latency_s=0.5)
        tier.sim.run(until=4.0)
        for name in tier.detector.targets:
            # Probes keep being issued once the previous one settles:
            # misses grow with completed probes (roughly one per round
            # trip), proving the detector did not stall.
            assert tier.detector.misses.get(name, 0) >= 2


def test_detector_needs_its_fabric_enabled():
    sim = Simulator()
    controller = make_cluster(sim, machines=1)
    with pytest.raises(RuntimeError):
        controller.start_failure_detector()
    assert not controller.detector.started
