"""Unit tests for fault schedules: the draws are pure data, the applier
resolves ranks at fire time, every guard skips with its own reason, and
overlapping link cuts compose."""

import json

import pytest

from repro.cluster.config import production_profile
from repro.cluster.network import CONTROLLER, NetworkConfig
from repro.harness.faults import (CLOSES, MIN_LIVE_MACHINES, Fault, apply,
                                  controller_kills, crashes, injected,
                                  link_cuts, load, wan_cuts)
from repro.sim import Simulator
from tests.conftest import assert_no_violations, make_kv_cluster

MACHINES = [f"cluster-m{i}" for i in range(1, 7)]
FABRIC = NetworkConfig(enabled=True)


def prod_cluster(machines=5):
    """Fabric, consensus group and a two-replica ``kv`` tenant."""
    return make_kv_cluster(Simulator(), machines=machines,
                           profile=production_profile(1))


def run(controller, schedule, until=10.0):
    log = apply(controller, schedule)
    controller.sim.run(until=until)
    return log


def reasons(log):
    return [(a.kind, a.result if a.resolved is None else "applied")
            for a in log]


DRAWS = {
    "crashes": lambda seed: crashes(seed, MACHINES, 60.0, 5.0, kind="crash",
                                    repair_mtbf_s=4.0),
    "link_cuts": lambda seed: link_cuts(seed, MACHINES, 60.0, 3.0, 2.0,
                                        FABRIC),
    "controller_kills": lambda seed: controller_kills(
        seed, ["c0", "c1", "c2"], 60.0, 4.0, 3.0, 5.0, 1.0, FABRIC),
    "wan_cuts": lambda seed: wan_cuts(seed, ["colo0", "colo1", "colo2"],
                                      60.0, 3.0, 2.0, FABRIC),
}


class TestDraws:
    @pytest.mark.parametrize("family", list(DRAWS))
    def test_a_draw_is_pure_data(self, family):
        schedule = DRAWS[family](7)
        assert schedule and schedule == DRAWS[family](7)
        assert schedule != DRAWS[family](8)
        assert load(json.loads(json.dumps(schedule))) == schedule

    @pytest.mark.parametrize("family", list(DRAWS))
    def test_sorted_inside_the_window_and_closed_by_until(self, family):
        for seed in range(20):
            schedule = DRAWS[family](seed)
            times = [f.at for f in schedule]
            assert times == sorted(times)
            assert all(0.0 <= t <= 60.0 for t in times)
            still_open = {}
            for fault in schedule:
                if fault.kind in CLOSES:
                    still_open[fault.target] = \
                        still_open.get(fault.target, 0) + 1
                elif fault.kind in CLOSES.values():
                    still_open[fault.target] -= 1
            assert set(still_open.values()) <= {0}

    def test_link_faults_need_the_fabric(self):
        off = NetworkConfig()
        with pytest.raises(ValueError):
            link_cuts(1, MACHINES, 10.0, 2.0, 1.0, off)
        with pytest.raises(ValueError):
            controller_kills(1, ["c0", "c1", "c2"], 10.0, 2.0, 1.0, 5.0,
                             1.0, off)
        # Kills alone need no fabric.
        assert controller_kills(1, ["c0", "c1", "c2"], 30.0, 2.0, 1.0, None,
                                1.0, off)


class TestVictimSelection:
    def test_candidates_exclude_last_replicas(self):
        controller = prod_cluster()
        first, second = controller.replica_map.replicas("kv")
        # The survivor is skipped by name, and no rank ever reaches it.
        log = run(controller, [Fault(0.1, "fail", first),
                               Fault(0.2, "fail", second)]
                  + [Fault(0.3, "crash", rank) for rank in range(5)])
        assert reasons(log)[:2] == [("fail", "applied"),
                                    ("fail", "last live replica")]
        assert controller.live_replicas("kv") == [second]
        assert second not in [a.resolved for a in log]

    def test_candidates_respect_min_live(self):
        controller = prod_cluster(machines=MIN_LIVE_MACHINES)
        log = run(controller, [Fault(0.1, "fail", 0),
                               Fault(0.2, "crash", "cluster-m1")])
        assert reasons(log) == [("fail", "min live machines"),
                                ("crash", "min live machines")]

    def test_deterministic_for_seed(self):
        logs = []
        for _ in range(2):
            controller = prod_cluster(machines=6)
            schedule = crashes(11, sorted(controller.machines), 30.0, 3.0)
            logs.append(run(controller, schedule, until=30.0))
        assert logs[0] == logs[1]
        assert injected(logs[0], "fail"), "expected a failure in 30 s"


class TestRepairStream:
    def test_repairs_return_machines_as_spares(self):
        controller = prod_cluster(machines=6)
        log = run(controller, crashes(9, sorted(controller.machines), 60.0,
                                      3.0, repair_mtbf_s=2.0), until=60.0)
        assert injected(log, "fail"), "expected failures"
        assert injected(log, "repair"), "expected repairs"
        for repair in injected(log, "repair"):
            assert repair.resolved in controller.machines
            assert repair.at > 0
        assert ("repair", "nothing to repair") in reasons(log)

    def test_crashed_machine_not_repairable_until_declared(self):
        controller = prod_cluster()
        victim = controller.replica_map.replicas("kv")[0]
        # Still in the replica map: the detector has not declared it.
        log = run(controller, [Fault(0.1, "crash", victim),
                               Fault(0.2, "repair", 0),
                               Fault(0.3, "repair", victim)])
        assert reasons(log) == [("crash", "applied"),
                                ("repair", "nothing to repair"),
                                ("repair", "nothing to repair")]


class TestControllerKills:
    def test_majority_and_the_repair_of_a_skipped_kill(self):
        controller = prod_cluster()
        log = run(controller, [Fault(1.0, "kill_ctl", 0),
                               Fault(1.1, "kill_ctl", 0),
                               Fault(2.0, "repair_ctl", 0),
                               Fault(2.1, "repair_ctl", 0),
                               Fault(2.2, "repair_ctl", 0)])
        assert reasons(log) == [
            ("kill_ctl", "applied"), ("kill_ctl", "majority"),
            ("repair_ctl", "applied"),
            ("repair_ctl", "its opening entry was skipped"),
            ("repair_ctl", "nothing to repair")]
        assert log[2].resolved == log[0].resolved
        group = controller.consensus.group
        assert all(node.alive for node in group.nodes.values())

    def test_the_leader_resolves_at_fire_time(self):
        controller = prod_cluster()
        log = run(controller, [Fault(3.0, "kill_ctl", "leader"),
                               Fault(6.0, "repair_ctl", "leader")])
        killed = log[0].resolved
        assert killed is not None and log[1].resolved == killed
        assert [e.machine for e in controller.trace.events("ctl_crashed")] \
            == [killed]


class TestPartitionInjector:
    def test_requires_fabric(self):
        with pytest.raises(ValueError):
            link_cuts(1, MACHINES, 10.0, 5.0, 1.0, NetworkConfig())

    def test_episodes_cut_then_heal(self):
        controller = prod_cluster(machines=4)
        schedule = link_cuts(2, sorted(controller.machines), 30.0, 3.0, 1.0,
                             controller.fabric.config)
        log = run(controller, schedule, until=30.0)
        assert injected(log, "cut", "split"), "expected an episode"
        assert len(injected(log, "heal")) == len(injected(log, "cut",
                                                          "split"))
        assert controller.fabric.cut_links() == []

    def test_stop_heals_outstanding_cuts(self):
        # A long episode is closed at ``until``, where stop() used to be.
        schedule = link_cuts(3, MACHINES, 5.0, 0.5, 1000.0, FABRIC)
        assert schedule[-1].at == 5.0 and schedule[-1].kind == "heal"
        controller = prod_cluster(machines=6)
        controller.sim.run(until=0.1)
        apply(controller, schedule)
        controller.sim.run(until=4.9)
        assert controller.fabric.cut_links(), "episode should be open"
        controller.sim.run(until=6.0)
        assert controller.fabric.cut_links() == []

    def test_deterministic_for_seed(self):
        runs = [link_cuts(11, MACHINES, 20.0, 2.0, 1.0, FABRIC)
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0]


class TestOverlappingCuts:
    def test_a_link_stays_cut_until_its_last_cover_heals(self):
        controller = prod_cluster()
        link = (CONTROLLER, "cluster-m1", True)
        split = ((CONTROLLER, "cluster-m0"), ("cluster-m1", "cluster-m2"))
        fabric = controller.fabric
        log = apply(controller, [Fault(1.0, "cut", link),
                                 Fault(2.0, "split", split),
                                 Fault(3.0, "heal", link),
                                 Fault(4.0, "heal", split),
                                 Fault(5.0, "heal", split)])
        controller.sim.run(until=2.5)
        assert not fabric.connected(CONTROLLER, "cluster-m1")
        controller.sim.run(until=3.5)
        # The split still covers controller -> m1; the cut's heal alone
        # must not reopen it.
        assert not fabric.connected(CONTROLLER, "cluster-m1")
        assert not fabric.connected("cluster-m0", "cluster-m2")
        controller.sim.run(until=6.0)
        assert fabric.cut_links() == []
        assert reasons(log)[-1] == ("heal", "nothing to heal")

    def test_one_way_cut_heals_one_way(self):
        controller = prod_cluster()
        link = ("cluster-m1", CONTROLLER, False)
        run(controller, [Fault(1.0, "cut", link), Fault(2.0, "heal", link)])
        healed = controller.trace.events("link_healed")
        assert [(e.extra["a"], e.extra["b"], e.extra["symmetric"])
                for e in healed] == [link]


class TestTraceCarriesTheSchedule:
    def test_one_fault_event_per_entry(self):
        controller = prod_cluster()
        schedule = [Fault(0.5, "fail", 1), Fault(0.7, "bogus", None),
                    Fault(1.0, "cut", (CONTROLLER, "cluster-m3", True)),
                    Fault(2.0, "heal", (CONTROLLER, "cluster-m3", True))]
        log = run(controller, schedule)
        events = controller.trace.events("fault")
        assert [(e.extra["at"], e.extra["fault"], e.extra["target"])
                for e in events] == schedule
        assert [e.extra["skipped"] for e in events] == \
            [None, "unknown kind", None, None]
        assert [e.extra["resolved"] for e in events] == \
            [a.resolved for a in log]
        # The exported trace replays: its entries load back as the list.
        dumped = [json.loads(json.dumps(
            [e.extra["at"], e.extra["fault"], e.extra["target"]]))
            for e in events]
        assert load(dumped) == schedule
        # The invariant checker reads past the event.
        assert_no_violations(controller)
