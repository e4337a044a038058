"""Integration tests for the unreliable fabric: heartbeat detection,
false-suspicion fencing and readmission, detection-driven recovery, and
a seeded partition soak audited by the invariant checker."""

import pytest

from repro.analysis.invariants import check_controller
from repro.cluster import RecoveryManager, WritePolicy
from repro.cluster.controller import TransactionAborted
from repro.cluster.network import CONTROLLER, NetworkConfig
from repro.errors import ControllerFailedError
from repro.harness import soaks
from repro.harness.faults import injected
from repro.harness.scenario import run_scenario
from tests.conftest import (assert_no_violations, make_kv_cluster,
                            read_table)


def make_fabric_cluster(sim, machines=4, **kwargs):
    kwargs.setdefault("heartbeat_interval_s", 0.2)
    return make_kv_cluster(
        sim, machines=machines,
        network=NetworkConfig(enabled=True, latency_s=0.001, seed=1),
        **kwargs)


class TestFalseSuspicion:
    def test_partitioned_machine_is_fenced_then_readmitted(self, sim):
        controller = make_fabric_cluster(sim)
        RecoveryManager(controller, retry_delay_s=0.5).start()
        controller.start_failure_detector()
        victim = controller.replica_map.replicas("kv")[0]

        # Cut only the controller's link: the machine is perfectly
        # healthy on the far side of the partition.
        controller.fabric.cut(CONTROLLER, victim)
        sim.run(until=5.0)
        assert victim in controller.declared_dead
        assert controller.machines[victim].fenced
        assert controller.machines[victim].alive
        assert victim not in controller.replica_map.replicas("kv")

        # Heal: the machine answers the next heartbeat and is readmitted
        # as a blank spare (its state is stale — recovery already handed
        # its replicas elsewhere).
        controller.fabric.heal(CONTROLLER, victim)
        sim.run(until=12.0)
        assert victim not in controller.declared_dead
        assert not controller.machines[victim].fenced
        assert not controller.replica_map.hosted_on(victim)
        assert controller.metrics.network.false_suspicions >= 1

        # No data loss: the replication factor was restored from the
        # surviving replica and writes still reach every live replica.
        live = controller.live_replicas("kv")
        assert len(live) == 2

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 7 WHERE k = 1")
            yield conn.commit()

        proc = sim.process(client())
        sim.run(until=20.0)
        assert proc.ok
        for name in controller.live_replicas("kv"):
            assert read_table(controller, name, "kv",
                              "SELECT v FROM kv WHERE k = 1") == [(7,)]
        assert_no_violations(controller,
                             expect_recovery_complete=True)

    def test_suspicion_clears_when_machine_answers_in_time(self, sim):
        controller = make_fabric_cluster(sim)
        controller.start_failure_detector()
        victim = controller.replica_map.replicas("kv")[0]
        # Cut long enough to suspect (2 misses) but not declare (5).
        controller.fabric.cut(CONTROLLER, victim)
        sim.run(until=0.7)
        assert victim in controller.detector.suspected
        controller.fabric.heal(CONTROLLER, victim)
        sim.run(until=3.0)
        assert victim not in controller.detector.suspected
        assert victim not in controller.declared_dead
        assert victim in controller.replica_map.replicas("kv")
        assert_no_violations(controller)


class TestDetectionDrivenRecovery:
    def test_silent_crash_is_declared_and_rereplicated(self, sim):
        controller = make_fabric_cluster(sim)
        RecoveryManager(controller, retry_delay_s=0.5).start()
        controller.start_failure_detector()
        victim = controller.replica_map.replicas("kv")[0]

        controller.crash_machine(victim)
        # No oracle: the replica map is untouched until the heartbeat
        # detector declares the machine dead.
        assert victim in controller.replica_map.replicas("kv")
        sim.run(until=10.0)
        assert victim in controller.declared_dead
        assert victim not in controller.replica_map.replicas("kv")
        assert len(controller.live_replicas("kv")) == 2
        assert_no_violations(controller, expect_recovery_complete=True)

    def test_last_replica_holder_is_never_declared(self, sim):
        controller = make_fabric_cluster(sim, replicas=1)
        controller.start_failure_detector()
        only = controller.replica_map.replicas("kv")[0]
        controller.fabric.cut(CONTROLLER, only)
        sim.run(until=10.0)
        # Declaring would discard the only replica: the machine stays
        # suspected (the suspicion resolves once the partition heals).
        assert only not in controller.declared_dead
        assert only in controller.detector.suspected
        controller.fabric.heal(CONTROLLER, only)
        sim.run(until=15.0)
        assert only not in controller.detector.suspected
        assert_no_violations(controller)


class TestWriteAcksAreStampedWhenTheySettle:
    """A replica's ``write_acked`` (and its ``write`` latency sample)
    belongs to the instant its branch settled. The coordinator used to
    walk the branches in issue order, so an ack that arrived at 4 ms was
    traced behind a slower, earlier-issued one — after its machine had
    been fenced in between, which the audit reads as a fenced replica
    serving."""

    @pytest.mark.parametrize("policy", [WritePolicy.CONSERVATIVE,
                                        WritePolicy.AGGRESSIVE])
    def test_early_acks_trace_before_the_fence(self, sim, policy):
        controller = make_fabric_cluster(sim, machines=3, replicas=3,
                                         write_policy=policy)
        first, second, third = controller.replica_map.replicas("kv")
        # Engine-local transactions hold row 5: on the first replica
        # until t = 0.5 and, under the aggressive policy (whose client
        # resumes at the third replica's ack and whose late branches the
        # old watcher walked in order), on the second until t = 0.2.
        holders = {first: 0.5}
        if policy is WritePolicy.AGGRESSIVE:
            holders[second] = 0.2
        blockers = {}
        for name in holders:
            engine = controller.machines[name].engine
            blockers[name] = engine.begin()
            engine.execute_sync(blockers[name], "kv",
                                "UPDATE kv SET v = 1 WHERE k = 5")

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 2 WHERE k = 5")
            yield sim.timeout(1.0 - sim.now)
            yield conn.commit()

        def script():
            for at, name in sorted((at, name)
                                   for name, at in holders.items()):
                if at > 0.3 > sim.now:
                    yield sim.timeout(0.3 - sim.now)
                    controller.declare_dead(second)
                yield sim.timeout(at - sim.now)
                controller.machines[name].engine.abort(blockers[name])

        proc = sim.process(client())
        sim.process(script())
        sim.run(until=5.0)
        assert proc.ok
        assert_no_violations(controller)

        acked = {e.machine: e.t
                 for e in controller.trace.events(kind="write_acked")}
        fenced, = controller.trace.events(kind="machine_fenced")
        assert fenced.machine == second and fenced.t == 0.3
        assert acked[third] < 0.01
        assert acked[second] < fenced.t
        assert 0.5 < acked[first] < 0.6
        samples = controller.metrics.phase_latencies["write"]
        assert samples.count == 3
        assert samples.percentile(50) == pytest.approx(acked[second],
                                                        rel=0.03)
        assert samples.percentile(100) == pytest.approx(acked[first],
                                                        rel=0.03)
        for name in (first, third):
            assert read_table(controller, name, "kv",
                              "SELECT v FROM kv WHERE k = 5") == [(2,)]


class TestPartitionSoak:
    def test_seeded_soak_has_zero_violations(self):
        result = run_scenario(soaks.partitions(
            duration_s=20.0, drain_s=30.0, seed=3))
        violations = check_controller(result.controller,
                                      expect_recovery_complete=True)
        assert not violations, "\n".join(str(v) for v in violations)
        assert result.committed > 0
        assert injected(result.applied, "cut", "split"), \
            "expected partition episodes"
        summary = result.metrics.snapshot()["network"]
        assert summary["messages_sent"] > 0
        assert summary["delivered"] <= summary["messages_sent"]
        # The drain healed everything; no suspicion dangles.
        assert not result.controller.detector.suspected

    def test_seeded_soak_aggressive_policy(self):
        result = run_scenario(soaks.partitions(
            duration_s=20.0, drain_s=30.0, seed=5,
            write_policy=WritePolicy.AGGRESSIVE))
        violations = check_controller(result.controller,
                                      expect_recovery_complete=True)
        assert not violations, "\n".join(str(v) for v in violations)
        assert result.committed > 0
