"""A machine, or a colo, leaves service one way (DESIGN §4z).

``fail_machine`` is ``crash_machine`` followed by an immediate
``declare_dead``; ``fail_colo`` is ``crash_colo`` followed by an
immediate ``declare_colo_dead``. With the failure detector running, the
detector must therefore see nothing left to do: the failed machine (or
colo) is declared once, at the fail instant, and never suspected.
"""

from repro.analysis.invariants import InvariantChecker
from repro.cluster import RecoveryManager
from repro.cluster.network import NetworkConfig
from tests.conftest import assert_no_violations, make_kv_cluster
from tests.integration.test_disaster_recovery import (commit_n,
                                                      make_platform, spec,
                                                      wan_config)

FAIL_AT = 2.0


def test_failed_machine_is_declared_once_and_never_suspected(sim):
    controller = make_kv_cluster(
        sim, machines=4, heartbeat_interval_s=0.2,
        network=NetworkConfig(enabled=True, latency_s=0.001, seed=1))
    RecoveryManager(controller, retry_delay_s=0.5).start()
    controller.start_failure_detector()
    victim = controller.replica_map.replicas("kv")[0]
    sim.run(until=FAIL_AT)

    assert controller.fail_machine(victim) == ["kv"]
    config = controller.config
    sim.run(until=FAIL_AT + 3 * config.declare_after_misses
            * config.heartbeat_interval_s)

    declared = controller.trace.events("machine_declared", machine=victim)
    assert [(e.t, e.extra["reason"], e.extra["affected"])
            for e in declared] == [(FAIL_AT, "failed", ["kv"])]
    assert controller.trace.events("machine_suspected", machine=victim) == []
    assert [e.t for e in controller.trace.events(
        "machine_fenced", machine=victim)] == [FAIL_AT]
    # The survivors re-replicated what it held.
    assert victim not in controller.replica_map.replicas("kv")
    assert len(controller.live_replicas("kv")) == 2
    assert_no_violations(controller, expect_recovery_complete=True)


def test_failed_colo_is_declared_once_under_a_fresh_epoch():
    platform = make_platform(colos=3, wan=wan_config(jitter=0.001),
                             heartbeat_interval_s=0.5,
                             suspect_after_misses=2, declare_after_misses=5)
    platform.create_database(spec("app"))
    platform.bulk_load("app", "t", [(k, 0) for k in range(3)])
    commit_n(platform, "app", 3)
    system = platform.system
    system.start_failure_detector()
    platform.sim.run(until=FAIL_AT)
    primary, standby = system.placements["app"]
    epoch = system.epoch

    assert system.fail_colo(primary) == ["app"]
    platform.sim.run(until=FAIL_AT + 30.0)

    trace = system.trace
    assert [(e.t, e.extra["reason"])
            for e in trace.events("colo_declared", machine=primary)] == [
        (FAIL_AT, "failed")]
    assert [(e.t, e.extra["epoch"])
            for e in trace.events("colo_fenced", machine=primary)] == [
        (FAIL_AT, epoch + 1)]
    assert trace.events("colo_suspected", machine=primary) == []
    # The same promotion as the detector's path: the standby takes over
    # under the new epoch, and re-protection finds a fresh standby.
    assert [(e.db, e.extra["old"], e.extra["new"], e.extra["epoch"])
            for e in trace.events(kind="dr_promote")] == [
        ("app", primary, standby, epoch + 1)]
    new_primary, new_standby = system.placements["app"]
    assert new_primary == standby
    assert new_standby not in (None, primary)
    checker = InvariantChecker(dropped=trace.dropped)
    assert checker.check(trace.events()) == []
