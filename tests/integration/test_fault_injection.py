"""Soak test: sustained random failures with background recovery.

The platform's promise: machine failures are absorbed — connections keep
working, replicas are re-created, replicas stay mutually consistent.
"""

import pytest

from repro.cluster import RecoveryManager
from repro.harness.faults import (MIN_LIVE_MACHINES, Fault, apply, crashes,
                                  injected)
from repro.workloads.microbench import KeyValueWorkload, KvStats
from tests.conftest import assert_no_violations, make_cluster, read_table


class TestFaultInjection:
    def test_soak_with_failures_and_recovery(self, sim):
        controller = make_cluster(sim, machines=6)
        controller.config.machine.copy_bytes_factor = 1000.0
        workload = KeyValueWorkload(controller, db_name="app", keys=30,
                                    seed=1)
        workload.install(replicas=2)
        recovery = RecoveryManager(controller, threads=2, retry_delay_s=1.0)
        recovery.start()
        log = apply(controller, crashes(3, sorted(controller.machines),
                                        until=60.0, mtbf_s=8.0))

        stats = [KvStats() for _ in range(4)]
        for cid in range(4):
            proc = sim.process(workload.client(
                cid, transactions=120, think_time_s=0.2,
                stats=stats[cid]))
            proc.defused = True
        sim.run(until=90.0)  # failures stop at 60 s; let recovery drain

        # Failures actually happened and clients kept committing.
        assert injected(log, "fail"), \
            "MTBF 8 s over 60 s must produce failures"
        assert sum(s.committed for s in stats) > 100

        # The database is fully replicated again and replicas agree.
        assert controller.replica_map.replica_count("app") == 2
        live = controller.live_replicas("app")
        assert len(live) == 2
        states = [read_table(controller, name, "app",
                             "SELECT k, v FROM kv ORDER BY k")
                  for name in live]
        assert states[0] == states[1]
        assert len(states[0]) == 30

        # The whole soak must satisfy the 2PC/replication invariants,
        # including every queued re-replication having completed.
        assert_no_violations(controller, expect_recovery_complete=True)

    def test_injector_spares_last_replicas(self, sim):
        # Five machines over a floor of three: two may fail, so once one
        # replica is gone the survivor is a candidate by count alone.
        controller = make_cluster(sim, machines=5)
        workload = KeyValueWorkload(controller, db_name="app", keys=5)
        workload.install(replicas=2)
        replicas = controller.replica_map.replicas("app")
        apply(controller, [Fault(1.0, "fail", replicas[0]),
                           Fault(2.0, "fail", replicas[1])]
              + crashes(5, sorted(controller.machines), until=30.0,
                        mtbf_s=1.0))
        sim.run(until=30.0)
        # No recovery manager: after one replica dies, the survivor is
        # the last live replica and must never be chosen.
        assert controller.live_replicas("app"), "database wiped out"

    def test_min_live_floor(self, sim):
        controller = make_cluster(sim, machines=6)
        apply(controller, crashes(7, sorted(controller.machines),
                                  until=60.0, mtbf_s=0.5))
        sim.run(until=60.0)
        assert len(controller.live_machines()) >= 2
        assert len(controller.live_machines()) == MIN_LIVE_MACHINES

    def test_bad_mtbf_rejected(self, sim):
        controller = make_cluster(sim, machines=2)
        with pytest.raises(ValueError):
            crashes(1, sorted(controller.machines), until=10.0, mtbf_s=0)
