"""Soak test: sustained random failures with background recovery.

The platform's promise: machine failures are absorbed — connections keep
working, replicas are re-created, replicas stay mutually consistent.
"""

import pytest

from repro.cluster import RecoveryManager
from repro.harness.faults import FailureInjector
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
        injector = FailureInjector(controller, mtbf_s=8.0, seed=3,
                                   min_live_machines=3)
        injector.start()

        stats = [KvStats() for _ in range(4)]
        for cid in range(4):
            proc = sim.process(workload.client(
                cid, transactions=120, think_time_s=0.2,
                stats=stats[cid]))
            proc.defused = True
        sim.run(until=60.0)
        injector.stop()
        sim.run(until=90.0)  # let recovery drain

        # Failures actually happened and clients kept committing.
        assert injector.events, "MTBF 8 s over 60 s must produce failures"
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
        controller = make_cluster(sim, machines=3)
        workload = KeyValueWorkload(controller, db_name="app", keys=5)
        workload.install(replicas=2)
        injector = FailureInjector(controller, mtbf_s=1.0, seed=5,
                                   min_live_machines=1)
        injector.start()
        sim.run(until=30.0)
        injector.stop()
        # No recovery manager: after one replica dies, the survivor is
        # the last live replica and must never be chosen.
        assert controller.live_replicas("app"), "database wiped out"

    def test_min_live_floor(self, sim):
        controller = make_cluster(sim, machines=4)
        injector = FailureInjector(controller, mtbf_s=0.5, seed=7,
                                   min_live_machines=2,
                                   spare_last_replicas=False)
        injector.start()
        sim.run(until=60.0)
        injector.stop()
        assert len(controller.live_machines()) >= 2

    def test_bad_mtbf_rejected(self, sim):
        controller = make_cluster(sim, machines=2)
        with pytest.raises(ValueError):
            FailureInjector(controller, mtbf_s=0)
