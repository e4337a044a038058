"""Integration: runtime SLA compliance on a live cluster run."""

import pytest

from repro.cluster import RecoveryManager
from repro.cluster.controller import TransactionAborted
from repro.sla.model import Sla, availability_ok
from repro.sla.monitor import observed_availability_inputs
from repro.workloads.microbench import KeyValueWorkload
from tests.conftest import make_kv_cluster


class TestSlaRuntime:
    def test_healthy_cluster_is_compliant(self, sim):
        controller = make_kv_cluster(sim)
        workload = KeyValueWorkload(controller, db_name="app", keys=50)
        workload.install(replicas=2)
        for cid in range(3):
            proc = sim.process(workload.client(cid, transactions=30,
                                               think_time_s=0.05))
            proc.defused = True
        sim.run()
        sla = Sla(min_throughput_tps=1.0, max_rejected_fraction=0.01)
        counters = controller.metrics.per_db["app"]
        assert counters.committed / sim.now >= sla.min_throughput_tps
        assert counters.rejected_fraction() <= sla.max_rejected_fraction

    def test_recovery_rejections_feed_availability_estimate(self, sim):
        # Pins the database-level full copy: the whole-copy reject
        # window is what feeds the Section 4.1 availability estimate.
        controller = make_kv_cluster(sim, machines=4, keys=40)
        controller.config.machine.copy_bytes_factor = 100_000.0
        recovery = RecoveryManager(controller, copy="database")
        recovery.start()
        workload = KeyValueWorkload(controller, db_name="kv2", keys=40)
        workload.install(replicas=2)

        def writer():
            conn = controller.connect("kv2")
            for i in range(200):
                try:
                    yield conn.execute(
                        "UPDATE kv SET v = v + 1 WHERE k = ?", (i % 40,))
                    yield conn.commit()
                except TransactionAborted:
                    pass
                yield sim.timeout(0.05)

        victim = controller.replica_map.replicas("kv2")[1]

        def failer():
            yield sim.timeout(1.0)
            controller.fail_machine(victim)

        sim.process(writer())
        sim.process(failer())
        sim.run()

        # The copy window rejected some writes.
        assert controller.metrics.db("kv2").rejected > 0

        # Feed what happened into the Section 4.1 constraint.
        inputs = observed_availability_inputs(
            "kv2", recovery.records, failures_observed=1,
            window_s=sim.now, write_mix=1.0, period_s=30 * 24 * 3600.0)
        assert inputs.recovery_time_s > 0
        # A lax SLA passes; a 0-rejection SLA cannot.
        assert availability_ok(Sla(1.0, 0.5), inputs)
        assert not availability_ok(Sla(1.0, 1e-12), inputs)

        # The measured rejected fraction breaks a 1e-6 ceiling.
        sla = Sla(0.1, 1e-6)
        fraction = controller.metrics.per_db["kv2"].rejected_fraction()
        assert fraction > sla.max_rejected_fraction
