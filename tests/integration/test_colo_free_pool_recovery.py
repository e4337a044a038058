"""Integration: recovery pulls a fresh machine from the colo free pool.

"The colo controller manages a pool of free machines and adds them to
clusters as needed" — exercised here through the recovery manager each
colo cluster runs, and its free-machine hook when no existing machine
can host a new replica.
"""

from repro.platform import ColoController, DatabaseSpec, DataPlatform
from repro.sim import Simulator
from repro.sla import Sla
from repro.sla.model import ResourceVector

DDL = ["CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"]


class TestFreePoolRecovery:
    def test_recovery_provisions_from_pool(self):
        sim = Simulator()
        colo = ColoController(sim, "colo", free_machines=3)
        cluster = colo.add_cluster(machines=2)
        requirement = ResourceVector(cpu=0.1, memory_mb=10,
                                     disk_io_mbps=1, disk_mb=10)
        colo.place_database("db", list(DDL), requirement, replicas=2)
        cluster.bulk_load("db", "t", [(k, 0) for k in range(10)])
        recovery = cluster.recovery

        # With only 2 machines, losing one leaves no spare: the recovery
        # target must come from the colo pool.
        victim = cluster.replica_map.replicas("db")[1]
        assert len(cluster.machines) == 2
        cluster.fail_machine(victim)
        sim.run()

        assert cluster.replica_map.replica_count("db") == 2
        assert len(cluster.machines) == 3  # one provisioned from the pool
        assert colo.free_pool == 0
        assert recovery.records and recovery.records[-1].succeeded

    def test_recovery_stalls_gracefully_when_pool_empty(self):
        sim = Simulator()
        colo = ColoController(sim, "colo", free_machines=2)
        cluster = colo.add_cluster(machines=2)
        requirement = ResourceVector(cpu=0.1, memory_mb=10,
                                     disk_io_mbps=1, disk_mb=10)
        colo.place_database("db", list(DDL), requirement, replicas=2)
        cluster.bulk_load("db", "t", [(k, 0) for k in range(5)])
        victim = cluster.replica_map.replicas("db")[1]
        cluster.fail_machine(victim)
        sim.run(until=30.0)
        # No machine available: still under-replicated, but the cluster
        # keeps serving from the survivor.
        assert cluster.replica_map.replica_count("db") == 1

        def client():
            conn = cluster.connect("db")
            result = yield conn.execute("SELECT COUNT(*) FROM t")
            yield conn.commit()
            return result.scalar()

        proc = sim.process(client())
        # Bounded run: the recovery manager keeps retrying (and failing)
        # every few seconds, so the schedule never drains on its own.
        sim.run(until=40.0)
        assert proc.ok and proc.value == 5

    def test_platform_cluster_re_replicates_a_failed_machine(self):
        # Through the facade alone: no recovery manager is started by
        # hand, yet the tenant is back to two replicas.
        platform = DataPlatform()
        platform.add_colo("colo0", free_machines=8)
        platform.create_database(DatabaseSpec(
            name="app", ddl=list(DDL), sla=Sla(5.0, 0.01),
            expected_size_mb=2.0, replicas=2))
        platform.bulk_load("app", "t", [(k, 0) for k in range(10)])
        cluster = platform.system.colos["colo0"].cluster_of("app")
        victim = cluster.replica_map.replicas("app")[1]
        cluster.fail_machine(victim)
        assert cluster.replica_map.replica_count("app") == 1
        platform.sim.run(until=120.0)
        assert cluster.replica_map.replica_count("app") == 2
        assert victim not in cluster.replica_map.replicas("app")
