"""Integration: the colo places tenants over its clusters' replica maps.

The colo controller runs the paper's First-Fit (Algorithm 2) over a
view it derives from where its clusters actually put tenants. Recovery
and migration move replicas in the replica map, so the next placement
must see the moved load; a replica that fits no machine must leave no
half-created tenant behind.
"""

import pytest

from repro.cluster import RecoveryManager
from repro.cluster.migration import MigrationManager
from repro.errors import SlaViolationError
from repro.platform import ColoController
from repro.sim import Simulator
from repro.sla.model import ResourceVector

DDL = ["CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"]

#: A 1.2-core replica: two of them overfill a default 2-core machine.
HALF_AND_MORE = ResourceVector(cpu=1.2)


def machine_loads(colo, cluster):
    """CPU each live machine carries by the replica map, whatever the
    colo's own view says."""
    loads = {}
    for name, machine in cluster.machines.items():
        if machine.alive:
            loads[name] = sum(colo._db_requirements[db].cpu
                              for db in cluster.replica_map.hosted_on(name))
    return loads


def assert_within_capacity(colo, cluster):
    for name, cpu in machine_loads(colo, cluster).items():
        cores = cluster.machines[name].capacity_vector().cpu
        assert cpu <= cores + 1e-9, f"{name} packed to {cpu} of {cores}"


class TestPlacementSeesMovedReplicas:
    def test_no_overpack_after_recovery_into_pool_machine(self):
        sim = Simulator()
        colo = ColoController(sim, "colo", free_machines=3)
        cluster = colo.add_cluster(machines=2)
        colo.place_database("a", list(DDL), HALF_AND_MORE, replicas=2)
        cluster.bulk_load("a", "t", [(k, 0) for k in range(10)])
        RecoveryManager(cluster).start()
        cluster.fail_machine(cluster.replica_map.replicas("a")[1])
        sim.run()
        # The replica was re-created on the machine pulled from the pool.
        assert colo.free_pool == 0
        assert cluster.replica_map.replicas("a")[1] == list(cluster.machines)[2]

        # Both live machines carry 1.2 cores of ``a`` and the pool is
        # empty: a second 1.2-core tenant fits nowhere.
        with pytest.raises(SlaViolationError):
            colo.place_database("b", list(DDL), HALF_AND_MORE, replicas=1)
        assert not colo.hosts("b")
        assert "b" not in cluster.replica_map
        assert_within_capacity(colo, cluster)

    def test_no_overpack_after_migration(self):
        sim = Simulator()
        colo = ColoController(sim, "colo", free_machines=3)
        cluster = colo.add_cluster(machines=3)
        colo.place_database("a", list(DDL), HALF_AND_MORE, replicas=1)
        cluster.bulk_load("a", "t", [(k, 0) for k in range(10)])
        first, second, _third = cluster.machines
        assert cluster.replica_map.replicas("a") == [first]
        proc = MigrationManager(cluster).migrate_replica("a", first, second)
        sim.run()
        assert proc.ok
        assert cluster.replica_map.replicas("a") == [second]

        # ``a`` left the first machine for the second: First-Fit must
        # take the freed first machine, not stack onto the second.
        colo.place_database("b", list(DDL), HALF_AND_MORE, replicas=1)
        assert cluster.replica_map.replicas("b") == [first]
        assert_within_capacity(colo, cluster)


class TestOversizedReplica:
    def test_oversized_replica_leaves_no_tenant(self):
        sim = Simulator()
        colo = ColoController(sim, "colo", free_machines=4)
        colo.add_cluster(machines=2)
        colo.add_cluster(machines=1)
        whole_and_more = ResourceVector(cpu=2.5)
        with pytest.raises(SlaViolationError):
            colo.place_database("big", list(DDL), whole_and_more, replicas=1)
        assert not colo.hosts("big")
        for cluster in colo.clusters.values():
            assert "big" not in cluster.replica_map
            assert "big" not in cluster.ddl
