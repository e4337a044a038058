"""The colo's First-Fit always sees the load the replica maps record.

Random interleavings of ``place_database``, machine failure with the
recovery manager re-replicating (into a pool machine when the cluster
has no spare), live migration, ``drop_database`` and colo ``repair``.
After every step, for every live machine, the load First-Fit sees
(``ColoController.bins``) equals the sum of the requirements of the
tenants its cluster's replica map puts there; every placement puts each
replica on a distinct machine that had room for it at that moment, and
a placement that raises leaves no tenant behind.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.migration import MigrationError, MigrationManager
from repro.errors import SlaViolationError
from repro.platform import ColoController
from repro.sim import Simulator
from repro.sla.model import ResourceVector

DDL = ["CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"]

#: Simulated seconds each step runs: enough for a re-replication or a
#: migration of a near-empty tenant to finish.
SETTLE_S = 30.0

requirement = st.builds(
    ResourceVector,
    cpu=st.sampled_from([0.3, 0.5, 0.8, 1.2, 2.5]),
    memory_mb=st.sampled_from([256.0, 1024.0, 2048.0]),
)

step = st.one_of(
    st.tuples(st.just("place"), requirement, st.integers(1, 3)),
    st.tuples(st.just("fail"), st.integers(0, 15)),
    st.tuples(st.just("migrate"), st.integers(0, 15), st.integers(0, 15)),
    st.tuples(st.just("drop"), st.integers(0, 15)),
    st.tuples(st.just("repair")),
)


class World:
    def __init__(self):
        self.sim = Simulator()
        self.colo = ColoController(self.sim, "colo", free_machines=7)
        self.colo.add_cluster(machines=3)
        self.colo.add_cluster(machines=2)
        self.migrations = {name: MigrationManager(cluster)
                           for name, cluster in self.colo.clusters.items()}
        # The test's own record of what it placed: tenant -> requirement.
        self.placed = {}
        self.count = 0

    def loads(self, cluster):
        """Live machine -> summed requirement, by the replica map."""
        loads = {}
        for name, machine in cluster.machines.items():
            if machine.alive:
                total = ResourceVector()
                for db in cluster.replica_map.hosted_on(name):
                    total = total + self.placed[db]
                loads[name] = total
        return loads

    def tenants(self):
        return sorted(db for cluster in self.colo.clusters.values()
                      for db in cluster.replica_map.databases())

    def place(self, req, replicas):
        self.count += 1
        db = f"db{self.count}"
        before = {name: self.loads(cluster)
                  for name, cluster in self.colo.clusters.items()}
        try:
            cluster = self.colo.place_database(db, list(DDL), req, replicas)
        except SlaViolationError:
            assert not self.colo.hosts(db)
            return
        self.placed[db] = req
        chosen = cluster.replica_map.replicas(db)
        assert len(chosen) == len(set(chosen)) == replicas
        for machine in chosen:
            had = before[cluster.name].get(machine, ResourceVector())
            capacity = cluster.machines[machine].capacity_vector()
            assert (had + req).fits_within(capacity), (machine, had, req)

    def fail(self, pick):
        hosting = [(cluster, name) for cluster in self.colo.clusters.values()
                   for name, machine in cluster.machines.items()
                   if machine.alive and cluster.replica_map.hosted_on(name)]
        if hosting:
            cluster, name = hosting[pick % len(hosting)]
            cluster.fail_machine(name)

    def migrate(self, pick, to):
        tenants = self.tenants()
        if not tenants:
            return
        db = tenants[pick % len(tenants)]
        cluster = self.colo.cluster_of(db)
        replicas = cluster.replica_map.replicas(db)
        if not replicas:
            return
        live = [name for name, machine in cluster.machines.items()
                if machine.alive]
        try:
            self.migrations[cluster.name].migrate_replica(
                db, replicas[0], live[to % len(live)])
        except MigrationError:
            pass

    def drop(self, pick):
        tenants = self.tenants()
        if tenants:
            db = tenants[pick % len(tenants)]
            self.colo.drop_database(db)
            assert not self.colo.hosts(db)

    def repair(self):
        self.colo.repair()
        assert not self.tenants()

    def check(self):
        for cluster in self.colo.clusters.values():
            loads = self.loads(cluster)
            bins = self.colo.bins(cluster)
            assert [b.name for b in bins] == list(loads)
            for machine_bin in bins:
                want = loads[machine_bin.name]
                got = machine_bin.used
                assert abs(got.cpu - want.cpu) < 1e-9
                assert abs(got.memory_mb - want.memory_mb) < 1e-9
                assert machine_bin.capacity == \
                    cluster.machines[machine_bin.name].capacity_vector()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(step, min_size=1, max_size=10))
def test_first_fit_sees_the_replica_maps(steps):
    world = World()
    for op, *args in steps:
        getattr(world, op)(*args)
        world.sim.run(until=world.sim.now + SETTLE_S)
        world.check()
