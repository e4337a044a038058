"""Integration tests for the platform tier (colo + system controllers)."""

import pytest

from repro.cluster.controller import TransactionAborted
from repro.errors import NoReplicaError, SlaViolationError
from repro.platform import ColoController, DataPlatform, DatabaseSpec
from repro.sim import Simulator
from repro.sla import Sla

DDL = ["CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"]


def make_platform(colos=2, machines=8):
    platform = DataPlatform()
    for i in range(colos):
        platform.add_colo(f"colo{i}", free_machines=machines,
                          location=float(i * 10))
    return platform


def spec(name, tps=1.0, size=50, dr=True):
    return DatabaseSpec(name=name, ddl=list(DDL),
                        sla=Sla(tps, 0.001),
                        expected_size_mb=size, replicas=2,
                        disaster_recovery=dr)


class TestCreateAndConnect:
    def test_create_places_on_two_colos(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        primary, standby = platform.system.placements["app"]
        assert primary != standby
        assert platform.system.colos[primary].hosts("app")
        assert platform.system.colos[standby].hosts("app")

    def test_duplicate_database_rejected(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        with pytest.raises(SlaViolationError):
            platform.create_database(spec("app"))

    def test_no_colos_rejected(self):
        platform = DataPlatform()
        with pytest.raises(SlaViolationError):
            platform.create_database(spec("app"))

    def test_connect_unknown_db(self):
        platform = make_platform()
        with pytest.raises(NoReplicaError):
            platform.connect("missing")

    def test_single_colo_no_dr(self):
        platform = make_platform(colos=1)
        platform.create_database(spec("app"))
        primary, standby = platform.system.placements["app"]
        assert standby is None

    def test_sla_too_big_for_machine(self):
        platform = make_platform()
        huge = DatabaseSpec(name="huge", ddl=list(DDL),
                            sla=Sla(10.0, 0.001),
                            expected_size_mb=50_000.0, replicas=2)
        with pytest.raises(SlaViolationError):
            platform.create_database(huge)


class TestEndToEnd:
    def test_transactions_through_facade(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(5)])

        def client():
            conn = platform.connect("app")
            yield conn.execute("UPDATE t SET v = v + 1 WHERE k = 2")
            yield conn.commit()
            result = yield conn.execute("SELECT v FROM t WHERE k = 2")
            yield conn.commit()
            return result.scalar()

        proc = platform.sim.process(client())
        platform.sim.run()
        assert proc.ok and proc.value == 1

    def test_async_replication_reaches_standby(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(5)])

        def client():
            conn = platform.connect("app")
            for _ in range(3):
                yield conn.execute("UPDATE t SET v = v + 1 WHERE k = 1")
                yield conn.commit()

        platform.sim.process(client())
        platform.sim.run()
        assert platform.system.replication_lag("app") == 0
        _, standby = platform.system.placements["app"]
        cluster = platform.system.colos[standby].cluster_of("app")
        machine = cluster.machines[cluster.replica_map.replicas("app")[0]]
        txn = machine.engine.begin()
        value = machine.engine.execute_sync(
            txn, "app", "SELECT v FROM t WHERE k = 1").scalar()
        machine.engine.commit(txn)
        assert value == 3

    def test_colo_failover_serves_from_standby(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(5)])

        def phase1():
            conn = platform.connect("app")
            yield conn.execute("UPDATE t SET v = 42 WHERE k = 0")
            yield conn.commit()

        platform.sim.process(phase1())
        platform.sim.run()
        primary, _ = platform.system.placements["app"]
        platform.system.fail_colo(primary)

        def phase2():
            conn = platform.connect("app")
            result = yield conn.execute("SELECT v FROM t WHERE k = 0")
            yield conn.commit()
            return result.scalar()

        proc = platform.sim.process(phase2())
        platform.sim.run()
        assert proc.ok and proc.value == 42

    def test_fail_colo_without_standby_loses_db(self):
        platform = make_platform(colos=1)
        platform.create_database(spec("app", dr=False))
        primary, _ = platform.system.placements["app"]
        platform.system.fail_colo(primary)
        with pytest.raises(NoReplicaError):
            platform.connect("app")

    def test_proximity_routing_prefers_primary(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        primary, _ = platform.system.placements["app"]
        colo = platform.system.route("app", client_location=0.0)
        assert colo.name == primary


class TestRouting:
    def test_primary_preference_beats_proximity(self):
        # A client sitting right next to the standby is still routed to
        # the primary: replica role outranks geography.
        platform = make_platform()
        platform.create_database(spec("app"))
        primary, standby = platform.system.placements["app"]
        at_standby = platform.system.colos[standby].location
        assert platform.system.route(
            "app", client_location=at_standby).name == primary

    def test_disaster_routing_falls_back_to_standby(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        primary, standby = platform.system.placements["app"]
        platform.system.colos[primary].crash()
        for location in (0.0, 10.0, 99.0):
            assert platform.system.route(
                "app", client_location=location).name == standby

    def test_route_no_live_colo_raises(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        for name in platform.system.placements["app"]:
            platform.system.colos[name].crash()
        with pytest.raises(NoReplicaError):
            platform.system.route("app")


class TestReplicationAccounting:
    def test_lag_drains_under_sustained_load(self):
        platform = make_platform()
        # Twenty back-to-back commits: a floor admission never throttles.
        platform.create_database(spec("app", tps=100.0))
        platform.bulk_load("app", "t", [(k, 0) for k in range(10)])

        def client(key, n):
            for _ in range(n):
                conn = platform.connect("app")
                yield conn.execute(
                    f"UPDATE t SET v = v + 1 WHERE k = {key}")
                yield conn.commit()
                conn.close()

        for key in range(4):
            proc = platform.sim.process(client(key, 5))
            proc.defused = True
        platform.sim.run()
        link = platform.system.links["app"]
        assert link.shipped == 20
        assert link.applied == 20
        assert platform.system.replication_lag("app") == 0

    def test_failover_races_in_flight_apply(self):
        # Promoting the standby while its apply loop is mid-transaction
        # must cancel the replay cleanly and count the entry as RPO.
        platform = make_platform()
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(200)])

        def client():
            conn = platform.connect("app")
            yield conn.execute("UPDATE t SET v = v + 1")
            yield conn.commit()
            conn.close()

        proc = platform.sim.process(client())
        proc.defused = True
        link = platform.system.links["app"]
        primary, standby = platform.system.placements["app"]
        standby_trace = platform.system.colos[standby].cluster_of("app").trace
        t = 0.0
        while link.shipped == 0:       # step until the commit ships
            t += 0.01
            platform.sim.run(until=t)
        # Step until the replay transaction is in flight on the standby
        # (it has begun there) but has not applied yet; the entry stays
        # in the log, unacked, for the whole of it.
        while not standby_trace.events(kind="txn_begin"):
            t += 0.0005
            platform.sim.run(until=t)
        assert link.applied == 0 and list(link.log) == [1]
        platform.system.fail_colo(primary)
        platform.sim.run(until=t + 10.0)
        assert not link.applier.is_alive
        assert platform.system.placements["app"] == (standby, None)
        promo = platform.system.metrics.snapshot()["dr"]["promotions"][0]
        assert promo["rpo_commits"] == 1

        def reader():
            conn = platform.connect("app")
            result = yield conn.execute("SELECT v FROM t WHERE k = 0")
            yield conn.commit()
            conn.close()
            return result.scalar()

        check = platform.sim.process(reader())
        platform.sim.run(until=t + 20.0)
        # The aborted replay left no partial write behind.
        assert check.ok and check.value == 0


class TestColoController:
    def test_free_pool_accounting(self):
        sim = Simulator()
        colo = ColoController(sim, "c", free_machines=5)
        cluster = colo.add_cluster(machines=3)
        assert colo.free_pool == 2
        assert len(cluster.machines) == 3

    def test_add_cluster_pool_exhausted(self):
        sim = Simulator()
        colo = ColoController(sim, "c", free_machines=2)
        with pytest.raises(SlaViolationError):
            colo.add_cluster(machines=5)

    def test_provision_extends_cluster(self):
        sim = Simulator()
        colo = ColoController(sim, "c", free_machines=4)
        cluster = colo.add_cluster(machines=2)
        machine = colo.provision_machine(cluster)
        assert machine is not None
        assert len(cluster.machines) == 3
        assert colo.free_pool == 1

    def test_provision_empty_pool_returns_none(self):
        sim = Simulator()
        colo = ColoController(sim, "c", free_machines=2)
        cluster = colo.add_cluster(machines=2)
        assert colo.provision_machine(cluster) is None

    def test_placement_extends_from_pool_when_needed(self):
        sim = Simulator()
        colo = ColoController(sim, "c", free_machines=6)
        colo.add_cluster(machines=2)
        from repro.sla.model import ResourceVector
        # Each replica nearly fills a machine: 2 dbs x 2 replicas force
        # provisioning beyond the initial 2 machines.
        big = ResourceVector(cpu=1.5, memory_mb=100, disk_io_mbps=1,
                             disk_mb=100)
        colo.place_database("db1", list(DDL), big, replicas=2)
        colo.place_database("db2", list(DDL), big, replicas=2)
        cluster = colo.cluster_of("db2")
        assert len(cluster.machines) == 4
