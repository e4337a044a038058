"""Integration tests for planned replica migration."""

import pytest

from repro.cluster import CopyGranularity, RecoveryManager
from repro.cluster.controller import CopyState, TransactionAborted
from repro.cluster.migration import MigrationError, MigrationManager
from repro.cluster.network import NetworkConfig, NetworkPartitionedError
from repro.errors import ProactiveRejectionError
from repro.sim import Simulator
from tests.conftest import (assert_no_violations, make_kv_cluster,
                            read_table)
from tests.integration.test_delta_recovery import fingerprint


def spare_of(controller, db="kv"):
    return [m for m in controller.machines
            if m not in controller.replica_map.replicas(db)][0]


class TestMigrateReplica:
    def test_replica_moves_and_data_matches(self, sim):
        controller = make_kv_cluster(sim, machines=3, keys=30)
        manager = MigrationManager(controller, drop_grace_s=1.0)
        source = controller.replica_map.replicas("kv")[1]
        target = [m for m in controller.machines
                  if m not in controller.replica_map.replicas("kv")][0]
        proc = manager.migrate_replica("kv", source, target)
        sim.run()
        assert proc.ok, proc.value
        replicas = controller.replica_map.replicas("kv")
        assert target in replicas and source not in replicas
        states = [read_table(controller, m, "kv",
                             "SELECT k, v FROM kv ORDER BY k")
                  for m in replicas]
        assert states[0] == states[1]
        assert len(states[0]) == 30
        # The retired replica's data is dropped after the grace period.
        assert not controller.machines[source].engine.hosts("kv")
        assert manager.records and manager.records[0].db == "kv"

    def test_migration_under_live_writes_stays_consistent(self, sim):
        controller = make_kv_cluster(sim, machines=3, keys=30)
        controller.config.machine.copy_bytes_factor = 50_000.0
        manager = MigrationManager(controller, drop_grace_s=1.0)
        outcomes = {"committed": 0, "rejected": 0}

        def writer():
            conn = controller.connect("kv")
            for i in range(80):
                try:
                    yield conn.execute(
                        "UPDATE kv SET v = v + 1 WHERE k = ?", (i % 30,))
                    yield conn.commit()
                    outcomes["committed"] += 1
                except TransactionAborted as exc:
                    if isinstance(exc.cause, ProactiveRejectionError):
                        outcomes["rejected"] += 1
                yield sim.timeout(0.05)

        def migrate():
            yield sim.timeout(0.5)
            source = controller.replica_map.replicas("kv")[1]
            target = [m for m in controller.machines
                      if m not in controller.replica_map.replicas("kv")][0]
            yield manager.migrate_replica("kv", source, target)

        sim.process(writer())
        proc = sim.process(migrate())
        sim.run()
        assert proc.ok
        assert outcomes["committed"] > 0
        replicas = controller.replica_map.replicas("kv")
        states = [read_table(controller, m, "kv",
                             "SELECT k, v FROM kv ORDER BY k")
                  for m in replicas]
        assert states[0] == states[1]
        assert_no_violations(controller, strict=True)

    def test_database_granularity_rejects_writes_during_move(self, sim):
        controller = make_kv_cluster(sim, machines=3, keys=30)
        controller.config.machine.copy_bytes_factor = 200_000.0
        manager = MigrationManager(controller,
                                   granularity=CopyGranularity.DATABASE,
                                   drop_grace_s=1.0)
        outcomes = {"rejected": 0, "committed": 0}

        def writer():
            conn = controller.connect("kv")
            for i in range(40):
                try:
                    yield conn.execute(
                        "UPDATE kv SET v = 1 WHERE k = ?", (i % 30,))
                    yield conn.commit()
                    outcomes["committed"] += 1
                except TransactionAborted:
                    outcomes["rejected"] += 1
                yield sim.timeout(0.05)

        def migrate():
            yield sim.timeout(0.2)
            source = controller.replica_map.replicas("kv")[1]
            target = [m for m in controller.machines
                      if m not in controller.replica_map.replicas("kv")][0]
            yield manager.migrate_replica("kv", source, target)

        sim.process(writer())
        sim.process(migrate())
        sim.run()
        assert outcomes["rejected"] > 0  # Algorithm 1's reject window

    def test_validation_errors(self, sim):
        controller = make_kv_cluster(sim, machines=3)
        manager = MigrationManager(controller)
        replicas = controller.replica_map.replicas("kv")
        spare = [m for m in controller.machines if m not in replicas][0]
        with pytest.raises(MigrationError):
            manager.migrate_replica("kv", spare, replicas[0])  # bad source
        with pytest.raises(MigrationError):
            manager.migrate_replica("kv", replicas[0], replicas[1])  # dup
        controller.machines[spare].fail()
        with pytest.raises(MigrationError):
            manager.migrate_replica("kv", replicas[0], spare)  # dead target

    def test_primary_migration_keeps_reads_working(self, sim):
        controller = make_kv_cluster(sim, machines=3, keys=10)
        controller.config.machine.copy_bytes_factor = 100_000.0
        manager = MigrationManager(controller, drop_grace_s=1.0)
        primary = controller.replica_map.replicas("kv")[0]
        target = [m for m in controller.machines
                  if m not in controller.replica_map.replicas("kv")][0]
        reads = {"ok": 0}

        def reader():
            conn = controller.connect("kv")
            for _ in range(40):
                result = yield conn.execute("SELECT v FROM kv WHERE k = 1")
                yield conn.commit()
                assert result.rows
                reads["ok"] += 1
                yield sim.timeout(0.05)

        sim.process(reader())
        proc = manager.migrate_replica("kv", primary, target)
        sim.run()
        assert proc.ok
        assert reads["ok"] == 40

    def test_rebalance_once_moves_off_hotspot(self, sim):
        controller = make_kv_cluster(sim, machines=4, keys=5)
        # Load two more databases onto the same pair of machines.
        hot = controller.replica_map.replicas("kv")
        for name in ("kv2", "kv3"):
            controller.create_database(
                name, ["CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"],
                machines=list(hot))
            controller.bulk_load(name, "kv", [(k, 0) for k in range(5)])
        manager = MigrationManager(controller, drop_grace_s=0.5)
        assert self._spread(controller) == 3
        moves = 0
        while True:
            proc = manager.rebalance_once()
            if proc is None:
                break
            sim.run()
            assert proc.ok
            moves += 1
            assert moves <= 6, "rebalance did not converge"
        assert self._spread(controller) <= 1
        assert moves >= 2

    def test_rebalance_noop_when_balanced(self, sim):
        controller = make_kv_cluster(sim, machines=2)
        manager = MigrationManager(controller)
        assert manager.rebalance_once() is None

    @staticmethod
    def _spread(controller):
        counts = [len(controller.replica_map.hosted_on(m))
                  for m in controller.machines]
        return max(counts) - min(counts)


class TestSharedCopyPipeline:
    """Migration rides recovery's copy pipeline: same clean-up, same
    fabric, same bytes on the target."""

    def test_abandoned_migration_leaves_a_newer_copy_state_alone(self, sim):
        controller = make_kv_cluster(sim, machines=4, keys=30)
        controller.config.machine.copy_bytes_factor = 200_000.0
        manager = MigrationManager(controller)
        source = controller.replica_map.replicas("kv")[1]
        target, rejoiner = [m for m in controller.machines
                            if m not in controller.replica_map.replicas("kv")]
        proc = manager.migrate_replica("kv", source, target)
        proc.defused = True
        fresh = CopyState("kv", rejoiner, source=rejoiner)

        def source_dies_then_a_rejoin_registers():
            yield sim.timeout(0.5)
            assert controller.copy_states["kv"].target == target
            # fail_machine abandons the migration's state at once; a
            # rejoin catch-up (_readmit) can then register its own for
            # the same database before the migration's clean-up runs.
            controller.fail_machine(source)
            assert "kv" not in controller.copy_states
            controller.copy_states["kv"] = fresh

        sim.process(source_dies_then_a_rejoin_registers())
        sim.run()
        assert not proc.ok
        # The migration cleaned up after itself only: its partial
        # replica is gone, the other copy's Algorithm 1 window stands.
        assert controller.copy_states.get("kv") is fresh
        assert not controller.machines[target].engine.hosts("kv")
        abandoned = controller.trace.events(kind="migration_abandoned")
        assert abandoned and abandoned[0].extra["partial_dropped"]

    def test_link_cut_mid_copy_abandons_the_migration(self, sim):
        controller = make_kv_cluster(
            sim, machines=3, keys=30,
            network=NetworkConfig(enabled=True, seed=5))
        controller.config.machine.copy_bytes_factor = 200_000.0
        manager = MigrationManager(controller)
        source = controller.replica_map.replicas("kv")[1]
        target = spare_of(controller)
        before = controller.replica_map.replicas("kv")
        proc = manager.migrate_replica("kv", source, target)
        proc.defused = True

        def cut():
            yield sim.timeout(0.5)
            assert "kv" in controller.copy_states
            controller.fabric.cut(source, target)

        sim.process(cut())
        sim.run()
        assert isinstance(proc.value, NetworkPartitionedError)
        abandoned = controller.trace.events(kind="migration_abandoned")
        assert [e.machine for e in abandoned] == [target]
        assert abandoned[0].extra["partial_dropped"]
        assert not controller.machines[target].engine.hosts("kv")
        assert "kv" not in controller.copy_states
        assert controller.replica_map.replicas("kv") == before
        assert not manager.records
        assert_no_violations(controller)

    @pytest.mark.parametrize("granularity", list(CopyGranularity))
    def test_migrated_replica_identical_to_recovery_copied(self, granularity):
        def cluster():
            sim = Simulator()
            controller = make_kv_cluster(sim, machines=3, keys=30)
            controller.create_database(
                "idx", ["CREATE TABLE a (k INTEGER PRIMARY KEY, v INTEGER)",
                        "CREATE INDEX a_v ON a (v)",
                        "CREATE TABLE b (k INTEGER PRIMARY KEY, s VARCHAR(8))"],
                machines=controller.replica_map.replicas("kv"))
            controller.bulk_load("idx", "a", [(k, k % 7) for k in range(40)])
            controller.bulk_load("idx", "b", [(k, f"s{k}") for k in range(9)])
            return sim, controller

        sim, migrated = cluster()
        source = migrated.replica_map.replicas("idx")[1]
        target = spare_of(migrated, "idx")
        proc = MigrationManager(migrated, granularity=granularity) \
            .migrate_replica("idx", source, target)
        sim.run()
        assert proc.ok, proc.value

        sim, recovered = cluster()
        recovery = RecoveryManager(recovered, copy=granularity.value)
        recovery.start()
        recovered.fail_machine(source)
        sim.run()
        record = [r for r in recovery.records if r.db == "idx"][-1]
        assert record.succeeded and record.mode == granularity.value
        assert record.target == target

        assert (fingerprint(migrated, target, "idx")
                == fingerprint(recovered, target, "idx"))
        assert proc.value.bytes_copied == record.bytes_copied
