"""Integration tests: machine failures and Algorithm 1 recovery."""

import pytest

from repro.cluster import ReadOption, RecoveryManager
from repro.cluster.controller import TransactionAborted
from repro.errors import ProactiveRejectionError
from tests.conftest import make_kv_cluster, read_table


class TestMachineFailure:
    def test_reads_reroute_after_failure(self, sim):
        controller = make_kv_cluster(sim, machines=3)
        primary = controller.replica_map.replicas("kv")[0]

        def client():
            conn = controller.connect("kv")
            result = yield conn.execute("SELECT v FROM kv WHERE k = 1")
            yield conn.commit()
            controller.fail_machine(primary)
            result = yield conn.execute("SELECT v FROM kv WHERE k = 1")
            yield conn.commit()
            return result.scalar()

        proc = sim.process(client())
        sim.run()
        assert proc.ok and proc.value == 0

    def test_writes_continue_on_survivor(self, sim):
        controller = make_kv_cluster(sim, machines=3)
        replicas = controller.replica_map.replicas("kv")

        def client():
            conn = controller.connect("kv")
            controller.fail_machine(replicas[1])
            yield conn.execute("UPDATE kv SET v = 7 WHERE k = 1")
            yield conn.commit()

        proc = sim.process(client())
        sim.run()
        assert proc.ok
        survivor = replicas[0]
        assert read_table(controller, survivor, "kv",
                          "SELECT v FROM kv WHERE k = 1") == [(7,)]

    def test_failure_mid_transaction_preserves_survivors(self, sim):
        controller = make_kv_cluster(sim, machines=3)
        replicas = controller.replica_map.replicas("kv")

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 1 WHERE k = 0")
            controller.fail_machine(replicas[1])
            yield conn.execute("UPDATE kv SET v = 2 WHERE k = 1")
            yield conn.commit()

        proc = sim.process(client())
        sim.run()
        assert proc.ok
        survivor = replicas[0]
        assert read_table(controller, survivor, "kv",
                          "SELECT v FROM kv WHERE k IN (0, 1) ORDER BY k"
                          ) == [(1,), (2,)]

    def test_all_replicas_lost_rejects(self, sim):
        controller = make_kv_cluster(sim, machines=3)
        replicas = controller.replica_map.replicas("kv")
        outcomes = []

        def client():
            conn = controller.connect("kv")
            for name in replicas:
                controller.fail_machine(name)
            try:
                yield conn.execute("SELECT v FROM kv WHERE k = 1")
            except TransactionAborted as exc:
                outcomes.append(type(exc.cause).__name__)

        sim.process(client())
        sim.run()
        assert outcomes == ["NoReplicaError"]
        assert controller.metrics.total_rejected() == 1

    def test_failure_during_2pc_commits_on_survivors(self, sim):
        controller = make_kv_cluster(sim, machines=3)
        replicas = controller.replica_map.replicas("kv")

        def killer():
            # Fail one replica just as the commit is in flight.
            yield sim.timeout(0.0005)
            controller.fail_machine(replicas[1])

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 3 WHERE k = 9")
            sim.process(killer())
            yield conn.commit()

        proc = sim.process(client())
        sim.run()
        assert proc.ok
        assert read_table(controller, replicas[0], "kv",
                          "SELECT v FROM kv WHERE k = 9") == [(3,)]


class TestRecoveryAlgorithm1:
    def _setup(self, sim, copy, threads=1):
        # These tests pin the full-copy strategies: Algorithm 1's
        # reject windows at both granularities (the default delta copy
        # replaces them with the log-drain handoff, tested separately).
        controller = make_kv_cluster(sim, machines=4, keys=40)
        controller.config.machine.copy_bytes_factor = 50_000.0
        recovery = RecoveryManager(controller, copy=copy, threads=threads)
        recovery.start()
        return controller, recovery

    def test_replica_recreated_and_consistent(self, sim):
        controller, recovery = self._setup(sim, "table")
        victim = controller.replica_map.replicas("kv")[1]

        def scenario():
            yield sim.timeout(0.1)
            controller.fail_machine(victim)

        sim.process(scenario())
        sim.run()
        assert controller.replica_map.replica_count("kv") == 2
        assert recovery.records and recovery.records[-1].succeeded
        new_replicas = controller.replica_map.replicas("kv")
        states = [read_table(controller, m, "kv",
                             "SELECT k, v FROM kv ORDER BY k")
                  for m in new_replicas]
        assert states[0] == states[1]
        assert len(states[0]) == 40

    def test_writes_during_copy_rejected_then_recovered(self, sim):
        controller, recovery = self._setup(sim, "database")
        victim = controller.replica_map.replicas("kv")[1]
        outcomes = {"rejected": 0, "committed": 0}

        def writer():
            conn = controller.connect("kv")
            for i in range(60):
                try:
                    yield conn.execute(
                        "UPDATE kv SET v = v + 1 WHERE k = ?", (i % 40,))
                    yield conn.commit()
                    outcomes["committed"] += 1
                except TransactionAborted as exc:
                    if isinstance(exc.cause, ProactiveRejectionError):
                        outcomes["rejected"] += 1
                yield sim.timeout(0.05)

        def failer():
            yield sim.timeout(0.2)
            controller.fail_machine(victim)

        sim.process(writer())
        sim.process(failer())
        sim.run()
        assert outcomes["rejected"] > 0, "copy window must reject writes"
        assert outcomes["committed"] > 0
        # After recovery: consistent replicas again.
        replicas = controller.replica_map.replicas("kv")
        assert len(replicas) == 2
        states = [read_table(controller, m, "kv",
                             "SELECT k, v FROM kv ORDER BY k")
                  for m in replicas]
        assert states[0] == states[1]

    def test_table_copy_allows_writes_to_other_tables(self, sim):
        controller = make_kv_cluster(sim, machines=4, keys=10)
        # Second table in the same database.
        eng_ddl = "CREATE TABLE other (k INTEGER PRIMARY KEY, v INTEGER)"
        for name in controller.replica_map.replicas("kv"):
            engine = controller.machines[name].engine
            txn = engine.begin()
            engine.execute_sync(txn, "kv", eng_ddl)
            engine.commit(txn)
        controller.ddl["kv"].append(eng_ddl)
        controller.bulk_load("kv", "other", [(k, 0) for k in range(10)])
        controller.config.machine.copy_bytes_factor = 100_000.0
        recovery = RecoveryManager(controller, copy="table")
        recovery.start()
        victim = controller.replica_map.replicas("kv")[1]
        results = {"rejected": 0, "committed": 0}

        def writer():
            conn = controller.connect("kv")
            yield sim.timeout(0.3)  # wait until copy is underway
            state = controller.copy_states.get("kv")
            assert state is not None, "copy should be in progress"
            copying = state.copying_table
            target_table = "other" if copying == "kv" else "kv"
            # Write to the table NOT being copied: must succeed.
            try:
                yield conn.execute(
                    f"UPDATE {target_table} SET v = 1 WHERE k = 1")
                yield conn.commit()
                results["committed"] += 1
            except TransactionAborted:
                results["rejected"] += 1

        def failer():
            yield sim.timeout(0.1)
            controller.fail_machine(victim)

        sim.process(writer())
        sim.process(failer())
        sim.run()
        assert results["committed"] == 1

    def test_recovery_target_receives_writes_to_copied_tables(self, sim):
        controller, recovery = self._setup(sim, "table")
        victim = controller.replica_map.replicas("kv")[1]

        def scenario():
            yield sim.timeout(0.05)
            controller.fail_machine(victim)
            # Wait for recovery to finish, then write.
            while controller.replica_map.replica_count("kv") < 2:
                yield sim.timeout(0.5)
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 77 WHERE k = 2")
            yield conn.commit()

        sim.process(scenario())
        sim.run()
        target = recovery.records[-1].target
        assert read_table(controller, target, "kv",
                          "SELECT v FROM kv WHERE k = 2") == [(77,)]

    def test_multiple_databases_recovered(self, sim):
        controller = make_kv_cluster(sim, machines=5, keys=10)
        controller.create_database(
            "kv2", ["CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"],
            replicas=2)
        controller.bulk_load("kv2", "kv", [(k, 0) for k in range(10)])
        recovery = RecoveryManager(controller, threads=2)
        recovery.start()
        # Fail a machine hosting both databases if one exists, else any.
        victim = max(controller.machines,
                     key=lambda m: len(controller.replica_map.hosted_on(m)))
        affected = controller.fail_machine(victim)
        sim.run()
        for db in affected:
            assert controller.replica_map.replica_count(db) == 2

    def test_lost_database_is_not_requeued_at_the_same_instant(self, sim):
        # Every replica gone: recovery skips the database once
        # ("no-source") and leaves it, instead of requeueing it at the
        # same simulated instant forever.
        controller = make_kv_cluster(sim, machines=3, replicas=1)
        recovery = RecoveryManager(controller)
        recovery.start()
        controller.fail_machine(controller.replica_map.replicas("kv")[0])
        sim.run(until=60.0)
        assert sim.now == 60.0
        skipped = controller.trace.events(kind="rereplication_skipped")
        assert [e.extra["reason"] for e in skipped] == ["no-source"]
        assert not recovery.in_progress
