"""Unit tests for cluster components: routing, replica map, machine."""

import pytest

from repro.cluster import MachineConfig, Machine, ReadOption, ReplicaMap
from repro.cluster import controller as controller_module
from repro.cluster.routing import ReadRouter
from repro.errors import MachineFailedError, NoReplicaError
from repro.sim import Simulator


class TestReadRouter:
    REPLICAS = ["m1", "m2", "m3"]

    def test_option1_always_primary(self):
        router = ReadRouter(ReadOption.OPTION_1)
        picks = {router.choose(txn, self.REPLICAS) for txn in range(5)}
        assert picks == {"m1"}

    def test_option1_fails_over_with_replica_order(self):
        router = ReadRouter(ReadOption.OPTION_1)
        assert router.choose(1, ["m2", "m3"]) == "m2"

    def test_option2_sticky_per_txn(self):
        router = ReadRouter(ReadOption.OPTION_2)
        first = router.choose(1, self.REPLICAS)
        assert router.choose(1, self.REPLICAS) == first
        assert router.choose(2, self.REPLICAS) != first

    def test_option2_rechooses_if_machine_gone(self):
        router = ReadRouter(ReadOption.OPTION_2)
        chosen = router.choose(1, self.REPLICAS)
        remaining = [m for m in self.REPLICAS if m != chosen]
        assert router.choose(1, remaining) in remaining

    def test_option3_round_robins(self):
        router = ReadRouter(ReadOption.OPTION_3)
        picks = [router.choose(1, self.REPLICAS) for _ in range(3)]
        assert sorted(picks) == self.REPLICAS

    def test_forget_clears_stickiness(self):
        router = ReadRouter(ReadOption.OPTION_2)
        first = router.choose(1, self.REPLICAS)
        router.forget(1)
        assert router.choose(1, self.REPLICAS) != first

    def test_empty_replicas_rejected(self):
        router = ReadRouter(ReadOption.OPTION_1)
        with pytest.raises(ValueError):
            router.choose(1, [])


class TestReplicaMap:
    def test_add_and_query(self):
        rmap = ReplicaMap()
        rmap.add_database("db", ["m1", "m2"])
        assert rmap.replicas("db") == ["m1", "m2"]
        assert rmap.replica_count("db") == 2
        assert rmap.hosted_on("m1") == ["db"]

    def test_duplicate_database_rejected(self):
        rmap = ReplicaMap()
        rmap.add_database("db", ["m1"])
        with pytest.raises(ValueError):
            rmap.add_database("db", ["m2"])

    def test_duplicate_machines_rejected(self):
        with pytest.raises(ValueError):
            ReplicaMap().add_database("db", ["m1", "m1"])

    def test_unknown_database(self):
        with pytest.raises(NoReplicaError):
            ReplicaMap().replicas("nope")

    def test_remove_machine_returns_affected(self):
        rmap = ReplicaMap()
        rmap.add_database("a", ["m1", "m2"])
        rmap.add_database("b", ["m2", "m3"])
        rmap.add_database("c", ["m3", "m1"])
        affected = rmap.remove_machine("m2")
        assert sorted(affected) == ["a", "b"]
        assert rmap.replicas("a") == ["m1"]

    def test_add_replica_idempotent(self):
        rmap = ReplicaMap()
        rmap.add_database("db", ["m1"])
        rmap.add_replica("db", "m2")
        rmap.add_replica("db", "m2")
        assert rmap.replicas("db") == ["m1", "m2"]


class TestMachine:
    def test_statement_runs_and_charges_time(self):
        sim = Simulator()
        machine = Machine(sim, "m1", MachineConfig())
        machine.engine.create_database("db")
        setup = machine.engine.begin()
        machine.engine.execute_sync(setup, "db",
                                    "CREATE TABLE t (k INT PRIMARY KEY)")
        machine.engine.commit(setup)
        proc = machine.submit(
            100, machine.statement_body(100, "db",
                                        "INSERT INTO t VALUES (?)", (1,),
                                        lock_timeout=1.0))
        sim.run()
        assert proc.ok
        assert proc.value.rowcount == 1
        assert sim.now > 0  # CPU/disk time charged

    def test_fifo_per_transaction(self):
        sim = Simulator()
        machine = Machine(sim, "m1", MachineConfig())
        machine.engine.create_database("db")
        setup = machine.engine.begin()
        machine.engine.execute_sync(setup, "db",
                                    "CREATE TABLE t (k INT PRIMARY KEY)")
        machine.engine.commit(setup)
        order = []

        def tracked(k):
            result = yield from machine.statement_body(
                7, "db", "INSERT INTO t VALUES (?)", (k,), lock_timeout=1.0)
            order.append(k)
            return result

        for k in range(3):
            machine.submit(7, tracked(k))
        sim.run()
        assert order == [0, 1, 2]

    def test_failure_interrupts_and_rejects(self):
        sim = Simulator()
        machine = Machine(sim, "m1", MachineConfig())
        machine.engine.create_database("db")
        setup = machine.engine.begin()
        machine.engine.execute_sync(setup, "db",
                                    "CREATE TABLE t (k INT PRIMARY KEY)")
        machine.engine.commit(setup)
        machine.fail()
        proc = machine.submit(
            1, machine.statement_body(1, "db", "INSERT INTO t VALUES (1)",
                                      (), lock_timeout=1.0))
        proc.defused = True
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, MachineFailedError)

    def test_failure_reaches_the_processes_in_submission_order(self):
        """Every waiter of a failed machine wakes in the same instant; the
        order they wake in is traced (``write_failed``), so it must be a
        function of the run, not of where the processes sit in memory."""
        sim = Simulator()
        machine = Machine(sim, "m1", MachineConfig())
        died = []

        def body():
            yield sim.timeout(1.0)

        for txn_id in range(64):
            proc = machine.submit(txn_id, body())
            proc.defused = True
            proc.add_callback(lambda _proc, txn_id=txn_id: died.append(txn_id))
        sim.run(until=0.5)
        machine.fail()
        sim.run()
        assert died == list(range(64))

    def test_fail_is_idempotent(self):
        sim = Simulator()
        machine = Machine(sim, "m1", MachineConfig())
        machine.fail()
        first = machine.failed_at
        machine.fail()
        assert machine.failed_at == first

    def test_capacity_vector_from_config(self):
        sim = Simulator()
        config = MachineConfig(cores=4, memory_mb=8192)
        machine = Machine(sim, "m1", config)
        vec = machine.capacity_vector()
        assert vec.cpu == 4.0
        assert vec.memory_mb == 8192


class TestStmtCacheLru:
    """The statement-classification cache is LRU-bounded."""

    @pytest.fixture
    def make(self, monkeypatch):
        from tests.conftest import make_cluster

        def make(size):
            monkeypatch.setattr(controller_module, "STMT_CACHE_SIZE", size)
            return make_cluster(Simulator(), machines=1)
        return make

    def test_eviction_past_bound(self, make):
        controller = make(2)
        for k in range(3):
            controller.txns._classify(f"SELECT v FROM t WHERE k = {k}")
        assert len(controller.txns._stmt_cache) == 2
        assert controller.metrics.stmt_cache_evictions == 1
        # The oldest entry went; the two newest stayed.
        assert "SELECT v FROM t WHERE k = 0" not in controller.txns._stmt_cache
        assert "SELECT v FROM t WHERE k = 2" in controller.txns._stmt_cache

    def test_hit_refreshes_recency(self, make):
        controller = make(2)
        controller.txns._classify("SELECT v FROM t WHERE k = 0")
        controller.txns._classify("SELECT v FROM t WHERE k = 1")
        controller.txns._classify("SELECT v FROM t WHERE k = 0")  # refresh
        controller.txns._classify("SELECT v FROM t WHERE k = 2")
        assert "SELECT v FROM t WHERE k = 0" in controller.txns._stmt_cache
        assert "SELECT v FROM t WHERE k = 1" not in controller.txns._stmt_cache

    def test_classification_stable_across_eviction(self, make):
        controller = make(1)
        sql = "UPDATE t SET v = 1 WHERE k = 0"
        first = controller.txns._classify(sql)
        controller.txns._classify("SELECT v FROM t")       # evicts the update
        assert controller.txns._classify(sql) == first == ("write", "t")
