"""Integration tests: basic cluster read/write/commit behaviour."""

import pytest

from repro.cluster import ReadOption, WritePolicy
from repro.cluster.controller import TransactionAborted
from repro.cluster.network import NetworkConfig
from repro.errors import ConstraintError, NoReplicaError
from tests.conftest import make_kv_cluster, read_table


def run_client(sim, gen):
    proc = sim.process(gen)
    sim.run()
    if not proc.ok:
        proc.defused = True
        raise proc.value
    return proc.value


class TestReadsAndWrites:
    def test_write_reaches_all_replicas(self, sim):
        controller = make_kv_cluster(sim)

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 42 WHERE k = 1")
            yield conn.commit()

        run_client(sim, client())
        for machine in controller.replica_map.replicas("kv"):
            rows = read_table(controller, machine, "kv",
                              "SELECT v FROM kv WHERE k = 1")
            assert rows == [(42,)]

    def test_read_after_write_in_txn(self, sim):
        controller = make_kv_cluster(sim)

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 5 WHERE k = 2")
            result = yield conn.execute("SELECT v FROM kv WHERE k = 2")
            yield conn.commit()
            return result.scalar()

        # Under Option 1 the read goes to the primary which already has
        # the write (ROWA), so the transaction sees its own update.
        assert run_client(sim, client()) == 5

    def test_insert_visible_to_next_txn(self, sim):
        controller = make_kv_cluster(sim)

        def client():
            conn = controller.connect("kv")
            yield conn.execute("INSERT INTO kv VALUES (1000, 1)")
            yield conn.commit()
            result = yield conn.execute("SELECT COUNT(*) FROM kv")
            yield conn.commit()
            return result.scalar()

        assert run_client(sim, client()) == 21

    def test_rollback_undoes_on_all_replicas(self, sim):
        controller = make_kv_cluster(sim)

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 9 WHERE k = 0")
            yield conn.rollback()

        run_client(sim, client())
        for machine in controller.replica_map.replicas("kv"):
            rows = read_table(controller, machine, "kv",
                              "SELECT v FROM kv WHERE k = 0")
            assert rows == [(0,)]

    def test_read_only_txn_skips_2pc(self, sim):
        controller = make_kv_cluster(sim)

        def client():
            conn = controller.connect("kv")
            yield conn.execute("SELECT v FROM kv WHERE k = 1")
            yield conn.commit()

        run_client(sim, client())
        # No PREPARE record should exist on any engine.
        from repro.engine.wal import RecordType
        kinds = [r.kind
                 for m in controller.machines.values()
                 for r in m.engine.wal.all_records()]
        assert RecordType.PREPARE not in kinds
        assert controller.metrics.total_committed() == 1

    def test_write_txn_uses_2pc(self, sim):
        controller = make_kv_cluster(sim)

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 1 WHERE k = 1")
            yield conn.commit()

        run_client(sim, client())
        from repro.engine.wal import RecordType
        for name in controller.replica_map.replicas("kv"):
            kinds = [r.kind for r in
                     controller.machines[name].engine.wal.all_records()]
            assert RecordType.PREPARE in kinds
            last_commit = len(kinds) - 1 - kinds[::-1].index(RecordType.COMMIT)
            assert kinds.index(RecordType.PREPARE) < last_commit

    def test_commit_without_txn_is_noop(self, sim):
        controller = make_kv_cluster(sim)

        def client():
            conn = controller.connect("kv")
            result = yield conn.commit()
            return result

        assert run_client(sim, client()) is None

    def test_connect_unknown_db(self, sim):
        controller = make_kv_cluster(sim)
        with pytest.raises(NoReplicaError):
            controller.connect("missing")

    def test_sequential_transactions_reuse_connection(self, sim):
        controller = make_kv_cluster(sim)

        def client():
            conn = controller.connect("kv")
            for i in range(5):
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = 3")
                yield conn.commit()
            result = yield conn.execute("SELECT v FROM kv WHERE k = 3")
            yield conn.commit()
            return result.scalar()

        assert run_client(sim, client()) == 5


class TestWriteTally:
    """Every replica tallies the writes it executed and PREPARE holds the
    tally to the coordinator's sent count — on the direct submit path as
    over the fabric (one rule, not a fabric-only check)."""

    @pytest.mark.parametrize("fabric", [False, True])
    def test_a_write_that_failed_on_its_replicas_cannot_commit(self, sim,
                                                               fabric):
        controller = make_kv_cluster(
            sim, network=NetworkConfig(enabled=fabric, seed=1))
        seen = {}

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 1 WHERE k = 1")
            try:
                yield conn.execute("INSERT INTO kv VALUES (1, 5)")
            except ConstraintError as exc:
                seen["statement"] = exc     # the transaction stays open
            yield conn.commit()

        with pytest.raises(TransactionAborted,
                           match="executed 1 of 2 writes"):
            run_client(sim, client())
        sim.run()       # over the fabric the ABORTs are still in flight
        assert "statement" in seen
        for name in controller.replica_map.replicas("kv"):
            assert read_table(controller, name, "kv",
                              "SELECT v FROM kv WHERE k = 1") == [(0,)]


class TestConcurrency:
    def test_concurrent_increments_serialize(self, sim):
        controller = make_kv_cluster(sim, read_option=ReadOption.OPTION_1)

        def client(n):
            conn = controller.connect("kv")
            for _ in range(n):
                try:
                    yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = 5")
                    yield conn.commit()
                except TransactionAborted:
                    pass

        procs = [sim.process(client(10)) for _ in range(3)]
        sim.run()
        assert all(p.ok for p in procs)
        committed = controller.metrics.total_committed()
        for machine in controller.replica_map.replicas("kv"):
            rows = read_table(controller, machine, "kv",
                              "SELECT v FROM kv WHERE k = 5")
            assert rows == [(committed,)]

    def test_deadlock_aborts_one_and_other_commits(self, sim):
        controller = make_kv_cluster(sim, lock_wait_timeout_s=1.0)
        outcomes = []

        def client(first, second):
            conn = controller.connect("kv")
            try:
                yield conn.execute("UPDATE kv SET v = 1 WHERE k = ?", (first,))
                yield sim.timeout(0.01)
                yield conn.execute("UPDATE kv SET v = 1 WHERE k = ?", (second,))
                yield conn.commit()
                outcomes.append("commit")
            except TransactionAborted:
                outcomes.append("abort")

        sim.process(client(10, 11))
        sim.process(client(11, 10))
        sim.run()
        assert sorted(outcomes) == ["abort", "commit"]
        assert (controller.metrics.total_deadlocks() == 1)

    def test_aborted_txn_leaves_replicas_consistent(self, sim):
        controller = make_kv_cluster(sim, lock_wait_timeout_s=1.0)

        def client(first, second):
            conn = controller.connect("kv")
            try:
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                   (first,))
                yield sim.timeout(0.01)
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                   (second,))
                yield conn.commit()
            except TransactionAborted:
                pass

        sim.process(client(10, 11))
        sim.process(client(11, 10))
        sim.run()
        replicas = controller.replica_map.replicas("kv")
        states = [read_table(controller, m, "kv",
                             "SELECT k, v FROM kv ORDER BY k")
                  for m in replicas]
        assert states[0] == states[1]


class TestRoutingIntegration:
    @pytest.mark.parametrize("option", [ReadOption.OPTION_1,
                                        ReadOption.OPTION_2,
                                        ReadOption.OPTION_3])
    def test_reads_work_under_every_option(self, sim, option):
        controller = make_kv_cluster(sim, read_option=option)

        def client():
            conn = controller.connect("kv")
            total = 0
            for k in range(6):
                result = yield conn.execute("SELECT v FROM kv WHERE k = ?",
                                            (k,))
                total += result.scalar()
            yield conn.commit()
            return total

        assert run_client(sim, client()) == 0

    def test_option1_reads_hit_only_primary(self, sim):
        controller = make_kv_cluster(sim, read_option=ReadOption.OPTION_1)
        primary = controller.replica_map.replicas("kv")[0]

        def client():
            conn = controller.connect("kv")
            for k in range(8):
                yield conn.execute("SELECT v FROM kv WHERE k = ?", (k,))
                yield conn.commit()

        run_client(sim, client())
        # Secondary replicas saw no read traffic (no S locks acquired).
        for name in controller.replica_map.replicas("kv")[1:]:
            stats = controller.machines[name].engine.locks.stats
            assert stats.acquired == 0

    def test_option3_spreads_reads(self, sim):
        controller = make_kv_cluster(sim, read_option=ReadOption.OPTION_3)

        def client():
            conn = controller.connect("kv")
            for k in range(8):
                yield conn.execute("SELECT v FROM kv WHERE k = ?", (k,))
            yield conn.commit()

        run_client(sim, client())
        replicas = controller.replica_map.replicas("kv")
        acquired = [controller.machines[m].engine.locks.stats.acquired
                    for m in replicas]
        assert all(a > 0 for a in acquired)
