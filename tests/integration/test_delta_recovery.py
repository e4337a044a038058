"""Integration tests for log-structured delta re-replication.

Covers the delta copy pipeline end to end: the recovered replica is
physically identical to one produced by the full-copy reference, the
write-rejection window shrinks to the log-drain handoff, the cleanup
protocol leaves no orphaned partial replicas when either end of the
copy dies mid-flight, placement is best-fit, and a falsely-declared
machine that comes back with its data intact catches up from the
retained commit log instead of being wiped to a blank spare.
"""

import pytest

from repro.cluster import RecoveryManager
from repro.cluster.controller import TransactionAborted
from repro.cluster.network import CONTROLLER, NetworkConfig
from repro.engine.wal import RecordType
from repro.errors import ProactiveRejectionError
from repro.sim import Simulator
from tests.conftest import (assert_no_violations, make_cluster,
                            make_kv_cluster, read_table)


def fingerprint(controller, machine_name, db):
    """Physical fingerprint of one replica: per table, the row set, every
    index's (key -> rids) mapping, and the catalogue statistics."""
    stored = controller.machines[machine_name].engine.database(db)
    fp = {}
    for name in sorted(stored.tables):
        table = stored.tables[name]
        fp[name] = (
            sorted(table.scan_rows()),
            {ix: sorted((key, sorted(rids)) for key, rids in tree.items())
             for ix, tree in sorted(table.indexes.items())},
            stored.stats[name].snapshot(),
        )
    return fp


class TestDeltaDifferential:
    """S4: a delta-recovered replica is byte-identical to a full-copy one."""

    def _recover(self, delta):
        sim = Simulator()
        controller = make_kv_cluster(sim, machines=4, keys=30)
        recovery = RecoveryManager(
            controller, copy="delta" if delta else "database")
        recovery.start()

        def scenario():
            conn = controller.connect("kv")
            for i in range(25):
                yield conn.execute("UPDATE kv SET v = v + ? WHERE k = ?",
                                   (i + 1, i % 30))
                yield conn.commit()
            controller.fail_machine(controller.replica_map.replicas("kv")[1])

        sim.process(scenario())
        sim.run()
        assert recovery.records and recovery.records[-1].succeeded
        record = recovery.records[-1]
        survivor = [m for m in controller.replica_map.replicas("kv")
                    if m != record.target][0]
        assert_no_violations(controller, expect_recovery_complete=True)
        return controller, record, survivor

    def test_delta_replica_identical_to_full_copy_replica(self):
        ctrl_delta, rec_delta, surv_delta = self._recover(delta=True)
        ctrl_full, rec_full, surv_full = self._recover(delta=False)
        assert rec_delta.mode == "delta"
        assert rec_full.mode == "database"

        fp_delta = fingerprint(ctrl_delta, rec_delta.target, "kv")
        fp_full = fingerprint(ctrl_full, rec_full.target, "kv")
        # Each recovered replica is identical to its surviving replica...
        assert fp_delta == fingerprint(ctrl_delta, surv_delta, "kv")
        assert fp_full == fingerprint(ctrl_full, surv_full, "kv")
        # ...and the two pipelines produce the same physical state: rows,
        # index contents, and catalogue statistics all match.
        assert fp_delta == fp_full


class TestDeltaUnderWrites:
    """The tentpole behavior: writes keep flowing during the copy."""

    def test_rejection_shrinks_to_drain_window(self, sim):
        # Same scenario as the full-copy reference test in
        # test_failures_recovery.py, which asserts rejected > 0: the
        # delta pipeline accepts (almost) everything instead.
        controller = make_kv_cluster(sim, machines=4, keys=40)
        controller.config.machine.copy_bytes_factor = 50_000.0
        recovery = RecoveryManager(controller)
        recovery.start()
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

        # Only the drain handoff may reject; the copy itself rejects
        # nothing even though the database is under sustained writes.
        assert outcomes["committed"] >= 55
        assert outcomes["rejected"] <= 2
        handoffs = controller.trace.events(kind="delta_handoff")
        assert handoffs, "delta pipeline should reach the handoff"
        assert handoffs[-1].extra["replayed"] > 0, \
            "writes during the copy must arrive via log replay"
        assert controller.trace.events(kind="delta_snapshot")

        replicas = controller.replica_map.replicas("kv")
        assert len(replicas) == 2
        fps = [fingerprint(controller, m, "kv") for m in replicas]
        assert fps[0] == fps[1]
        assert_no_violations(controller, expect_recovery_complete=True)


class TestCopyFaultCleanup:
    """S1 + S3: a copy abandoned mid-flight cleans up exactly once and
    leaves no orphaned partial replica, whichever end died."""

    def _kill_mid_copy(self, sim, controller, which, delay=0.05):
        def watcher():
            while "kv" not in controller.copy_states:
                yield sim.timeout(0.01)
            state = controller.copy_states["kv"]
            name = state.source if which == "source" else state.target
            yield sim.timeout(delay)
            controller.fail_machine(name)

        proc = sim.process(watcher())
        proc.defused = True

    def _assert_no_orphans(self, controller):
        replicas = set(controller.replica_map.replicas("kv"))
        for machine in controller.machines.values():
            if machine.alive and machine.engine.hosts("kv"):
                assert machine.name in replicas, \
                    f"orphaned partial copy of kv left on {machine.name}"
        assert not controller.copy_states, "leaked copy state"

    def test_source_dies_mid_copy_no_orphan_then_retry_succeeds(self, sim):
        # replicas=3 so a surviving source remains for the retry after
        # both the original victim and the first copy's source are dead.
        controller = make_kv_cluster(sim, machines=6, keys=30, replicas=3,
                                     replication_factor=3)
        controller.config.machine.copy_bytes_factor = 200_000.0
        recovery = RecoveryManager(controller, retry_delay_s=0.5)
        recovery.start()
        victim = controller.replica_map.replicas("kv")[1]
        self._kill_mid_copy(sim, controller, "source")

        def failer():
            yield sim.timeout(0.1)
            controller.fail_machine(victim)

        sim.process(failer())
        sim.run()

        abandoned = controller.trace.events(kind="rereplication_abandoned")
        assert abandoned, "source death mid-copy must abandon the copy"
        assert [r for r in recovery.records if not r.succeeded]
        assert [r for r in recovery.records if r.succeeded], \
            "retry from the remaining replica should succeed"
        self._assert_no_orphans(controller)
        replicas = controller.replica_map.replicas("kv")
        assert len(replicas) >= 2
        states = [read_table(controller, m, "kv",
                             "SELECT k, v FROM kv ORDER BY k")
                  for m in replicas]
        assert all(s == states[0] for s in states[1:])
        assert_no_violations(controller, expect_recovery_complete=True)

    def test_target_dies_mid_copy_no_orphan_then_retry_succeeds(self, sim):
        controller = make_kv_cluster(sim, machines=5, keys=30)
        controller.config.machine.copy_bytes_factor = 200_000.0
        recovery = RecoveryManager(controller, retry_delay_s=0.5)
        recovery.start()
        victim = controller.replica_map.replicas("kv")[1]
        self._kill_mid_copy(sim, controller, "target")

        def failer():
            yield sim.timeout(0.1)
            controller.fail_machine(victim)

        sim.process(failer())
        sim.run()

        assert [r for r in recovery.records if not r.succeeded]
        good = [r for r in recovery.records if r.succeeded]
        assert good, "retry on a fresh target should succeed"
        self._assert_no_orphans(controller)
        replicas = controller.replica_map.replicas("kv")
        assert len(replicas) == 2
        assert good[-1].target in replicas
        states = [read_table(controller, m, "kv",
                             "SELECT k, v FROM kv ORDER BY k")
                  for m in replicas]
        assert states[0] == states[1]
        assert_no_violations(controller, expect_recovery_complete=True)


class TestPlacement:
    """S2: _choose_target is best-fit (fewest hosted databases)."""

    def test_choose_target_prefers_least_loaded_machine(self, sim):
        controller = make_cluster(sim, machines=5)
        names = sorted(controller.machines)
        ddl = ["CREATE TABLE t (k INTEGER PRIMARY KEY)"]
        controller.create_database("kv", ddl, machines=names[:2])
        # Skew the load: two databases pile onto the middle machines,
        # leaving the last machine empty.
        controller.create_database("busy1", ddl, machines=names[2:4])
        controller.create_database("busy2", ddl, machines=names[2:4])
        recovery = RecoveryManager(controller)

        # Candidates are names[2:] (not hosting kv); best fit is the
        # empty machine, not the first candidate in iteration order.
        assert recovery._choose_target("kv") == names[4]


class TestRejoinCatchUp:
    """A machine declared dead that comes back with data intact catches
    up from its last durable LSN instead of being wiped to a spare."""

    def test_false_declared_machine_catches_up_from_retained_log(self, sim):
        controller = make_kv_cluster(
            sim, machines=4, keys=20, heartbeat_interval_s=0.2,
            network=NetworkConfig(enabled=True, latency_s=0.001, seed=1))
        controller.start_failure_detector()
        victim = controller.replica_map.replicas("kv")[1]

        def scenario():
            conn = controller.connect("kv")
            # Phase 1: both replicas apply these; LSN tracking advances.
            for i in range(5):
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                   (i,))
                yield conn.commit()
            # Cut only the controller's link: the machine stays healthy
            # (and keeps its data) on the far side of the partition.
            controller.fabric.cut(CONTROLLER, victim)
            while victim not in controller.declared_dead:
                yield sim.timeout(0.1)
            # Phase 2: commits the fenced victim misses; they land in
            # the retained log.
            for i in range(8):
                while True:
                    try:
                        yield conn.execute(
                            "UPDATE kv SET v = v + 1 WHERE k = ?",
                            (5 + i,))
                        yield conn.commit()
                        break
                    except TransactionAborted:
                        yield sim.timeout(0.05)
            controller.fabric.heal(CONTROLLER, victim)

        proc = sim.process(scenario())
        sim.run(until=30.0)
        assert proc.ok

        readmits = controller.trace.events(kind="machine_readmitted")
        assert readmits, "healed machine should be readmitted"
        assert readmits[-1].extra["mode"] == "catchup"
        assert readmits[-1].extra["dbs"] == ["kv"]
        catchups = controller.trace.events(kind="machine_catchup_done")
        assert catchups and catchups[-1].extra["replayed"] > 0

        # The victim is a full replica again, physically identical to
        # the survivor — including the phase-2 commits it never saw.
        assert victim in controller.replica_map.replicas("kv")
        replicas = controller.replica_map.replicas("kv")
        assert len(replicas) == 2
        fps = [fingerprint(controller, m, "kv") for m in replicas]
        assert fps[0] == fps[1]
        assert_no_violations(controller)

    def test_fenced_between_commit_append_and_force_replays_nothing_twice(
            self, sim):
        # The machine is fenced while a COMMIT it has already applied in
        # memory still waits behind the log flush in progress. It keeps
        # its engine, so catch-up must skip that commit although it was
        # never flushed (and never acked): replaying it would add 1 twice.
        writers = 8
        controller = make_kv_cluster(
            sim, machines=4, keys=writers, heartbeat_interval_s=0.2,
            network=NetworkConfig(enabled=True, latency_s=0.001, seed=1))
        controller.start_failure_detector()
        victim = controller.replica_map.replicas("kv")[1]
        wal = controller.machines[victim].engine.wal
        disk = controller.machines[victim].disk
        committed = [0] * writers

        def writer(key):
            conn = controller.connect("kv")
            while sim.now < 3.0:
                try:
                    yield conn.execute(
                        "UPDATE kv SET v = v + 1 WHERE k = ?", (key,))
                    yield conn.commit()
                    committed[key] += 1
                except TransactionAborted:
                    yield sim.timeout(0.05)

        for key in range(writers):
            sim.process(writer(key))

        def commits_awaiting_force():
            # Mid-hold only: a leader that finds the disk free flushes in
            # the instant it logs, fenced or not.
            if not disk.users or disk.users[0].granted_at == sim.now:
                return set()
            return {r.txn_id for r in wal.records_since(wal.flushed_lsn)
                    if r.kind is RecordType.COMMIT}

        while not commits_awaiting_force() and sim.now < 1.0:
            sim.step()
        assert commits_awaiting_force(), \
            "no COMMIT ever waited behind a flush"
        controller.fabric.cut(CONTROLLER, victim)
        controller.declare_dead(victim, reason="test")
        sim.run(until=sim.now + 1.0)
        controller.fabric.heal(CONTROLLER, victim)
        sim.run(until=10.0)

        catchups = controller.trace.events(kind="machine_catchup_done")
        assert catchups and catchups[-1].extra["replayed"] > 0
        replicas = controller.replica_map.replicas("kv")
        assert len(replicas) == 2 and victim in replicas
        for name in replicas:
            assert read_table(controller, name, "kv",
                              "SELECT k, v FROM kv ORDER BY k") == [
                (key, committed[key]) for key in range(writers)], name
        fps = [fingerprint(controller, m, "kv") for m in replicas]
        assert fps[0] == fps[1]
        assert_no_violations(controller)


class TestCopyStrategyArgument:
    """The strategy a manager copies with is its ``copy`` argument and
    nothing else: there is no cluster-wide setting that overrides it."""

    def _fail_under_writes(self, sim, **manager):
        controller = make_kv_cluster(sim, machines=4, keys=40)
        controller.config.machine.copy_bytes_factor = 50_000.0
        RecoveryManager(controller, **manager).start()
        victim = controller.replica_map.replicas("kv")[1]
        rejected = []

        def writer():
            conn = controller.connect("kv")
            for i in range(60):
                try:
                    yield conn.execute(
                        "UPDATE kv SET v = v + 1 WHERE k = ?", (i % 40,))
                    yield conn.commit()
                except TransactionAborted as exc:
                    if isinstance(exc.cause, ProactiveRejectionError):
                        state = controller.copy_states["kv"]
                        rejected.append(state.copying_table)
                yield sim.timeout(0.05)

        def failer():
            yield sim.timeout(0.2)
            controller.fail_machine(victim)

        sim.process(writer())
        sim.process(failer())
        sim.run()
        done = controller.trace.events(kind="rereplication_done")
        assert len(done) == 1
        assert_no_violations(controller, expect_recovery_complete=True)
        return done[0].extra["mode"], rejected

    def test_table_copy_rejects_writes_to_the_table_being_copied(self, sim):
        mode, rejected = self._fail_under_writes(sim, copy="table")
        assert mode == "table"
        assert rejected and set(rejected) == {"kv"}

    def test_default_copy_is_delta(self, sim):
        mode, _rejected = self._fail_under_writes(sim)
        assert mode == "delta"

    def test_unknown_strategy_is_refused(self, sim):
        with pytest.raises(ValueError, match="unknown copy strategy"):
            RecoveryManager(make_kv_cluster(sim), copy="full")
