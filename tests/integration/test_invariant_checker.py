"""Integration tests: the invariant checker against real cluster runs,
plus the replication-path regression tests of the bugfix sweep
(deadlock-aborts-everywhere, partial-replica cleanup when a copy source
dies)."""

import pytest

from repro.cluster import RecoveryManager, WritePolicy
from repro.cluster.controller import TransactionAborted
from repro.errors import DeadlockError, LockTimeoutError
from repro.harness.faults import apply, crashes, injected
from repro.workloads.microbench import KeyValueWorkload, KvStats
from tests.conftest import (assert_no_violations, make_cluster,
                            make_kv_cluster, read_table)


class TestDeadlockAbortsEverywhere:
    """Satellite 4: a deadlock-class failure on ONE replica of a
    conservative ROWA write must abort the transaction on EVERY replica
    — no surviving replica may keep the write."""

    def test_lock_timeout_on_one_replica_aborts_all(self, sim):
        controller = make_kv_cluster(sim, machines=2, replicas=2,
                                     lock_wait_timeout_s=0.5)
        replicas = controller.replica_map.replicas("kv")
        blocked = controller.machines[replicas[0]]
        # An engine-local transaction pins k=1 on ONE replica only, so
        # the cluster write succeeds on the other and times out here.
        holder = blocked.engine.begin()
        blocked.engine.execute_sync(holder, "kv",
                                    "UPDATE kv SET v = 99 WHERE k = 1")

        outcome = {}

        def client():
            conn = controller.connect("kv")
            try:
                yield conn.execute("UPDATE kv SET v = 5 WHERE k = 1")
                yield conn.commit()
                outcome["result"] = "committed"
            except TransactionAborted as exc:
                outcome["result"] = type(exc.cause).__name__

        sim.process(client())
        sim.run()
        assert outcome["result"] == "LockTimeoutError"

        blocked.engine.abort(holder)
        # The replica where the write had SUCCEEDED must have rolled it
        # back too: both replicas still read the original value.
        for name in replicas:
            rows = read_table(controller, name, "kv",
                              "SELECT v FROM kv WHERE k = 1")
            assert rows == [(0,)], f"stale write survived on {name}"

        failed = controller.trace.events(kind="write_failed")
        assert [e.extra["error"] for e in failed] == ["LockTimeoutError"]
        assert controller.trace.events(kind="commit_sent") == []
        assert len(controller.trace.events(kind="abort")) == 1
        assert_no_violations(controller, strict=True)

    def test_true_deadlock_never_commits_the_victim(self, sim):
        controller = make_kv_cluster(sim, machines=2, replicas=2,
                                     lock_wait_timeout_s=5.0)
        outcomes = []

        def txn(name, first, second):
            conn = controller.connect("kv")
            try:
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                   (first,))
                yield sim.timeout(0.01)
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                   (second,))
                yield conn.commit()
                outcomes.append((name, "committed"))
            except TransactionAborted as exc:
                outcomes.append((name, type(exc.cause).__name__))

        sim.process(txn("T1", 0, 1))
        sim.process(txn("T2", 1, 0))
        sim.run()

        verdicts = sorted(v for _, v in outcomes)
        assert "committed" in verdicts       # one wins
        assert verdicts != ["committed", "committed"]
        # Replicas agree on every key: the victim's partial writes are
        # gone from BOTH machines, the winner's are on both.
        states = [read_table(controller, name, "kv",
                             "SELECT k, v FROM kv ORDER BY k")
                  for name in controller.replica_map.replicas("kv")]
        assert states[0] == states[1]
        assert_no_violations(controller, strict=True)


class TestCommitSurvivesParticipantDeath:
    """A participant dying mid-COMMIT-flush (after the decision is
    logged) must not stop phase 2: the surviving participants still get
    their COMMIT, instead of being stranded PREPARED with locks held.
    Found by the invariant checker on randomized fault soaks — the raw
    ``Interrupt`` escaped the phase-2 ``MachineFailedError`` handler."""

    def test_survivor_still_commits(self, sim):
        controller = make_kv_cluster(sim, machines=2, replicas=2)
        flush_s = controller.config.machine.engine.log_flush_ms / 1e3
        victim = sorted(controller.replica_map.replicas("kv"))[0]
        survivor = [m for m in controller.replica_map.replicas("kv")
                    if m != victim][0]

        # Kill the first phase-2 participant midway through its commit
        # log flush, while the coordinator is waiting on it.
        armed = {"done": False}
        original_emit = controller.trace.emit

        def emit(kind, db=None, txn=None, machine=None, **extra):
            event = original_emit(kind, db=db, txn=txn, machine=machine,
                                  **extra)
            if kind == "commit_sent" and machine == victim \
                    and not armed["done"]:
                armed["done"] = True

                def killer():
                    yield sim.timeout(flush_s / 2)
                    controller.fail_machine(victim)

                sim.process(killer())
            return event

        controller.trace.emit = emit
        outcome = {}

        def client():
            conn = controller.connect("kv")
            try:
                yield conn.execute("UPDATE kv SET v = 7 WHERE k = 3")
                yield conn.commit()
                outcome["result"] = "committed"
            except Exception as exc:
                outcome["result"] = type(exc).__name__

        sim.process(client())
        sim.run()

        assert armed["done"], "the mid-flush failure never fired"
        assert outcome["result"] == "committed"
        # The survivor's branch finished: no stranded PREPARED txn, no
        # held locks, and the decided write is durable there.
        machine = controller.machines[survivor]
        assert not [t for t in machine.engine.transactions.values()
                    if not t.finished]
        rows = read_table(controller, survivor, "kv",
                          "SELECT v FROM kv WHERE k = 3")
        assert rows == [(7,)]
        assert_no_violations(controller, strict=True)


class TestPartialCopyCleanup:
    """Satellite 3: when the SOURCE of an in-flight re-replication dies,
    the partially copied database must be deleted from the surviving
    target — otherwise the target is excluded as a candidate forever and
    recovery wedges (the pre-fix behaviour)."""

    def build(self, sim, machines=4):
        controller = make_kv_cluster(sim, machines=machines, replicas=3,
                                     replication_factor=3)
        # Paper-scale copy durations so a failure can land mid-copy.
        controller.config.machine.copy_bytes_factor = 200_000.0
        recovery = RecoveryManager(controller, threads=1, retry_delay_s=1.0)
        recovery.start()
        return controller, recovery

    def test_source_death_drops_partial_replica_then_recovers(self, sim):
        controller, recovery = self.build(sim)
        replicas = controller.replica_map.replicas("kv")
        controller.fail_machine(replicas[-1])  # triggers re-replication

        seen = {}

        def kill_source_mid_copy():
            while "kv" not in controller.copy_states:
                yield sim.timeout(0.01)
            state = controller.copy_states["kv"]
            seen["target"], seen["source"] = state.target, state.source
            yield sim.timeout(0.05)  # into the source's dump window
            controller.fail_machine(state.source)

        sim.process(kill_source_mid_copy())
        sim.run(until=0.5)

        target = controller.machines[seen["target"]]
        abandoned = controller.trace.events(kind="rereplication_abandoned")
        assert len(abandoned) == 1
        assert abandoned[0].extra["partial_dropped"] is True
        assert not target.engine.hosts("kv"), \
            "partial replica survived on the target after source death"
        # Both directions are visible in the trace: target role is
        # covered by the dead-source abandonment path here.
        assert controller.trace.events(kind="copy_abandoned")

        # With two machines dead, the ONLY candidate target is the same
        # machine again — recovery can now succeed there because the
        # partial data is gone. Pre-fix it wedged on NoReplicaError.
        sim.run(until=60.0)
        done = controller.trace.events(kind="rereplication_done")
        assert done, "recovery never completed after the partial cleanup"
        assert target.engine.hosts("kv")
        assert seen["target"] in controller.replica_map.replicas("kv")
        source_rows = read_table(
            controller, controller.live_replicas("kv")[0], "kv",
            "SELECT k, v FROM kv ORDER BY k")
        target_rows = read_table(controller, seen["target"], "kv",
                                 "SELECT k, v FROM kv ORDER BY k")
        assert source_rows == target_rows
        assert len(target_rows) == 20
        assert_no_violations(controller)

    def test_target_death_still_cleaned_by_worker(self, sim):
        controller, recovery = self.build(sim, machines=5)
        replicas = controller.replica_map.replicas("kv")
        controller.fail_machine(replicas[-1])

        seen = {}

        def kill_target_mid_copy():
            while "kv" not in controller.copy_states:
                yield sim.timeout(0.01)
            state = controller.copy_states["kv"]
            seen["target"] = state.target
            yield sim.timeout(0.05)
            controller.fail_machine(state.target)

        sim.process(kill_target_mid_copy())
        sim.run(until=60.0)

        # A dead target's partial data is irrelevant (the machine is
        # gone); recovery must have retried onto some live machine.
        assert controller.replica_map.replica_count("kv") == 3
        assert seen["target"] not in controller.replica_map.replicas("kv")
        assert_no_violations(controller)


class TestCheckerOnFaultInjection:
    """The flagship acceptance path: a randomized failure soak with
    background recovery audits clean, including recovery completion."""

    def test_soak_audits_clean(self, sim):
        controller = make_cluster(sim, machines=5)
        controller.config.machine.copy_bytes_factor = 1000.0
        workload = KeyValueWorkload(controller, db_name="app", keys=20,
                                    seed=2)
        workload.install(replicas=2)
        recovery = RecoveryManager(controller, threads=2, retry_delay_s=1.0)
        recovery.start()
        log = apply(controller, crashes(7, sorted(controller.machines),
                                        until=30.0, mtbf_s=6.0))

        stats = [KvStats() for _ in range(3)]
        for cid in range(3):
            proc = sim.process(workload.client(
                cid, transactions=100, think_time_s=0.2,
                stats=stats[cid]))
            proc.defused = True
        sim.run(until=70.0)  # failures stop at 30 s; drain the rest

        assert injected(log, "fail"), "the soak must actually inject failures"
        assert sum(s.committed for s in stats) > 50
        assert controller.trace.events(kind="rereplication_done")
        assert_no_violations(controller, expect_recovery_complete=True)
