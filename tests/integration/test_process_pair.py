"""Controller take-over, the paper's process pair (Section 2), on the
group of one every default controller runs.

The paper pairs the controller with a backup that mirrors commit
decisions and, when the primary dies, completes decided transactions
and presumed-aborts the rest. Here the controller is a Paxos group, and
a group of one is a single controller that restarts from its own
decision table (DESIGN §4u): ``crash_controller`` stops it,
``repair_controller`` re-elects it on the spot and runs the same
take-over. These are the pair's take-over cases on that restart.
"""

from repro.engine.transactions import TxnState
from tests.conftest import make_kv_cluster, read_table


def decide(controller, txn_id, machines):
    """Log a commit decision on the group of one: it is chosen inside
    the call, so the proposal never yields."""
    next(controller.consensus.replicate_decision(
        "kv", txn_id, "commit", list(machines)), None)


def take_over(controller):
    """Crash the controller and restart it; returns what its take-over
    completed and aborted."""
    plane = controller.consensus
    plane.crash_controller(plane.acting)
    plane.repair_controller(plane.acting)
    takeover = controller.trace.events(kind="ctl_takeover")[-1]
    return takeover.extra["completed"], takeover.extra["aborted"]


def prepare_everywhere(controller, txn_id, sql, prepare=True):
    """Drive ``txn_id`` on every replica by hand, as a coordinator that
    died right after this would have left it."""
    replicas = controller.replica_map.replicas("kv")
    for name in replicas:
        machine = controller.machines[name]
        txn = machine.engine.begin(txn_id)
        machine.engine.execute_sync(txn, "kv", sql)
        if prepare:
            machine.engine.prepare(txn)
    return replicas


class TestProcessPair:
    def test_clean_commits_leave_no_decisions(self, sim):
        controller = make_kv_cluster(sim)

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 1 WHERE k = 1")
            yield conn.commit()

        proc = sim.process(client())
        sim.run()
        assert proc.ok
        plane = controller.consensus
        assert plane.acting_node.state.decisions == {}
        assert plane._retire == []

    def test_takeover_completes_decided_commit(self, sim):
        controller = make_kv_cluster(sim)
        # All participants PREPARED and the decision logged, but no
        # COMMIT sent: the controller dies exactly there.
        txn_id = 4242
        replicas = prepare_everywhere(controller, txn_id,
                                      "UPDATE kv SET v = 99 WHERE k = 5")
        decide(controller, txn_id, replicas)

        committed, aborted = take_over(controller)
        assert committed == [txn_id]
        assert txn_id not in aborted
        for name in replicas:
            assert read_table(controller, name, "kv",
                              "SELECT v FROM kv WHERE k = 5") == [(99,)]
        # Completed, then retired from the table it restarted from.
        assert controller.consensus.acting_node.state.decisions == {}

    def test_takeover_aborts_undecided_transactions(self, sim):
        controller = make_kv_cluster(sim)
        txn_id = 777
        # No prepare, no decision: in transit when the controller dies.
        replicas = prepare_everywhere(controller, txn_id,
                                      "UPDATE kv SET v = 5 WHERE k = 3",
                                      prepare=False)
        committed, aborted = take_over(controller)
        assert committed == []
        assert txn_id in aborted
        for name in replicas:
            assert read_table(controller, name, "kv",
                              "SELECT v FROM kv WHERE k = 3") == [(0,)]
            engine_txn = controller.machines[name].engine.transactions[txn_id]
            assert engine_txn.state is TxnState.ABORTED

    def test_takeover_aborts_prepared_but_undecided(self, sim):
        # Prepared everywhere but no decision was logged: presumed abort.
        controller = make_kv_cluster(sim)
        txn_id = 888
        replicas = prepare_everywhere(controller, txn_id,
                                      "UPDATE kv SET v = 8 WHERE k = 8")
        committed, aborted = take_over(controller)
        assert txn_id in aborted
        for name in replicas:
            assert read_table(controller, name, "kv",
                              "SELECT v FROM kv WHERE k = 8") == [(0,)]

    def test_takeover_skips_dead_machines(self, sim):
        controller = make_kv_cluster(sim, machines=3)
        txn_id = 999
        replicas = prepare_everywhere(controller, txn_id,
                                      "UPDATE kv SET v = 9 WHERE k = 9")
        decide(controller, txn_id, replicas)
        controller.fail_machine(replicas[1])
        committed, _ = take_over(controller)
        assert committed == [txn_id]
        assert read_table(controller, replicas[0], "kv",
                          "SELECT v FROM kv WHERE k = 9") == [(9,)]


class TestTakeoverSweepsFencedMachines:
    def test_undecided_txn_on_fenced_participant_is_aborted(self, sim):
        """Take-over Phase 2 must reach alive-but-fenced machines.

        A participant fenced mid-PREPARE still holds the transaction's
        write locks in its engine; nothing else will ever release them,
        so the presumed-abort sweep must cover it.
        """
        controller = make_kv_cluster(sim)
        txn_id = 555
        replicas = prepare_everywhere(controller, txn_id,
                                      "UPDATE kv SET v = 55 WHERE k = 4")
        # The detector fences one participant between its PREPARE and
        # any decision: alive, engine intact, locks held.
        fenced = controller.machines[replicas[1]]
        fenced.fence()
        assert fenced.alive and fenced.fenced

        committed, aborted = take_over(controller)
        assert committed == []
        assert aborted == [txn_id]
        for name in replicas:
            engine_txn = controller.machines[name].engine.transactions[txn_id]
            assert engine_txn.state is TxnState.ABORTED, name
        # The un-fenced replica shows the rollback; the fenced one holds
        # no lock that would block its eventual wipe-and-readmit.
        assert read_table(controller, replicas[0], "kv",
                          "SELECT v FROM kv WHERE k = 4") == [(0,)]

    def test_decided_commit_skips_fenced_participant_but_lands_elsewhere(
            self, sim):
        """Phase 1 must not commit onto a fenced machine (its replica is
        stale by definition and will be wiped on readmission) while
        still completing the decision on the healthy participants."""
        controller = make_kv_cluster(sim)
        txn_id = 556
        replicas = prepare_everywhere(controller, txn_id,
                                      "UPDATE kv SET v = 56 WHERE k = 6")
        decide(controller, txn_id, replicas)
        controller.machines[replicas[1]].fence()

        committed, aborted = take_over(controller)
        assert committed == [txn_id]
        assert aborted == []
        assert read_table(controller, replicas[0], "kv",
                          "SELECT v FROM kv WHERE k = 6") == [(56,)]


class TestTakeoverRacesInflightPrepares:
    def test_mid_phase1_txn_presumed_aborted_everywhere(self, sim):
        """The controller dies while PREPAREs are on the wire.

        The participants keep PREPARE-ing (they cannot know the
        controller died), but no decision was logged, so the restarted
        controller's take-over must presumed-abort the transaction on
        every participant. The coordinator that survives the restart in
        memory wakes up after it, under the new term: it must not log
        the decision its PREPARE round straddled.
        """
        from repro.analysis.invariants import check_controller
        from repro.cluster.controller import TransactionAborted
        from repro.cluster.network import NetworkConfig
        from repro.errors import ControllerFailedError

        # One-way latency of 0.2 s makes the 2PC phases slow enough to
        # crash the controller deterministically in the middle of phase 1.
        controller = make_kv_cluster(
            sim, machines=3,
            network=NetworkConfig(enabled=True, latency_s=0.2, seed=1))
        plane = controller.consensus
        replicas = controller.replica_map.replicas("kv")
        outcome = {}

        def client():
            conn = controller.connect("kv")
            try:
                yield conn.execute("UPDATE kv SET v = 42 WHERE k = 2")
                yield conn.commit()
            except (TransactionAborted, ControllerFailedError) as exc:
                outcome["error"] = exc
            else:
                outcome["committed"] = True

        def crasher():
            # Writes are acked ~0.4 s in; the PREPAREs land ~0.6 s and
            # their votes are on the wire until ~0.8 s. Crash squarely
            # inside phase 1, after the branches prepared, and restart
            # before the votes are back.
            yield sim.timeout(0.65)
            plane.crash_controller(plane.acting)
            yield sim.timeout(0.05)
            plane.repair_controller(plane.acting)

        sim.process(client())
        crash = sim.process(crasher())
        sim.run(until=10.0)

        assert crash.ok
        takeover, = controller.trace.events(kind="ctl_takeover")
        assert "committed" not in outcome
        assert isinstance(outcome["error"],
                          (TransactionAborted, ControllerFailedError))
        # Presumed abort landed on every participant: no replica kept
        # the write, no replica still holds the transaction open.
        assert takeover.extra["aborted"]
        txn_id = takeover.extra["aborted"][0]
        for name in replicas:
            engine = controller.machines[name].engine
            txn = engine.transactions.get(txn_id)
            assert txn is None or txn.state is not TxnState.COMMITTED
            assert read_table(controller, name, "kv",
                              "SELECT v FROM kv WHERE k = 2") == [(0,)]
        assert takeover.extra["completed"] == []
        # Every branch voted yes, to a coordinator of the old term.
        assert len(controller.trace.events(kind="prepare")) == 2
        orphaned, = controller.trace.events(kind="txn_orphaned")
        assert orphaned.txn == txn_id
        assert controller.trace.events(kind="decision_logged") == []
        violations = check_controller(controller)
        assert not violations, "\n".join(str(v) for v in violations)
