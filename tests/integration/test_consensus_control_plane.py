"""Integration tests: the control plane driving the cluster.

Every controller's 2PC commit decisions and take-over processing flow
through its multi-Paxos group; these tests check the binding end to end
on the production group of three — and that the default group of one
runs nothing a group with peers needs (DESIGN §4u).
"""

import dataclasses

from repro.cluster.config import production_profile
from repro.cluster.consensus import (LEASE_DURATION_S, RENEW_INTERVAL_S,
                                     takeover_cleanup)
from repro.errors import NotLeaderError, PlatformError
from repro.workloads.microbench import KeyValueWorkload, KvStats
from tests.conftest import assert_no_violations, make_kv_cluster


def make_consensus_cluster(sim, seed=2, **kwargs):
    """The production profile as these tests were written on it: a
    slower, noisier fabric, two replicas per database (declaring no SLA,
    so admission throttles nothing), and the election stream unseeded (the timing assertions below were
    tuned to it)."""
    profile = production_profile(seed)
    return make_kv_cluster(
        sim, machines=3, replicas=2,
        profile=dataclasses.replace(
            profile, replication_factor=2,
            network=dataclasses.replace(profile.network, latency_s=0.002,
                                        jitter_s=0.001),
            consensus=dataclasses.replace(profile.consensus, seed=0)),
        **kwargs)


class TestConsensusCommitPath:
    def test_commit_decision_replicates_to_every_controller_replica(self, sim):
        controller = make_consensus_cluster(sim)
        done = {}

        def client():
            yield sim.timeout(1.0)  # let the bootstrap election settle
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 7 WHERE k = 7")
            yield conn.commit()
            done["committed"] = True

        proc = sim.process(client())
        sim.run(until=6.0)
        assert proc.ok and done.get("committed")

        group = controller.consensus.group
        # The decision reached every replica's log, and with no later
        # decision to ride on, the idle leader's batched clear did too.
        for node in group.nodes.values():
            decisions = [payload for kind, payload in node.chosen.values()
                         if kind == "decision"]
            assert len(decisions) == 1 and decisions[0]["retire"] == []
            clears = [payload for kind, payload in node.chosen.values()
                      if kind == "decision_clear"]
            assert clears == [{"txns": [decisions[0]["txn"]]}]
            assert node.state.decisions == {}
        applies = controller.trace.events(kind="ctl_applied")
        decided_on = {e.machine for e in applies
                      if e.extra["command"] == "decision"}
        assert decided_on == set(group.names)
        # The data-plane decision event carries the deciding replica and
        # its term.
        logged = controller.trace.events(kind="decision_logged")
        assert logged and all(e.extra["actor"] == group.last_leader
                              for e in logged)
        assert all(e.extra["term"] >= 1 for e in logged)
        assert_no_violations(controller)

    def test_leader_kill_fails_over_and_cleans_up(self, sim):
        controller = make_consensus_cluster(sim, seed=5)
        plane = controller.consensus
        workload = KeyValueWorkload(controller, keys=20, seed=5)
        stats = KvStats()
        proc = sim.process(workload.reconnecting_client(
            0, until=18.0, think_time_s=0.05, stats=stats))
        proc.defused = True

        def killer():
            yield sim.timeout(4.0)
            plane.crash_controller(plane.acting)

        sim.process(killer())
        sim.run(until=30.0)

        kill, = controller.trace.events(kind="ctl_crashed")
        assert kill.machine == f"{controller.name}-ctl0"
        assert kill.extra["acting"]
        new_leader = plane.group.leader()
        assert new_leader is not None
        assert new_leader.name != kill.machine
        assert plane.acting == new_leader.name
        takeovers = controller.trace.events(kind="ctl_takeover")
        assert takeovers and takeovers[0].machine == new_leader.name
        # Clients rode through the failover and kept committing.
        assert stats.reconnects >= 1
        committed_after = [e for e in controller.trace.events(kind="committed")
                          if e.t > kill.t]
        assert committed_after, "no commits after the leader kill"
        assert stats.committed > 0
        assert_no_violations(controller)

    def test_deposed_acting_replica_redirects_clients(self, sim):
        controller = make_consensus_cluster(sim)
        sim.run(until=1.0)
        plane = controller.consensus
        plane.crash_controller(plane.acting)
        # Before a new leader is elected the contacted replica must
        # refuse with a redirect, not silently serve.
        try:
            controller.connect("kv")
        except NotLeaderError as exc:
            assert exc.leader is not None
        except PlatformError:
            pass  # primary-down path is an acceptable refusal too
        else:
            raise AssertionError("connect served without a leader")

    def test_partitioned_leader_lease_lapses_and_fences_it(self, sim):
        controller = make_consensus_cluster(sim, seed=7)
        sim.run(until=1.0)
        plane = controller.consensus
        old = plane.acting
        old_node = plane.group.nodes[old]
        others = [n for n in plane.group.names if n != old]
        assert plane.lease_valid()
        for name in others:
            controller.fabric.cut(old, name)
        # Strictly longer than LEASE_DURATION_S: the isolated leader's
        # own lease view expires on its own clock, no message required.
        sim.run(until=1.0 + LEASE_DURATION_S + 0.5)
        assert sim.now >= old_node.own_lease_until
        sim.run(until=15.0)
        # A new leader rose among the connected majority and the acting
        # role moved with it.
        assert plane.group.last_leader in others
        assert plane.acting == plane.group.last_leader
        assert plane.lease_valid()
        for name in others:
            controller.fabric.heal(old, name)
        sim.run(until=25.0)
        # The old leader saw the higher ballot, stepped down, caught up.
        new_node = plane.group.nodes[plane.group.last_leader]
        assert not old_node.is_leader
        assert old_node.applied_to == new_node.applied_to
        assert_no_violations(controller)


class TestRetireList:
    """A clear is not a command: it rides the next decision, an idle
    leader batches what is left, and a take-over drains what it inherits."""

    @staticmethod
    def _live_tables(plane):
        return {name: dict(node.state.decisions)
                for name, node in plane.group.nodes.items() if node.alive}

    def test_table_is_empty_after_quiescence_plus_one_renew_interval(self, sim):
        controller = make_kv_cluster(sim, keys=64, machines=4, replicas=3,
                                     profile=production_profile(3))
        controller.start_failure_detector()
        plane = controller.consensus
        commits = []

        def client(cid):
            yield sim.timeout(1.0)
            conn = controller.connect("kv")
            for i in range(25):
                key = (i * 4 + cid) % 64
                yield conn.execute("SELECT v FROM kv WHERE k = ?", (key,))
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                   (key,))
                yield conn.commit()
                commits.append(sim.now)

        for cid in range(4):
            sim.process(client(cid))
        sim.run(until=1.5)
        assert len(commits) == 100
        # Clears rode on decisions: about one command per commit, not two.
        node = plane.acting_node
        kinds = [kind for kind, _ in node.chosen.values()]
        assert kinds.count("decision") == 100
        assert kinds.count("decision_clear") <= 1
        retired = [txn for kind, payload in node.chosen.values()
                   if kind == "decision" for txn in payload["retire"]]
        assert len(retired) >= 90 and len(set(retired)) == len(retired)
        # One renew interval (plus a quorum round trip) after the last
        # commit the idle leader has flushed the rest, on every replica.
        sim.run(until=max(commits) + RENEW_INTERVAL_S + 0.01)
        assert plane._retire == []
        assert all(table == {} for table in self._live_tables(plane).values())
        assert_no_violations(controller)

    def test_table_drains_under_the_leader_that_takes_over(self, sim):
        controller = make_consensus_cluster(sim, seed=4)
        plane = controller.consensus
        done = {}

        def client():
            yield sim.timeout(1.0)
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 7 WHERE k = 7")
            done["txn"] = conn.txn.txn_id
            yield conn.commit()
            # Every COMMIT is acked, the retirement is queued behind a
            # decision that will never come: kill the leader right here.
            assert plane._retire == [done["txn"]]
            plane.crash_controller(plane.acting)

        sim.process(client())
        sim.run(until=20.0)
        new_leader = plane.group.leader()
        assert new_leader is not None and new_leader.name == plane.acting
        takeover = controller.trace.events(kind="ctl_takeover")[0]
        # The new leader inherited the decision, completed it (again:
        # idempotent) and aborted nothing that was committed ...
        assert takeover.extra["completed"] == [done["txn"]]
        assert done["txn"] not in takeover.extra["aborted"]
        for name in controller.replica_map.replicas("kv"):
            rows = controller.machines[name].engine.execute_sync(
                controller.machines[name].engine.begin(), "kv",
                "SELECT v FROM kv WHERE k = 7").rows
            assert rows == [(7,)]
        # ... then retired it: the table is empty on every live replica.
        assert all(table == {} for table in self._live_tables(plane).values())
        # Retiring it a second time is a no-op command.
        plane.clear_decision("kv", done["txn"])
        sim.run(until=22.0)
        clears = [payload for kind, payload in new_leader.chosen.values()
                  if kind == "decision_clear"]
        assert clears == [{"txns": [done["txn"]]}] * 2
        assert all(table == {} for table in self._live_tables(plane).values())
        assert_no_violations(controller)
        # The public counter follows the acting replica across the
        # leader change: each index once, won campaign included.
        assert plane.stats is new_leader.stats
        assert plane.stats.commands_chosen == len(new_leader.chosen)

    def test_failed_proposal_puts_the_retire_list_back(self, sim):
        controller = make_consensus_cluster(sim)
        plane = controller.consensus
        sim.run(until=1.0)
        plane._retire_later([41, 42])
        others = [n for n in plane.group.names if n != plane.acting]
        for name in others:
            controller.fabric.cut(plane.acting, name)
        out = {}

        def decide():
            try:
                yield from plane.replicate_decision("kv", 43, "commit", [])
            except PlatformError as exc:
                out["error"] = exc

        sim.process(decide())
        sim.run(until=1.2)
        assert plane._retire == []              # riding the proposal
        sim.run(until=12.0)
        # The isolated leader's proposal failed, the list went back, and
        # the leader elected meanwhile flushed it (no-ops here: nobody
        # ever decided 41 or 42).
        assert "error" in out and plane.acting in others
        clears = [payload["txns"] for kind, payload
                  in plane.acting_node.chosen.values()
                  if kind == "decision_clear"]
        assert [41, 42] in clears and plane._retire == []


class TestTakeoverClearsDrainGauge:
    """An orphaned coordinator must not wedge the delta-handoff drain.

    A controller kill mid-transaction leaves the coordinator generator
    dead before ``_finish`` runs, so its transaction would stay in the
    open-writer gauge forever — and any later delta re-replication of
    that database would drain against it until the end of time (the
    seed-9 controller soak hit exactly this). The take-over settles
    every in-flight transaction; it must purge them from the gauge too.
    """

    def _orphan_writer(self, sim, controller, holder):
        def orphan():
            yield sim.timeout(1.0)  # let the bootstrap election settle
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 3 WHERE k = 3")
            holder["txn"] = conn.txn.txn_id
            # Die here, like a coordinator whose controller was killed:
            # no commit, no rollback, no close.

        sim.process(orphan())
        sim.run(until=3.0)
        assert controller.replication.open_writers("kv") == 1

    def test_undecided_orphan_is_aborted_and_leaves_the_gauge(self, sim):
        controller = make_consensus_cluster(sim)
        holder = {}
        self._orphan_writer(sim, controller, holder)

        committed, aborted = takeover_cleanup(controller, {}, actor="test")

        assert holder["txn"] in aborted
        assert controller.replication.open_writers("kv") == 0

    def test_decided_orphan_on_dead_participant_leaves_the_gauge(self, sim):
        # The seed-9 wedge: the decision is replicated but the only
        # participant still holding the branch is permanently dead, so
        # Phase 1 cannot deliver the COMMIT anywhere — the gauge entry
        # must still be resolved.
        controller = make_consensus_cluster(sim)
        holder = {}
        self._orphan_writer(sim, controller, holder)
        txn_id = holder["txn"]
        for machine in controller.machines.values():
            machine.engine.transactions.pop(txn_id, None)

        decisions = {txn_id: ("commit", ["no-such-machine"])}
        committed, _aborted = takeover_cleanup(controller, decisions,
                                               actor="test")

        assert txn_id in committed
        assert controller.replication.open_writers("kv") == 0


class TestConsensusDisabled:
    def test_default_config_runs_no_consensus(self, sim):
        """The default group of one runs no consensus traffic: it won
        its one election inside the constructor, and each decision and
        its clear are chosen inside the proposing call — no kernel
        event, no per-command trace event, no log kept."""
        controller = make_kv_cluster(sim)
        plane = controller.consensus
        assert plane.group.solo and plane.lease_valid()
        done = {}

        def client():
            conn = controller.connect("kv")
            for key in (1, 2):
                yield conn.execute("UPDATE kv SET v = 1 WHERE k = ?", (key,))
                yield conn.commit()
            done["ok"] = True

        sim.process(client())
        sim.run()
        assert done.get("ok")
        # The bootstrap election is all the plane ever traced.
        assert [e.kind for e in controller.trace.events()
                if e.kind.startswith("ctl_")] == ["ctl_election_start",
                                                  "ctl_leader_elected"]
        node = plane.acting_node
        assert node.chosen == {} and node.state.decisions == {}
        # leader_takeover, then a decision and a clear per commit.
        assert node.applied_to == node.stats.commands_chosen == 5
        assert controller.metrics.network.messages_sent == 0
        logged = controller.trace.events(kind="decision_logged")
        assert [e.extra["term"] for e in logged] == [1, 1]
        assert_no_violations(controller, strict=True)


class TestControllerSoakSmoke:
    def test_consensus_soak_audits_clean(self):
        from repro.analysis.invariants import check_controller
        from repro.harness import soaks
        from repro.harness.faults import injected
        from repro.harness.scenario import run_scenario

        result = run_scenario(soaks.controllers(
            duration_s=15.0, drain_s=10.0, ctl_kill_mtbf_s=5.0, seed=11))
        assert len(result.controller.consensus.group.names) == 3
        assert result.committed > 0
        assert injected(result.applied, "kill_ctl"), \
            "soak never killed a controller replica"
        assert result.metrics.network.elections >= 1
        violations = check_controller(result.controller,
                                      expect_recovery_complete=True)
        assert not violations, "\n".join(str(v) for v in violations)

    def test_pair_soak_stages_one_takeover(self):
        """The pair soak's one staged primary crash is the partition
        soak's finale now: a ``kill_ctl`` of the leader after the drain,
        followed by exactly one take-over by another replica."""
        from repro.analysis.invariants import check_controller
        from repro.harness import soaks
        from repro.harness.faults import injected
        from repro.harness.scenario import run_scenario

        result = run_scenario(soaks.partitions(
            duration_s=12.0, drain_s=8.0, seed=11))
        assert result.committed > 0
        finale, = injected(result.applied, "kill_ctl")
        assert finale.at == 20.0
        takeovers = [e for e in result.events("ctl_takeover")
                     if e.t > finale.at]
        assert len(takeovers) == 1
        assert takeovers[0].machine != finale.resolved
        violations = check_controller(result.controller,
                                      expect_recovery_complete=True)
        assert not violations, "\n".join(str(v) for v in violations)
