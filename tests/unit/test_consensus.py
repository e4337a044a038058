"""Unit tests for the multi-Paxos consensus core (repro.cluster.consensus).

These exercise :class:`PaxosGroup` directly over a standalone network
fabric — no cluster controller attached — plus the deterministic
:class:`ControllerState` replay machine the replicated log drives, and
the group of one every default controller runs (DESIGN §4u).
"""

import dataclasses

import pytest

from repro.cluster import ClusterConfig, ClusterController
from repro.cluster.consensus import (ConsensusConfig, ControllerState,
                                     PaxosGroup, ballot_term, command_digest)
from repro.cluster.network import NetworkConfig, NetworkFabric
from repro.errors import NotLeaderError
from repro.sim import Simulator


def make_group(sim, n=3, seed=0, **config_kwargs):
    fabric = NetworkFabric(sim, NetworkConfig(enabled=True, latency_s=0.002,
                                              jitter_s=0.001, seed=seed))
    names = [f"ctl{i}" for i in range(n)]
    group = PaxosGroup(sim, names,
                       config=ConsensusConfig(seed=seed, **config_kwargs),
                       fabric=fabric)
    group.start()
    return group, fabric


def decision(txn, machines=("m0",), retire=()):
    return ("decision", {"txn": txn, "decision": "commit",
                         "machines": list(machines), "retire": list(retire)})


def propose_via(sim, group, node, cmd, out):
    """Run one proposal as a sim process, capturing index or error."""
    def driver():
        try:
            out["index"] = yield from group.propose(node, cmd)
        except NotLeaderError as exc:
            out["error"] = exc
    proc = sim.process(driver())
    proc.defused = True
    return proc


class TestBallots:
    def test_terms_are_unique_and_order_preserving(self):
        ballots = [(rnd, node) for rnd in range(1, 6) for node in range(3)]
        terms = [ballot_term(b, 3) for b in ballots]
        assert len(set(terms)) == len(terms)
        for a in ballots:
            for b in ballots:
                assert (a < b) == (ballot_term(a, 3) < ballot_term(b, 3))

    def test_command_digest_is_stable_and_key_order_insensitive(self):
        a = command_digest("decision", {"txn": 1, "decision": "commit",
                                        "machines": ["m0", "m1"]})
        b = command_digest("decision", {"machines": ["m0", "m1"],
                                        "decision": "commit", "txn": 1})
        assert a == b
        assert a != command_digest("decision", {"txn": 2,
                                                "decision": "commit",
                                                "machines": ["m0", "m1"]})


class TestElection:
    def test_bootstrap_elects_first_node(self, sim):
        group, _ = make_group(sim)
        sim.run(until=1.0)
        leader = group.leader()
        assert leader is not None and leader.name == "ctl0"
        assert group.last_leader == "ctl0"
        # The takeover command travelled through the log to every node.
        sim.run(until=2.0)
        for node in group.nodes.values():
            assert node.state.leader == "ctl0"
            assert node.state.term == leader.leader_term

    def test_group_needs_three_replicas(self, sim):
        fabric = NetworkFabric(sim, NetworkConfig(enabled=True))
        with pytest.raises(ValueError):
            PaxosGroup(sim, ["a", "b"], fabric=fabric)

    def test_leader_crash_triggers_reelection_with_higher_term(self, sim):
        group, _ = make_group(sim)
        sim.run(until=1.0)
        old = group.leader()
        old_term = old.leader_term
        group.crash(old.name)
        sim.run(until=15.0)
        new = group.leader()
        assert new is not None
        assert new.name != old.name
        assert new.leader_term > old_term

    def test_standing_lease_blocks_competing_candidate(self, sim):
        group, _ = make_group(sim)
        sim.run(until=1.0)
        assert group.leader().name == "ctl0"
        challenger = group.nodes["ctl1"]
        group._start_campaign(challenger)
        sim.run(until=1.5)
        # The lease grants held by a majority nack the challenger.
        assert not challenger.is_leader
        assert group.leader().name == "ctl0"

    def test_propose_from_follower_raises_not_leader(self, sim):
        group, _ = make_group(sim)
        sim.run(until=1.0)
        follower = group.nodes["ctl1"]
        out = {}
        propose_via(sim, group, follower, ("noop", {}), out)
        sim.run(until=1.2)
        assert isinstance(out.get("error"), NotLeaderError)
        assert out["error"].leader == "ctl0"


class TestReplication:
    def test_commands_apply_on_all_replicas_with_identical_digests(self, sim):
        group, _ = make_group(sim)
        sim.run(until=1.0)
        leader = group.leader()
        outs = []
        for i in range(5):
            out = {}
            outs.append(out)
            propose_via(sim, group, leader, decision(i, [f"m{i}"]), out)
        sim.run(until=5.0)
        assert sorted(o["index"] for o in outs) == list(
            range(outs[0]["index"], outs[0]["index"] + 5))
        applied = {node.name: node.applied_to for node in group.nodes.values()}
        assert len(set(applied.values())) == 1, applied
        logs = [node.chosen for node in group.nodes.values()]
        assert logs[0] == logs[1] == logs[2]
        for node in group.nodes.values():
            assert node.state.decisions == {i: ("commit", [f"m{i}"])
                                            for i in range(5)}
            # The cumulative counter a benchmark can read once the log
            # is truncated: every index counted once, on first sight.
            assert node.stats.commands_chosen == len(node.chosen) > 5

    def test_crashed_replica_catches_up_after_repair(self, sim):
        group, _ = make_group(sim)
        sim.run(until=1.0)
        group.crash("ctl2")
        leader = group.leader()
        for i in range(4):
            propose_via(sim, group, leader, decision(i, ["m9"]), {})
        sim.run(until=4.0)
        assert group.nodes["ctl2"].applied_to < leader.applied_to
        group.repair("ctl2")
        sim.run(until=10.0)
        lagger = group.nodes["ctl2"]
        assert lagger.applied_to == leader.applied_to
        assert lagger.chosen == leader.chosen
        assert lagger.stats.commands_chosen == len(lagger.chosen)  # learned
        assert lagger.state.decisions == leader.state.decisions

    def test_deposed_leader_pending_proposals_fail(self, sim):
        group, _ = make_group(sim)
        sim.run(until=1.0)
        leader = group.leader()
        group._step_down(leader, "test deposition")
        out = {}
        propose_via(sim, group, leader, ("noop", {}), out)
        sim.run(until=1.5)
        assert isinstance(out.get("error"), NotLeaderError)


class TestControllerState:
    def test_apply_is_deterministic_across_replicas(self):
        script = [
            ("leader_takeover", {"node": "ctl0", "term": 1}),
            ("decision", {"txn": 7, "decision": "commit",
                          "machines": ["m0", "m2"]}),
            ("noop", {}),
            # Clears are not commands of their own: 7 rides on the next
            # decision, 8 and 9 on an idle leader's batch.
            ("decision", {"txn": 8, "decision": "commit",
                          "machines": ["m0"], "retire": [7]}),
            ("decision", {"txn": 9, "decision": "commit",
                          "machines": ["m2"], "retire": []}),
            ("leader_takeover", {"node": "ctl1", "term": 5}),
            ("decision_clear", {"txns": [8]}),
        ]
        states = [ControllerState(), ControllerState()]
        for state in states:
            for kind, payload in script:
                state.apply(kind, payload)
        for state in states:
            assert state.term == 5 and state.leader == "ctl1"
            assert state.decisions == {9: ("commit", ["m2"])}

    def test_retire_drops_earlier_decisions_after_inserting_the_new_one(self):
        state = ControllerState()
        state.apply("decision", {"txn": 1, "decision": "commit",
                                 "machines": ["m0"]})
        state.apply("decision", {"txn": 2, "decision": "commit",
                                 "machines": ["m1"], "retire": [1]})
        assert state.decisions == {2: ("commit", ["m1"])}
        # Retiring twice, an unknown id, or the carrier itself (a restored
        # list proposed again) are all just pops.
        retire = [1, 2, 99]
        state.apply("decision", {"txn": 3, "decision": "commit",
                                 "machines": ["m0"], "retire": retire})
        assert state.decisions == {3: ("commit", ["m0"])}
        assert retire == [1, 2, 99]
        state.apply("decision_clear", {"txns": [3, 3, 1]})
        assert state.decisions == {}

    def test_apply_does_not_alias_payload_lists(self):
        _kind, payload = decision(1, ["m0"])
        state = ControllerState()
        state.apply("decision", payload)
        state.decisions[1][1].append("m1")
        assert payload["machines"] == ["m0"]

    def test_unknown_command_raises(self):
        with pytest.raises(ValueError):
            ControllerState().apply("frobnicate", {})
        # The metadata commands went with their last reader (DESIGN §4u).
        with pytest.raises(ValueError):
            ControllerState().apply("db_create", {"db": "a",
                                                  "machines": ["m0"]})


def solo_controller(sim, replicas=1):
    config = ClusterConfig()
    config.consensus = dataclasses.replace(config.consensus,
                                           replicas=replicas)
    return ClusterController(sim, config)


class TestGroupOfOne:
    """``replicas=1``: the controller that restarts from its own table."""

    def test_replicas_is_one_or_at_least_three(self, sim):
        assert ConsensusConfig().replicas == 1
        for bad in (0, 2, -1):
            with pytest.raises(ValueError, match=f"not {bad}$"):
                solo_controller(sim, replicas=bad)
        for good in (1, 3, 5):
            plane = solo_controller(Simulator(), replicas=good).consensus
            assert len(plane.group.names) == good
        with pytest.raises(ValueError):
            PaxosGroup(sim, [], transport=object())

    def test_it_leads_at_construction_and_schedules_nothing(self, sim):
        plane = solo_controller(sim).consensus
        assert plane.group.solo and plane.lease_valid()
        assert sim.pending == 0 and plane.acting_node.procs == []
        assert plane.acting_node.own_lease_until == float("inf")
        node = plane.acting_node
        for i in range(3):
            proposal = plane.group.propose(node, decision(i))
            with pytest.raises(StopIteration) as chosen:
                next(proposal)   # chosen inside the call: never yields
            assert chosen.value.value == node.applied_to
        # Applied, and no log kept past it; nothing left to run.
        assert node.chosen == {} and node.accepted == {}
        assert set(node.state.decisions) == {0, 1, 2}
        assert node.stats.commands_chosen == 4   # with the take-over
        assert sim.pending == 0
        assert not plane.controller.trace.events(kind="ctl_applied")

    def test_repair_re_elects_inline_under_a_higher_term(self, sim):
        controller = solo_controller(sim)
        plane = controller.consensus
        term = plane.term
        plane.crash_controller(plane.acting)
        assert not plane.alive and not plane.lease_valid()
        plane.repair_controller(plane.acting)
        assert plane.alive and plane.lease_valid() and plane.term > term
        takeover, = controller.trace.events(kind="ctl_takeover")
        assert takeover.extra["term"] == plane.term
        assert sim.pending == 0
