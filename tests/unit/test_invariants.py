"""Unit tests for the 2PC invariant checker, plus controller regression
tests for the bugfix sweep (rollback accounting, aggressive-wait
callback registration)."""

import pytest

from repro.analysis.invariants import (InvariantChecker, check_trace,
                                       check_controller)
from repro.analysis.trace import TraceEvent
from repro.cluster import WritePolicy
from repro.cluster.controller import DEAD, _Gather, _TxnState
from repro.errors import MachineFailedError
from tests.conftest import make_kv_cluster


def trace(*specs):
    """Build a synthetic event list from (kind, fields...) tuples."""
    events = []
    for seq, spec in enumerate(specs):
        kind, fields = spec[0], (spec[1] if len(spec) > 1 else {})
        known = {k: fields.pop(k, None) for k in ("db", "txn", "machine")}
        events.append(TraceEvent(seq=seq, t=float(seq), kind=kind,
                                 extra=fields, **known))
    return events


def committed_txn(txn=1, machines=("m0", "m1")):
    """A well-formed conservative commit for one transaction."""
    steps = [("txn_begin", {"db": "kv", "txn": txn})]
    for m in machines:
        steps.append(("write_issued", {"db": "kv", "txn": txn,
                                       "machine": m}))
    for m in machines:
        steps.append(("write_acked", {"db": "kv", "txn": txn,
                                      "machine": m}))
    for m in machines:
        steps.append(("prepare", {"db": "kv", "txn": txn, "machine": m}))
    steps.append(("decision_logged", {"db": "kv", "txn": txn,
                                      "decision": "commit"}))
    for m in machines:
        steps.append(("commit_sent", {"db": "kv", "txn": txn,
                                      "machine": m}))
    steps.append(("committed", {"db": "kv", "txn": txn}))
    return steps


def rules(violations):
    return sorted({v.rule for v in violations})


class TestCheckerRules:
    def test_clean_commit_passes(self):
        violations = check_trace(trace(*committed_txn()),
                                 write_policy="conservative")
        assert violations == []

    def test_decision_before_commit(self):
        violations = check_trace(trace(
            ("txn_begin", {"db": "kv", "txn": 1}),
            ("prepare", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("commit_sent", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("decision_logged", {"db": "kv", "txn": 1}),
            ("committed", {"db": "kv", "txn": 1}),
        ))
        assert rules(violations) == ["decision-before-commit"]

    def test_double_decision_is_flagged(self):
        violations = check_trace(trace(
            ("prepare", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("decision_logged", {"db": "kv", "txn": 1}),
            ("decision_logged", {"db": "kv", "txn": 1}),
            ("committed", {"db": "kv", "txn": 1}),
        ))
        assert rules(violations) == ["decision-unique"]

    def test_abort_after_decision_is_flagged(self):
        violations = check_trace(trace(
            ("prepare", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("decision_logged", {"db": "kv", "txn": 1}),
            ("abort", {"db": "kv", "txn": 1}),
        ))
        assert rules(violations) == ["decision-unique"]

    def test_conservative_requires_all_acks(self):
        violations = check_trace(trace(
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m1"}),
            ("write_acked", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("prepare", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("decision_logged", {"db": "kv", "txn": 1}),
            ("committed", {"db": "kv", "txn": 1}),
        ), write_policy="conservative")
        assert rules(violations) == ["conservative-all-acked"]
        assert "m1" in violations[0].message

    def test_failed_machine_excused_from_acks(self):
        violations = check_trace(trace(
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m1"}),
            ("write_acked", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("machine_declared", {"machine": "m1", "affected": ["kv"]}),
            ("prepare", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("decision_logged", {"db": "kv", "txn": 1}),
            ("committed", {"db": "kv", "txn": 1}),
        ), write_policy="conservative")
        assert violations == []

    def test_aggressive_policy_skips_ack_rule(self):
        violations = check_trace(trace(
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m1"}),
            ("write_acked", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("prepare", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("decision_logged", {"db": "kv", "txn": 1}),
            ("committed", {"db": "kv", "txn": 1}),
        ), write_policy="aggressive")
        assert violations == []

    def test_poisoned_never_commits(self):
        violations = check_trace(trace(
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("poisoned", {"db": "kv", "txn": 1, "machine": "m1",
                          "error": "MachineFailedError"}),
            ("decision_logged", {"db": "kv", "txn": 1}),
            ("committed", {"db": "kv", "txn": 1}),
        ), write_policy="aggressive")
        assert rules(violations) == ["poisoned-never-commits"]

    def test_deadlocked_write_must_not_commit(self):
        violations = check_trace(trace(
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m1"}),
            ("write_acked", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("write_failed", {"db": "kv", "txn": 1, "machine": "m1",
                              "error": "DeadlockError"}),
            ("decision_logged", {"db": "kv", "txn": 1}),
            ("committed", {"db": "kv", "txn": 1}),
        ), write_policy="conservative")
        assert "deadlock-aborts-everywhere" in rules(violations)

    def test_deadlocked_write_that_aborts_is_fine(self):
        violations = check_trace(trace(
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m1"}),
            ("write_acked", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("write_failed", {"db": "kv", "txn": 1, "machine": "m1",
                              "error": "DeadlockError"}),
            ("abort", {"db": "kv", "txn": 1,
                       "reason": "DeadlockError"}),
        ), write_policy="conservative")
        assert violations == []

    def test_strict_flags_in_flight_prepared_txns(self):
        events = trace(
            ("prepare", {"db": "kv", "txn": 1, "machine": "m0"}),
        )
        relaxed = InvariantChecker(strict=False)
        assert relaxed.check(events) == []
        assert relaxed.in_flight == {1}
        strict = InvariantChecker(strict=True)
        assert rules(strict.check(events)) == ["decision-unique"]

    def test_trace_meta_supplies_policy(self):
        violations = check_trace(trace(
            ("trace_meta", {"write_policy": "conservative",
                            "replication_factor": 2}),
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m1"}),
            ("write_acked", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("decision_logged", {"db": "kv", "txn": 1}),
            ("committed", {"db": "kv", "txn": 1}),
        ))
        assert rules(violations) == ["conservative-all-acked"]


class TestRecoveryRule:
    def test_unrecovered_database_flagged(self):
        violations = check_trace(trace(
            ("machine_declared", {"machine": "m1", "affected": ["kv"]}),
            ("rereplication_queued", {"db": "kv"}),
        ), expect_recovery_complete=True)
        assert rules(violations) == ["rereplication-restores-factor"]

    def test_completed_recovery_passes(self):
        violations = check_trace(trace(
            ("machine_declared", {"machine": "m1", "affected": ["kv"]}),
            ("rereplication_queued", {"db": "kv"}),
            ("rereplication_done", {"db": "kv", "machine": "m2",
                                    "replicas": 2}),
        ), expect_recovery_complete=True, replication_factor=2)
        assert violations == []

    def test_under_factor_recovery_flagged(self):
        violations = check_trace(trace(
            ("rereplication_queued", {"db": "kv"}),
            ("rereplication_done", {"db": "kv", "machine": "m2",
                                    "replicas": 1}),
        ), expect_recovery_complete=True, replication_factor=2)
        assert rules(violations) == ["rereplication-restores-factor"]

    def test_already_replicated_skip_satisfies(self):
        violations = check_trace(trace(
            ("rereplication_queued", {"db": "kv"}),
            ("rereplication_skipped", {"db": "kv",
                                       "reason": "already-replicated"}),
        ), expect_recovery_complete=True)
        assert violations == []

    def test_no_source_skip_does_not_satisfy(self):
        violations = check_trace(trace(
            ("rereplication_queued", {"db": "kv"}),
            ("rereplication_skipped", {"db": "kv", "reason": "no-source"}),
        ), expect_recovery_complete=True)
        assert rules(violations) == ["rereplication-restores-factor"]

    def test_truncated_trace_weakens_cross_event_rules(self):
        events = trace(
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m1"}),
            ("decision_logged", {"db": "kv", "txn": 1}),
            ("committed", {"db": "kv", "txn": 1}),
            ("rereplication_queued", {"db": "kv"}),
        )
        complete = check_trace(events, write_policy="conservative",
                               expect_recovery_complete=True)
        assert len(complete) == 2
        truncated = check_trace(events, write_policy="conservative",
                                expect_recovery_complete=True, dropped=5)
        assert truncated == []


    def test_truncated_ring_excuses_only_txns_begun_before_it(self):
        # txn 1's begin, prepare and decision fell off the ring; txn 2
        # began inside it and really did send COMMIT undecided.
        events = trace(
            ("commit_sent", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("committed", {"db": "kv", "txn": 1}),
            ("txn_begin", {"db": "kv", "txn": 2}),
            ("prepare", {"db": "kv", "txn": 2, "machine": "m0"}),
            ("commit_sent", {"db": "kv", "txn": 2, "machine": "m0"}),
        )
        complete = check_trace(events)
        assert [v.txn for v in complete] == [1, 2]
        assert rules(complete) == ["decision-before-commit"]
        truncated = check_trace(events, dropped=5)
        assert [(v.rule, v.txn) for v in truncated] == [
            ("decision-before-commit", 2)]


def run_client(sim, gen):
    proc = sim.process(gen)
    sim.run()
    if not proc.ok:
        proc.defused = True
        raise proc.value
    return proc.value


class TestRollbackAccounting:
    """Satellite 1: client ROLLBACK must not count as a failure abort."""

    def test_rollback_counted_separately(self, sim):
        controller = make_kv_cluster(sim)

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 9 WHERE k = 0")
            yield conn.rollback()

        run_client(sim, client())
        counters = controller.metrics.db("kv")
        assert counters.rollbacks == 1
        assert counters.other_aborts == 0
        assert counters.total_finished == 1
        assert len(controller.trace.events(kind="rollback")) == 1
        assert controller.trace.events(kind="abort") == []
        assert check_controller(controller, strict=True) == []


class TestAggressiveWaitRegistration:
    """Satellite 2: one settlement callback per write, not one per round."""

    def test_no_callback_pileup_on_slow_write(self, sim):
        controller = make_kv_cluster(
            sim, machines=3, replicas=3, write_policy=WritePolicy.AGGRESSIVE)
        txns = controller.txns
        names = controller.replica_map.replicas("kv")

        never = sim.event()

        def slow():
            yield never

        def fail_after(delay):
            yield sim.timeout(delay)
            raise MachineFailedError("replica died")

        writes = {names[0]: sim.process(slow(), name="slow-write"),
                  names[1]: sim.process(fail_after(0.1), name="fail1"),
                  names[2]: sim.process(fail_after(0.2), name="fail2")}
        txns.rpc.send = lambda machine, *call, **options: writes[machine.name]

        gather = _Gather(txns, _TxnState(1, "kv", 0.0), names, None, "write",
                         need="first")
        sim.run(until=0.3)

        # Both failures have settled (skipped: survivors carry the write)
        # and the gather still waits for its first ack. The still-pending
        # slow write carries exactly the one callback registered when it
        # was issued; the pre-fix loop added a fresh one every wait round,
        # the loop after it one relay event per write up front.
        assert [outcome for _, outcome, _ in gather.outcomes] == [DEAD, DEAD]
        assert not gather.triggered
        assert len(writes[names[0]].callbacks) == 1
        assert {e.machine for e in controller.trace.events(
            kind="write_failed")} == set(names[1:])


class TestPartitionRules:
    """The three fabric-era rules: fencing, split-brain, suspicion."""

    def test_fenced_machine_serving_is_flagged(self):
        violations = check_trace(trace(
            ("machine_fenced", {"machine": "m0"}),
            ("txn_begin", {"db": "kv", "txn": 1}),
            ("write_issued", {"db": "kv", "txn": 1, "machine": "m0"}),
            ("abort", {"db": "kv", "txn": 1}),
        ))
        assert "fenced-replica-never-serves" in rules(violations)

    def test_fenced_prepare_is_flagged(self):
        violations = check_trace(trace(
            ("machine_fenced", {"machine": "m1"}),
            ("prepare", {"db": "kv", "txn": 2, "machine": "m1"}),
            ("abort", {"db": "kv", "txn": 2}),
        ))
        assert "fenced-replica-never-serves" in rules(violations)

    def test_readmission_clears_the_fence(self):
        steps = [("machine_fenced", {"machine": "m0"}),
                 ("machine_readmitted", {"machine": "m0"})]
        steps.extend(committed_txn(txn=1, machines=("m0", "m1")))
        violations = check_trace(trace(*steps),
                                 write_policy="conservative")
        assert violations == []

    def test_fenced_rereplication_source_is_flagged(self):
        violations = check_trace(trace(
            ("machine_fenced", {"machine": "m0"}),
            ("rereplication_start", {"db": "kv", "machine": "m2",
                                     "source": "m0"}),
        ))
        assert rules(violations) == ["fenced-replica-never-serves"]

    def test_fenced_rereplication_target_is_flagged(self):
        violations = check_trace(trace(
            ("machine_fenced", {"machine": "m2"}),
            ("rereplication_start", {"db": "kv", "machine": "m2",
                                     "source": "m1"}),
        ))
        assert rules(violations) == ["fenced-replica-never-serves"]

    # The split-brain rules are the lease rules: the old controller's
    # lease has run out by the time another one is elected, and a
    # decision it takes after that is flagged.

    def test_primary_decision_after_takeover_is_split_brain(self):
        violations = check_trace(ctrace(
            ("ctl_leader_elected", {"machine": "ctl0", "term": 1,
                                    "lease_until": 3.0, "t": 1.0}),
            ("prepare", {"db": "kv", "txn": 1, "machine": "m0", "t": 2.0}),
            ("ctl_leader_elected", {"machine": "ctl1", "term": 2,
                                    "lease_until": 7.0, "t": 4.0}),
            ("decision_logged", {"db": "kv", "txn": 1,
                                 "decision": "commit", "actor": "ctl0",
                                 "term": 1, "t": 5.0}),
            ("committed", {"db": "kv", "txn": 1, "t": 5.0}),
        ))
        assert rules(violations) == ["decision-only-under-valid-lease"]

    def test_backup_takeover_commit_is_clean(self):
        violations = check_trace(ctrace(
            ("ctl_leader_elected", {"machine": "ctl0", "term": 1,
                                    "lease_until": 3.0, "t": 1.0}),
            ("prepare", {"db": "kv", "txn": 1, "machine": "m0", "t": 2.0}),
            ("decision_logged", {"db": "kv", "txn": 1,
                                 "decision": "commit", "actor": "ctl0",
                                 "term": 1, "t": 2.0}),
            ("ctl_crashed", {"machine": "ctl0", "acting": True, "t": 2.5}),
            ("ctl_leader_elected", {"machine": "ctl1", "term": 2,
                                    "lease_until": 7.0, "t": 4.0}),
            ("takeover_commit", {"txn": 1, "actor": "ctl1", "t": 4.0}),
        ))
        assert violations == []

    def test_second_takeover_is_flagged(self):
        # Two take-overs of one term: two leaders at once.
        violations = check_trace(ctrace(
            ("ctl_leader_elected", {"machine": "ctl0", "term": 2,
                                    "lease_until": 3.0, "t": 1.0}),
            ("ctl_leader_elected", {"machine": "ctl1", "term": 2,
                                    "lease_until": 7.0, "t": 4.0}),
        ))
        assert rules(violations) == ["single-leader-per-term"]

    def test_dangling_suspicion_is_flagged(self):
        violations = check_trace(trace(
            ("machine_suspected", {"machine": "m0"}),
        ))
        assert rules(violations) == ["suspicion-eventually-resolves"]

    def test_suspicion_the_detector_had_no_time_to_resolve_is_excused(self):
        # Suspected 0.5 s before the acting controller replica (and its
        # detector) stopped.
        steps = (("machine_suspected", {"machine": "m0", "t": 44.5}),
                 ("ctl_crashed", {"machine": "ctl0", "acting": True,
                                  "t": 45.0}),
                 ("ctl_takeover", {"machine": "ctl1", "t": 46.4}))
        assert check_trace(ctrace(*steps), suspicion_horizon_s=2.0) == []
        assert rules(check_trace(ctrace(*steps))) == [
            "suspicion-eventually-resolves"]
        # ... and the same at the end of a trace without a crash.
        assert check_trace(ctrace(*steps[:1], ("net_heal_all", {"t": 46.0})),
                           suspicion_horizon_s=2.0) == []

    def test_suspicion_older_than_the_horizon_still_dangles(self):
        violations = check_trace(ctrace(
            ("machine_suspected", {"machine": "m0", "t": 42.5}),
            ("ctl_crashed", {"machine": "ctl0", "acting": True, "t": 45.0}),
            ("machine_suspected", {"machine": "m1", "t": 45.5}),
            ("ctl_takeover", {"machine": "ctl1", "t": 48.0}),
        ), suspicion_horizon_s=2.0)
        # m0 had 2.5 s of probes; m1's detector (the new leader's, after
        # the take-over) ran on to the end of the trace, 2.5 s later.
        assert [(v.rule, v.seq) for v in violations] == [
            ("suspicion-eventually-resolves", 0),
            ("suspicion-eventually-resolves", 2)]

    def test_suspicion_resolved_by_answer(self):
        violations = check_trace(trace(
            ("machine_suspected", {"machine": "m0"}),
            ("machine_unsuspected", {"machine": "m0"}),
        ))
        assert violations == []

    def test_suspicion_resolved_by_declaration(self):
        violations = check_trace(trace(
            ("machine_suspected", {"machine": "m0"}),
            ("machine_declared", {"machine": "m0"}),
            ("machine_fenced", {"machine": "m0"}),
        ))
        assert violations == []


def ctrace(*specs):
    """Like :func:`trace` but honours an explicit ``t`` field, which the
    consensus lease rules compare against traced lease deadlines."""
    events = []
    for seq, spec in enumerate(specs):
        kind, fields = spec[0], dict(spec[1] if len(spec) > 1 else {})
        t = fields.pop("t", float(seq))
        known = {k: fields.pop(k, None) for k in ("db", "txn", "machine")}
        events.append(TraceEvent(seq=seq, t=t, kind=kind,
                                 extra=fields, **known))
    return events


def consensus_commit(txn=1, actor="ctl0", term=1, t=2.0, machines=("m0",)):
    """A consensus-mode commit: the decision carries actor and term."""
    steps = [("txn_begin", {"db": "kv", "txn": txn, "t": t})]
    for m in machines:
        steps += [("write_issued", {"db": "kv", "txn": txn, "machine": m,
                                    "t": t}),
                  ("write_acked", {"db": "kv", "txn": txn, "machine": m,
                                   "t": t}),
                  ("prepare", {"db": "kv", "txn": txn, "machine": m,
                               "t": t})]
    steps.append(("decision_logged", {"db": "kv", "txn": txn,
                                      "decision": "commit", "t": t,
                                      "actor": actor, "term": term}))
    for m in machines:
        steps.append(("commit_sent", {"db": "kv", "txn": txn,
                                      "machine": m, "t": t}))
    steps.append(("committed", {"db": "kv", "txn": txn, "t": t}))
    return steps


class TestConsensusRules:
    """The three control-plane rules the consensus tentpole added."""

    def test_clean_consensus_trace_passes(self):
        violations = check_trace(ctrace(
            ("ctl_leader_elected", {"machine": "ctl0", "term": 1,
                                    "lease_until": 3.0, "t": 1.0}),
            *consensus_commit(txn=1, actor="ctl0", term=1, t=2.0),
            ("ctl_lease_renewed", {"machine": "ctl0", "term": 1,
                                   "lease_until": 6.0, "t": 4.0}),
            *consensus_commit(txn=2, actor="ctl0", term=1, t=5.0),
            ("ctl_applied", {"machine": "ctl0", "index": 1,
                             "command": "leader_takeover", "digest": "aa",
                             "t": 5.5}),
            ("ctl_applied", {"machine": "ctl1", "index": 1,
                             "command": "leader_takeover", "digest": "aa",
                             "t": 5.6}),
            ("ctl_applied", {"machine": "ctl0", "index": 2,
                             "command": "decision", "digest": "bb",
                             "t": 5.7}),
            ("ctl_applied", {"machine": "ctl1", "index": 2,
                             "command": "decision", "digest": "bb",
                             "t": 5.8}),
        ), write_policy="conservative")
        assert violations == []

    def test_duplicate_term_is_flagged(self):
        violations = check_trace(ctrace(
            ("ctl_leader_elected", {"machine": "ctl0", "term": 1,
                                    "lease_until": 2.0, "t": 1.0}),
            ("ctl_leader_elected", {"machine": "ctl1", "term": 1,
                                    "lease_until": 6.0, "t": 5.0}),
        ))
        assert rules(violations) == ["single-leader-per-term"]

    def test_non_advancing_term_is_flagged(self):
        violations = check_trace(ctrace(
            ("ctl_leader_elected", {"machine": "ctl0", "term": 3,
                                    "lease_until": 2.0, "t": 1.0}),
            ("ctl_leader_elected", {"machine": "ctl1", "term": 2,
                                    "lease_until": 6.0, "t": 5.0}),
        ))
        assert rules(violations) == ["single-leader-per-term"]

    def test_election_under_standing_lease_is_flagged(self):
        violations = check_trace(ctrace(
            ("ctl_leader_elected", {"machine": "ctl0", "term": 1,
                                    "lease_until": 10.0, "t": 1.0}),
            ("ctl_leader_elected", {"machine": "ctl1", "term": 2,
                                    "lease_until": 12.0, "t": 5.0}),
        ))
        assert rules(violations) == ["single-leader-per-term"]

    def test_stepdown_releases_the_lease(self):
        violations = check_trace(ctrace(
            ("ctl_leader_elected", {"machine": "ctl0", "term": 1,
                                    "lease_until": 10.0, "t": 1.0}),
            ("ctl_stepdown", {"machine": "ctl0", "term": 1,
                              "reason": "test", "t": 2.0}),
            ("ctl_leader_elected", {"machine": "ctl1", "term": 2,
                                    "lease_until": 12.0, "t": 5.0}),
        ))
        assert violations == []

    def test_decision_without_any_lease_is_flagged(self):
        violations = check_trace(ctrace(
            *consensus_commit(txn=1, actor="ctl0", term=1, t=2.0),
        ), write_policy="conservative")
        assert rules(violations) == ["decision-only-under-valid-lease"]

    def test_decision_after_lease_expiry_is_flagged(self):
        violations = check_trace(ctrace(
            ("ctl_leader_elected", {"machine": "ctl0", "term": 1,
                                    "lease_until": 3.0, "t": 1.0}),
            *consensus_commit(txn=1, actor="ctl0", term=1, t=4.0),
        ), write_policy="conservative")
        assert rules(violations) == ["decision-only-under-valid-lease"]

    def test_renewal_extends_the_decision_window(self):
        violations = check_trace(ctrace(
            ("ctl_leader_elected", {"machine": "ctl0", "term": 1,
                                    "lease_until": 3.0, "t": 1.0}),
            ("ctl_lease_renewed", {"machine": "ctl0", "term": 1,
                                   "lease_until": 5.0, "t": 2.5}),
            *consensus_commit(txn=1, actor="ctl0", term=1, t=4.0),
        ), write_policy="conservative")
        assert violations == []

    def test_non_contiguous_apply_is_flagged(self):
        violations = check_trace(ctrace(
            ("ctl_applied", {"machine": "ctl0", "index": 1,
                             "command": "noop", "digest": "aa"}),
            ("ctl_applied", {"machine": "ctl0", "index": 3,
                             "command": "noop", "digest": "cc"}),
        ))
        assert rules(violations) == ["log-prefix-agreement"]

    def test_first_apply_must_be_entry_one(self):
        violations = check_trace(ctrace(
            ("ctl_applied", {"machine": "ctl0", "index": 4,
                             "command": "noop", "digest": "dd"}),
        ))
        assert rules(violations) == ["log-prefix-agreement"]

    def test_digest_divergence_is_flagged(self):
        violations = check_trace(ctrace(
            ("ctl_applied", {"machine": "ctl0", "index": 1,
                             "command": "decision", "digest": "aa"}),
            ("ctl_applied", {"machine": "ctl1", "index": 1,
                             "command": "decision", "digest": "zz"}),
        ))
        assert rules(violations) == ["log-prefix-agreement"]

    def test_truncated_trace_weakens_consensus_rules(self):
        # A ring-buffer overflow may have swallowed elections and early
        # applies: joins mid-stream must not be flagged.
        violations = check_trace(ctrace(
            *consensus_commit(txn=1, actor="ctl0", term=5, t=2.0),
            ("ctl_applied", {"machine": "ctl0", "index": 40,
                             "command": "decision", "digest": "aa"}),
            ("ctl_applied", {"machine": "ctl0", "index": 41,
                             "command": "noop", "digest": "bb"}),
        ), write_policy="conservative", dropped=100)
        assert "decision-only-under-valid-lease" not in rules(violations)
        assert "log-prefix-agreement" not in rules(violations)
