"""``ReplicationLog`` on its own: no controller anywhere in this file.

The role is built from a simulator, a config, a replica map and a tracer
— the seam ROADMAP item 2's checkpoint horizon and the parked log-shipped
features land on — so its rules are stated against exactly that.
"""

import pytest

from repro.analysis.trace import Tracer
from repro.cluster import replication_log
from repro.cluster.config import ClusterConfig, MachineConfig
from repro.cluster.machine import Machine
from repro.cluster.replica_map import ReplicaMap
from repro.cluster.replication_log import CopyState, ReplicationLog
from repro.sim import Simulator

DDL = ["CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"]
WRITE = [("UPDATE kv SET v = v + 1 WHERE k = ?", (1,))]


def make_log(sim=None, **config):
    sim = sim or Simulator()
    replica_map = ReplicaMap()
    replica_map.add_database("db", ["m1", "m2"])
    trace = Tracer(capacity=1024, clock=lambda: sim.now)
    return ReplicationLog(sim, ClusterConfig(**config), replica_map, trace)


def make_machine(sim, name, rows=3):
    machine = Machine(sim, name, MachineConfig())
    machine.engine.create_database_from_ddl("db", DDL)
    machine.engine.load_table_rows("db", "kv", [(k, 0) for k in range(rows)])
    return machine


def value(machine, key=1):
    txn = machine.engine.begin()
    try:
        return machine.engine.execute_sync(
            txn, "db", "SELECT v FROM kv WHERE k = ?", (key,)).scalar()
    finally:
        machine.engine.commit(txn)


class TestCommitStream:
    def test_nothing_is_resident_before_the_first_touch(self):
        log = make_log()
        assert log.db_logs == {} and log.replica_lsns == {}

    def test_append_assigns_consecutive_lsns_per_database(self):
        log = make_log()
        log.replica_map.add_database("other", ["m1"])
        assert [log.append("db", t, WRITE) for t in (7, 8, 9)] == [1, 2, 3]
        assert log.append("other", 10, WRITE) == 1
        assert log.log("db").since(1) == [(2, (8, WRITE)), (3, (9, WRITE))]

    def test_first_append_starts_every_current_replica_at_lsn_zero(self):
        log = make_log()
        log.append("db", 7, WRITE)
        assert log.replica_lsns == {"db": {"m1": 0, "m2": 0}}

    def test_contiguous_acks_advance_and_a_gap_drops_the_replica(self):
        log = make_log()
        for txn_id in (7, 8, 9):
            log.append("db", txn_id, WRITE)
        log.advance("db", "m1", 1)
        log.advance("db", "m1", 2)
        log.advance("db", "m1", 2)          # a redelivered ack: no-op
        log.advance("db", "m2", 1)
        log.advance("db", "m2", 3)          # m2 never acked LSN 2
        assert log.replica_lsns["db"] == {"m1": 2}
        log.advance("db", "m2", 4)          # untracked stays untracked
        log.advance("nope", "m1", 1)        # unknown database: ignored
        assert log.replica_lsns["db"] == {"m1": 2}

    def test_caught_up_replica_is_tracked_from_its_handoff_lsn(self):
        log = make_log()
        log.append("db", 7, WRITE)
        log.note_caught_up("db", "m3", 1)
        log.append("db", 8, WRITE)
        log.advance("db", "m3", 2)
        assert log.replica_lsns["db"]["m3"] == 2


class TestHoldings:
    def test_declared_machine_keeps_its_lsns_a_failed_one_does_not(self):
        log = make_log()
        log.append("db", 7, WRITE)
        log.advance("db", "m1", 1)
        log.machine_left("m1", ["db"], keep_holdings=True)
        log.machine_left("m2", ["db"], keep_holdings=False)
        assert log._stale_holdings == {"m1": {"db": 1}}
        assert log.replica_lsns["db"] == {}

    def test_a_database_that_never_committed_is_held_at_lsn_zero(self):
        log = make_log()
        log.machine_left("m1", ["db"], keep_holdings=True)
        assert log._stale_holdings == {"m1": {"db": 0}}
        assert log.replica_lsns == {}       # still nothing materialised

    def test_a_replica_dropped_for_a_gap_holds_nothing(self):
        log = make_log()
        log.append("db", 7, WRITE)
        log.append("db", 8, WRITE)
        log.advance("db", "m1", 2)          # gap: dropped from tracking
        log.machine_left("m1", ["db"], keep_holdings=True)
        assert "m1" not in log._stale_holdings


class TestRejoinEligibility:
    def test_an_absent_log_covers_lsn_zero(self):
        sim = Simulator()
        log = make_log(sim)
        log.replica_map.remove_machine("m1")
        log.machine_left("m1", ["db"], keep_holdings=True)
        holdings, eligible = log.rejoin_eligibility(
            "m1", make_machine(sim, "m1"), {})
        assert holdings == eligible == {"db": 0}
        assert log._stale_holdings == {}    # consumed

    @pytest.mark.parametrize("later_commits, covered", [(2, True),
                                                        (3, False)])
    def test_eligible_while_the_retained_tail_covers_the_suffix(
            self, later_commits, covered, monkeypatch):
        monkeypatch.setattr(replication_log, "REPLICATION_LOG_RETAIN", 2)
        sim = Simulator()
        log = make_log(sim)
        machine = make_machine(sim, "m1")
        log.append("db", 7, WRITE)
        log.advance("db", "m1", 1)
        log.replica_map.remove_machine("m1")
        log.machine_left("m1", ["db"], keep_holdings=True)
        for txn_id in range(later_commits):
            log.append("db", 8 + txn_id, WRITE)   # retention keeps two
        holdings, eligible = log.rejoin_eligibility("m1", machine, {})
        assert holdings == {"db": 1}
        assert eligible == ({"db": 1} if covered else {})

    @pytest.mark.parametrize("why", ["dead", "wiped", "copying", "dropped",
                                     "replicated"])
    def test_everything_else_that_makes_a_holding_stale(self, why):
        sim = Simulator()
        log = make_log(sim)
        machine = make_machine(sim, "m1")
        copying = ()
        if why == "dead":
            machine.fail()
        elif why == "wiped":
            machine.engine.drop_database("db")
        elif why == "copying":
            copying = ("db",)
        log.replica_map.remove_machine("m1")
        log.machine_left("m1", ["db"], keep_holdings=True)
        if why == "dropped":
            log.replica_map.drop_database("db")
        elif why == "replicated":
            log.replica_map.add_replica("db", "m3")   # factor restored
        holdings, eligible = log.rejoin_eligibility(
            "m1", machine, {db: None for db in copying})
        assert holdings == {"db": 0} and eligible == {}


class TestPaging:
    def test_paged_out_log_keeps_its_position_and_says_so(self, monkeypatch):
        monkeypatch.setattr(replication_log, "RESIDENT_TENANT_LOGS", 2)
        log = make_log()
        for db in ("a", "b", "c"):
            log.replica_map.add_database(db, ["m1"])
        log.append("a", 1, WRITE)
        log.append("b", 2, WRITE)
        log.append("a", 3, WRITE)            # a is now hotter than b
        log.append("c", 4, WRITE)            # third tenant: b pages out
        assert len(log.log("b")) == 0 and len(log.log("a")) == 2
        assert not log.log("b").covers(0) and log.log("b").covers(1)
        assert log.append("b", 5, WRITE) == 2    # LSNs carry on
        paged = log.trace.events(kind="log_paged_out")
        assert [(e.db, e.extra["dropped"]) for e in paged] == [
            ("b", 1), ("a", 2)]

    def test_drop_and_clear_forget_everything_about_a_database(self):
        log = make_log()
        log.append("db", 7, WRITE)
        log.writer_opened("db", 8)
        log.machine_left("m1", ["db"], keep_holdings=True)
        log.drop_database("db")
        assert (log.db_logs, log.replica_lsns, log._open_writers,
                dict(log._log_lru)) == ({}, {}, {}, {})
        log.clear()
        assert log._stale_holdings == {}


class TestDeltaHandoff:
    def test_replay_then_drain_waits_for_open_writers(self):
        """Replays the retained suffix, flips the copy state to rejecting,
        and hands off only once the last open writer has finished — a
        commit that lands during the drain is replayed too."""
        sim = Simulator()
        log = make_log(sim)
        target = make_machine(sim, "m3")
        for txn_id in (7, 8):
            log.append("db", txn_id, WRITE)
        log.writer_opened("db", 9)
        state = CopyState("db", "m3")

        def straggler():
            yield sim.timeout(0.02)
            assert state.copying_all        # the reject window is open
            log.append("db", 9, WRITE)
            log.writer_finished("db", 9)

        sim.process(straggler())
        proc = sim.process(log.replay_and_handoff("db", target, 0, state))
        sim.run()
        applied, reject_s, replayed = proc.value
        assert (applied, replayed) == (3, 3) and value(target) == 3
        assert reject_s >= 0.02
        kinds = [e.kind for e in log.trace.events()]
        assert kinds == ["delta_drain_start", "delta_handoff"]

    def test_rejoin_replay_skips_commits_already_in_the_machines_wal(self):
        sim = Simulator()
        log = make_log(sim)
        machine = make_machine(sim, "m1")
        log.append("db", 7, WRITE)
        log.advance("db", "m1", 1)
        log.append("db", 8, WRITE)
        log.append("db", 9, WRITE)
        # Txn 8 was applied on m1 but its ack never arrived.
        sim.process(machine.apply_log_body("db", [(2, (8, WRITE))]))
        sim.run()
        log.replica_map.remove_machine("m1")
        log.machine_left("m1", ["db"], keep_holdings=True)
        _, eligible = log.rejoin_eligibility("m1", machine, {})
        proc = sim.process(log.replay_and_handoff(
            "db", machine, eligible["db"], CopyState("db", "m1"),
            skip_txns=machine.committed_txn_ids()))
        sim.run()
        assert proc.value[0] == 3 and proc.value[2] == 1
        assert value(machine) == 2      # 8 once, 9 once; 7 is before LSN 1
        log.note_caught_up("db", "m1", proc.value[0])
        assert log.replica_lsns["db"]["m1"] == 3
