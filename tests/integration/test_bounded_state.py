"""Per-transaction machine state follows the open transactions, not the
commits: the closed-transaction watermark (DESIGN §4q).

Every request carries ``low``, the coordinator's smallest open
transaction id; ``Machine.close_below`` drops finished tombstones, dedup
entries and the WAL prefix below it. These tests run a
``kv_prod_write``-shaped closed loop for N and for 3N commits and hold
every table to the *same* bound, then poke at the three ways the
watermark could be unsafe: a late duplicate of a closed transaction, a
fresh statement under a closed id, and a rejoin whose skip set lives in
the part of a WAL its peers have long checkpointed. The same two runs
hold the latency histograms to one size (DESIGN §4r).
"""

import pytest

from repro.analysis.invariants import check_bounds, state_sizes
from repro.cluster import ClusterConfig, replication_log
from repro.cluster.controller import TransactionAborted
from repro.cluster.config import production_profile
from repro.cluster.network import CONTROLLER, NetworkConfig
from repro.engine.wal import RecordType
from repro.cluster.machine import Machine
from repro.errors import DeadlockError
from repro.harness import soaks
from repro.harness.scenario import run_scenario
from repro.sla.model import Sla
from repro.workloads.microbench import KV_DDL
from tests.conftest import (assert_no_violations, make_cluster,
                            make_kv_cluster, read_table)
from tests.integration.test_delta_recovery import fingerprint

MACHINES, DATABASES, CLIENTS_PER_DB, REPLICAS, KEYS = 4, 4, 4, 3, 400
CLIENTS = DATABASES * CLIENTS_PER_DB
#: The per-transaction tables of a machine (``state_sizes`` reports each
#: at its largest over the machines).
TABLES = ("wal", "transactions", "dedup", "tails", "write_counts")
#: Entries any of them may hold, however long the run: a machine serves
#: ``REPLICAS`` in ``MACHINES`` of the clients, each with one transaction
#: open there and at most one closed that it has not heard about yet;
#: the WAL holds the half-dozen records of each, and as much again before
#: a chunk is dropped. Measured: 12 transactions, 67 records, flat.
BOUND = 2 * CLIENTS * REPLICAS
SELECT = "SELECT v FROM kv WHERE k = ?"
UPDATE = "UPDATE kv SET v = v + 1 WHERE k = ?"


def wait(sim, event):
    while not event.triggered:
        sim.step()


def build(sim, profile):
    controller = make_cluster(sim, machines=MACHINES, profile=profile,
                              lock_wait_timeout_s=5.0)
    for i in range(DATABASES):
        controller.create_database(
            f"kv{i}", KV_DDL, replicas=REPLICAS,
            sla=Sla(min_throughput_tps=2000.0, max_rejected_fraction=0.05))
        controller.bulk_load(f"kv{i}", "kv", [(k, 0) for k in range(KEYS)])
    if controller.fabric.enabled:
        controller.start_failure_detector()
    return controller


def run_clients(sim, controller, commits):
    """2 SELECT + 2 UPDATE + commit per transaction, each client on its
    own key stripe, until ``commits`` transactions committed in all.
    Returns the largest size any machine's tables reached on the way
    (sampled every 64 kernel steps, and at the end)."""
    done = [0]

    def client(db, stripe):
        yield sim.timeout(1.0 + 0.001 * stripe)  # let the election settle
        conn = controller.connect(db)
        step = 0
        while done[0] < commits:
            step += 1
            keys = [(step * 7 + j) % (KEYS // CLIENTS_PER_DB)
                    * CLIENTS_PER_DB + stripe for j in range(4)]
            for key in keys[:2]:
                yield conn.execute(SELECT, (key,))
            for key in keys[2:]:
                yield conn.execute(UPDATE, (key,))
            yield conn.commit()
            done[0] += 1
            yield sim.timeout(0.01)
        conn.close()

    procs = [sim.process(client(f"kv{i}", c))
             for i in range(DATABASES) for c in range(CLIENTS_PER_DB)]
    peak = dict.fromkeys(TABLES, 0)
    while not all(proc.triggered for proc in procs):
        for _ in range(min(64, sim.pending)):
            sim.step()
        sizes = state_sizes(controller)
        peak = {table: max(peak[table], sizes[table]) for table in TABLES}
    assert all(proc.ok for proc in procs)
    return peak


PROFILES = {"production": production_profile(5),
            "default": ClusterConfig(replication_factor=REPLICAS)}


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_tables_hold_the_same_bound_after_n_and_3n_commits(sim, profile):
    controller = build(sim, PROFILES[profile])
    metrics = controller.metrics
    logged, observed, histograms = [], [], []
    for commits in (300, 900):
        peak = run_clients(sim, controller, commits)
        assert max(peak.values()) <= BOUND, (commits, peak)
        logged.append(sum(m.engine.wal.stats.records
                          for m in controller.machines.values()))
        observed.append(sum(h.count for group in (
            metrics.phase_latencies, metrics.link_latencies,
            metrics.db_latencies) for h in group.values()))
        sizes = state_sizes(controller)
        histograms.append((sizes["metrics_histograms"],
                           sizes["metrics_histogram_buckets"]))
    # ... while the log itself kept growing: the bound is not vacuous.
    assert logged[1] > 3 * logged[0] > 30 * BOUND
    # The measurement plane (DESIGN §4r): as many histograms after 3N
    # commits as after N, the largest still the three octaves its phase
    # spans (a few buckets of fresh tail), on three times the samples.
    assert observed[1] > 3 * observed[0] > 10 * 300
    assert histograms[1][0] == histograms[0][0]
    assert histograms[0][1] <= histograms[1][1] <= histograms[0][1] + 16 <= 112
    assert check_bounds(controller) == []
    assert controller.txns.rpc.open == {}

    # Quiescence plus one more request per machine: a write on every
    # database reaches every machine, stamped with the id of the oldest
    # of these four transactions — below which nothing is left.
    conns = [controller.connect(f"kv{i}") for i in range(DATABASES)]
    for conn in conns:
        wait(sim, conn.execute(UPDATE, (0,)))
    first = min(conn.txn.txn_id for conn in conns)
    assert controller.txns.rpc.low == first
    for machine in controller.machines.values():
        assert machine.closed_below == first
        assert all(not txn.finished and txn.txn_id >= first
                   for txn in machine.engine.transactions.values())
        assert set(machine._rpc_cache) <= set(machine.engine.transactions)
        # The log starts at the oldest of them (give or take a chunk).
        assert len(machine.engine.wal) <= 2 * 4 * len(conns)
    for conn in conns:
        wait(sim, conn.commit())
    assert controller.txns.rpc.low == controller.txns.rpc.next_txn_id
    assert_no_violations(controller)


def closed_transaction(sim, controller):
    """Commit one write transaction, then another so that every replica
    hears a watermark above the first; returns (txn id, a message id of
    it, the replicas)."""
    conn = controller.connect("kv")
    wait(sim, conn.execute(UPDATE, (1,)))
    txn_id = conn.txn.txn_id
    replicas = controller.replica_map.replicas("kv")
    first = controller.machines[replicas[0]]
    msg_id = next(iter(first._rpc_cache[txn_id]))
    wait(sim, conn.commit())
    wait(sim, conn.execute(UPDATE, (2,)))
    wait(sim, conn.commit())
    for name in replicas:
        machine = controller.machines[name]
        assert machine.closed_below > txn_id
        assert txn_id not in machine.engine.transactions
        assert txn_id not in machine._rpc_cache
    return txn_id, msg_id, replicas


def test_a_late_duplicate_of_a_closed_transaction_is_refused(sim):
    controller = make_kv_cluster(
        sim, network=NetworkConfig(enabled=True, latency_s=0.001, seed=1))
    txn_id, msg_id, replicas = closed_transaction(sim, controller)
    machine = controller.machines[replicas[0]]
    locks = machine.engine.locks
    acquired = locks.stats.acquired
    # The retransmission the FIFO link rules out: same message id, after
    # the watermark passed. Its dedup entry is gone, so it would run
    # again — and must not.
    for attempt in (msg_id, msg_id + 10_000):
        proc = machine.submit_rpc(
            attempt, txn_id,
            lambda: machine.write_body(txn_id, "kv", UPDATE, (1,), 1.0))
        proc.defused = True
        wait(sim, proc)
        assert not proc.ok and isinstance(proc.value, DeadlockError)
        assert txn_id not in machine.engine.transactions
        assert locks.held(txn_id) == {}
    assert locks.stats.acquired == acquired
    # PREPARE refuses, COMMIT and ABORT stay idempotent.
    for body, ok in ((machine.prepare_body(txn_id, 1), False),
                     (machine.commit_body(txn_id), True),
                     (machine.abort_body(txn_id), True)):
        proc = machine.submit(txn_id, body)
        proc.defused = True
        wait(sim, proc)
        assert proc.ok is ok
    for name in replicas:
        assert read_table(controller, name, "kv",
                          "SELECT v FROM kv WHERE k = 1") == [(1,)]


def test_an_orphan_that_finishes_below_the_watermark_is_dropped_then(sim):
    controller = make_kv_cluster(sim)
    machine = controller.machines[controller.replica_map.replicas("kv")[0]]
    machine.close_below(50)
    # A branch still running when its coordinator gave up on it.
    orphan = machine.engine.begin(60)
    machine.close_below(100)
    assert machine.engine.transactions == {60: orphan}
    machine.abort_local(60)
    assert machine.engine.transactions == {}
    machine.close_below(70)          # monotone
    assert machine.closed_below == 100


def test_rejoin_after_peers_checkpointed_past_it_applies_nothing_twice(
        sim, monkeypatch):
    """PR 15's scenario with the checkpoint running: the victim is
    fenced while a COMMIT it already applied waits behind a log force;
    its peers go on, close that transaction and checkpoint far past it;
    the victim keeps every record since it last heard the watermark, so
    its skip set still names the commit."""
    writers = 8
    monkeypatch.setattr(replication_log, "REPLICATION_LOG_RETAIN", 100_000)
    controller = make_kv_cluster(
        sim, machines=4, keys=writers, heartbeat_interval_s=0.2,
        record_history=True,
        network=NetworkConfig(enabled=True, latency_s=0.001, seed=1))
    controller.start_failure_detector()
    survivor, victim = controller.replica_map.replicas("kv")
    wal = controller.machines[victim].engine.wal
    disk = controller.machines[victim].disk
    committed = [0] * writers

    def writer(key):
        conn = controller.connect("kv")
        while sim.now < 14.0:
            try:
                yield conn.execute(UPDATE, (key,))
                yield conn.commit()
                committed[key] += 1
            except TransactionAborted:
                yield sim.timeout(0.05)

    for key in range(writers):
        sim.process(writer(key))

    def commits_awaiting_force():
        if not disk.users or disk.users[0].granted_at == sim.now:
            return set()
        return {r.txn_id for r in wal.records_since(wal.flushed_lsn)
                if r.kind is RecordType.COMMIT}

    while not commits_awaiting_force() and sim.now < 1.0:
        sim.step()
    unacked = commits_awaiting_force()
    assert unacked, "no COMMIT ever waited behind a flush"
    controller.fabric.cut(CONTROLLER, victim)
    controller.declare_dead(victim, reason="test")
    frozen_at = controller.machines[victim].closed_below
    # The unacked commits stay open while their COMMIT retransmits to
    # the silent victim (eight retries, then one redelivery round that
    # finds it fenced): the watermark waits that long, then moves on.
    sim.run(until=sim.now + 12.0)
    # The survivor heard the watermark pass the unacked commits and
    # dropped their records; the fenced victim heard nothing.
    peer = controller.machines[survivor]
    assert peer.closed_below > max(unacked)
    assert peer.engine.wal.start_lsn > 1
    assert not unacked & {r.txn_id for r in peer.engine.wal.all_records()}
    assert controller.machines[victim].closed_below == frozen_at
    assert unacked <= controller.machines[victim].committed_txn_ids()
    controller.fabric.heal(CONTROLLER, victim)
    sim.run(until=30.0)

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
    assert check_bounds(controller) == []
    sizes = state_sizes(controller)
    assert sizes["transactions"] <= 4 * writers and sizes["open"] == 0


def test_a_takeover_abandons_what_the_old_coordinator_had_open(sim):
    """A client that dies with its connection never finishes its
    transaction; the take-over that settles it machine-side also takes
    it out of the open set, or the watermark would stop for good."""
    controller = make_kv_cluster(
        sim, network=NetworkConfig(enabled=True, latency_s=0.001, seed=1))
    plane = controller.consensus
    conn = controller.connect("kv")
    wait(sim, conn.execute(UPDATE, (3,)))
    stuck = conn.txn.txn_id
    rpc = controller.txns.rpc
    assert rpc.low == stuck and stuck in rpc.open
    # The controller restarts: its take-over runs inside the repair.
    plane.crash_controller(plane.acting)
    plane.repair_controller(plane.acting)
    takeover, = controller.trace.events(kind="ctl_takeover")
    assert takeover.extra["aborted"] == [stuck]
    assert rpc.open == {} and rpc.low == rpc.next_txn_id
    # The orphan's own clean-up (its ABORTs, its release) passes the
    # abandoned id by.
    conn.close()
    sim.run(until=sim.now + 1.0)
    assert rpc.open == {}
    # The next transactions carry a watermark above it.
    fresh = controller.connect("kv")
    for key in (3, 4):
        wait(sim, fresh.execute(UPDATE, (key,)))
        wait(sim, fresh.commit())
    for name in controller.replica_map.replicas("kv"):
        machine = controller.machines[name]
        assert stuck not in machine.engine.transactions
        assert read_table(controller, name, "kv",
                          "SELECT v FROM kv WHERE k = 3") == [(1,)]


def test_the_watermark_waits_for_the_slowest_open_transaction(
        sim, monkeypatch):
    """The audit's tombstone bound is what the coordinator knows: every
    id issued since the oldest open transaction began (DESIGN §4q "What
    waits"). One transaction left open while 200 others commit keeps
    200 finished tombstones on each replica — the shape the stampede's
    drain leaves at its audit — and that is within bounds; a machine
    that stops hearing the watermark is not."""
    controller = make_kv_cluster(sim)
    slow = controller.connect("kv")
    wait(sim, slow.execute(SELECT, (0,)))  # open, then the client thinks
    fast = controller.connect("kv")
    for i in range(200):
        wait(sim, fast.execute(UPDATE, (1 + i % 19,)))
        wait(sim, fast.commit())
    rpc = controller.txns.rpc
    assert rpc.low == slow.txn.txn_id
    assert state_sizes(controller)["transactions"] > 2 * 64
    assert check_bounds(controller) == []
    # The slow one closes; the next request carries the new watermark.
    wait(sim, slow.commit())
    wait(sim, fast.execute(UPDATE, (1,)))
    wait(sim, fast.commit())
    assert state_sizes(controller)["transactions"] <= 2
    # Not vacuous: tombstones a deaf machine keeps are caught.
    monkeypatch.setattr(Machine, "close_below", lambda self, low: None)
    for i in range(200):
        wait(sim, fast.execute(UPDATE, (1 + i % 19,)))
        wait(sim, fast.commit())
    assert [v.rule for v in check_bounds(controller)] == [
        "state-bounded-after-quiescence"]


def test_the_stampede_ci_audit_holds_its_bounds():
    """``stampede --duration 10 --seed 3 --stampede-mtbf 16``'s contrast
    arm: its 60 hot clients never stop, so the audit after the drain
    meets ~60 open transactions, the oldest in a lock wait, and each
    replica remembers every transaction issued since that one began —
    more than the 128 a constant allowed."""
    run = run_scenario(soaks.stampede(
        hot_sla=False, duration_s=30.0, ramp_at_s=10.0, drain_s=10.0,
        mtbf_s=16.0, seed=3))
    controller = run.controller
    assert state_sizes(controller)["transactions"] > 2 * 64
    assert check_bounds(controller) == []
