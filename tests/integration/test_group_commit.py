"""Group commit through ``Connection``: sharing, read-only branches, faults.

The cluster is the production profile of ``benchmarks/e2e`` in small:
fabric with jitter, 3-node consensus, admission, heartbeat detector, four
machines, one KV database at RF 3. Writers own one key each, so the only
thing they ever queue for is a machine's log disk — which is where
``Machine._force_log`` batches them.

* Sixteen concurrent writers share flushes (an unshared commit costs six:
  PREPARE and COMMIT on three replicas) and leave identical replicas.
* A branch that wrote nothing forces nothing.
* ``fail()`` and ``fence()`` in the middle of a hold that has followers:
  everybody waiting on that machine's log gets ``MachineFailedError``, the
  disk and the schedule are left clean, and every transaction the clients
  saw commit is on every remaining replica exactly once.
"""

import pytest

from repro.cluster.controller import TransactionAborted
from repro.cluster.config import production_profile
from repro.cluster.network import CONTROLLER
from repro.errors import MachineFailedError
from repro.sim import Simulator
from tests.conftest import (assert_no_violations, make_kv_cluster,
                            read_table)

WRITERS = 16
COMMITS_EACH = 30
SETTLE_S = 1.0          # bootstrap election
QUIET_S = 4.0           # covers every periodic background loop once


def build_cluster():
    sim = Simulator()
    controller = make_kv_cluster(sim, keys=WRITERS, machines=4, replicas=3,
                                 profile=production_profile(5))
    controller.start_failure_detector()
    sim.run(until=SETTLE_S)
    return sim, controller


def peak_pending(sim, seconds):
    """Highest ``sim.pending`` over the next ``seconds`` of sim time."""
    until, peak = sim.now + seconds, sim.pending
    while sim.peek() <= until:
        sim.step()
        peak = max(peak, sim.pending)
    return peak


def start_writers(sim, controller):
    """One closed-loop writer per key; returns the per-key commit counts
    (filled in as the run proceeds)."""
    committed = [0] * WRITERS

    def writer(key):
        conn = controller.connect("kv")
        while committed[key] < COMMITS_EACH:
            try:
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                   (key,))
                yield conn.commit()
                committed[key] += 1
            except TransactionAborted:
                yield sim.timeout(0.01)
        conn.close()

    for key in range(WRITERS):
        sim.process(writer(key))
    return committed


def total_flushes(controller):
    return sum(m.engine.wal.stats.flushes
               for m in controller.machines.values())


def assert_replicas_hold(controller, committed):
    replicas = controller.replica_map.replicas("kv")
    assert len(replicas) >= 2
    for name in replicas:
        assert read_table(controller, name, "kv",
                          "SELECT k, v FROM kv ORDER BY k") == [
            (key, committed[key]) for key in range(WRITERS)], name


@pytest.fixture(scope="module")
def fault_free():
    """The sixteen writers with nothing going wrong: (controller, commit
    counts, flushes per commit, peak ``sim.pending`` once they are done)."""
    sim, controller = build_cluster()
    before = total_flushes(controller)
    committed = start_writers(sim, controller)
    sim.run(until=sim.now + 5.0)
    per_commit = (total_flushes(controller) - before) / sum(committed)
    return controller, committed, per_commit, peak_pending(sim, QUIET_S)


def test_concurrent_writers_share_flushes(fault_free):
    controller, committed, per_commit, _ = fault_free
    assert committed == [COMMITS_EACH] * WRITERS
    assert per_commit < 4, f"{per_commit:.2f} flushes per commit"
    assert len(controller.replica_map.replicas("kv")) == 3
    assert_replicas_hold(controller, committed)
    assert_no_violations(controller)


def test_branch_that_wrote_nothing_forces_nothing():
    sim, controller = build_cluster()
    machines = controller.machines.values()

    def disk_work():
        return [(m.engine.wal.stats.flushes, m.disk.busy_time)
                for m in machines]

    def transaction(statement):
        conn = controller.connect("kv")
        yield conn.execute(statement, (3,))
        yield conn.commit()
        conn.close()

    read = "SELECT v FROM kv WHERE k = ?"
    sim.run_process(transaction(read))      # page the row in
    before = disk_work()
    sim.run_process(transaction(read))
    assert disk_work() == before

    sim.run_process(transaction("UPDATE kv SET v = v + 1 WHERE k = ?"))
    for machine, (flushes, _) in zip(machines, before):
        wrote = machine.name in controller.replica_map.replicas("kv")
        assert machine.engine.wal.stats.flushes - flushes == 2 * wrote


@pytest.mark.parametrize("fault", ["fail", "fence"])
def test_fault_in_the_middle_of_a_shared_flush(fault, fault_free):
    sim, controller = build_cluster()
    committed = start_writers(sim, controller)
    victim = controller.machines[controller.replica_map.replicas("kv")[1]]
    disk = victim.disk

    # The first instant a flush on the victim is mid-hold with followers.
    while not (victim._flush is not None and victim._flush.done is not None
               and disk.users and disk.users[0].granted_at < sim.now):
        sim.step()
    waiting = [proc for proc in victim._active
               if proc.name.endswith((":prepare", ":commit"))]
    assert len(waiting) >= 2
    if fault == "fail":
        controller.fail_machine(victim.name)
    else:
        # What the detector's declaration looks like: the machine is
        # unreachable, then fenced; the link comes back a second later.
        controller.fabric.cut(CONTROLLER, victim.name)
        controller.declare_dead(victim.name, reason="test")
        sim.run(until=sim.now + 1.0)
        controller.fabric.heal(CONTROLLER, victim.name)
    sim.run(until=sim.now + 5.0)

    for proc in waiting:
        assert not proc.ok and isinstance(proc.value, MachineFailedError), \
            f"{proc.name}: {proc.value!r}"
    # Nothing is left waiting on a flush nobody leads.
    assert victim._flush is None and victim.inflight == 0
    assert not disk.users and not disk.queue
    assert committed == [COMMITS_EACH] * WRITERS
    assert peak_pending(sim, QUIET_S) <= fault_free[3]
    # Decided transactions committed on the survivors — and on the
    # fenced machine once it has caught up and rejoined, none twice.
    expected = 2 if fault == "fail" else 3
    assert len(controller.replica_map.replicas("kv")) == expected
    assert_replicas_hold(controller, committed)
    assert_no_violations(controller)
