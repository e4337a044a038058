"""Property test: the group force of ``Machine._force_log``.

One machine, no cluster. Hypothesis draws a schedule: transactions that
PREPARE at a random instant and COMMIT a random gap after their PREPARE
returned (so forces overlap, coincide and sometimes run alone), and page
reads that hold the same disk for random lengths. Every force goes through
``prepare_body`` / ``commit_body``; the test only watches — a spy around
``_force_log`` notes each force's LSN, append and return instants, one
around ``wal.flush`` each flush's instant, horizon and disk holder.

What must hold for every force, whatever the schedule:

* **durable at return** — ``wal.flushed_lsn`` covers it, and the flush that
  first covered it began a full ``log_flush_ms`` ago; the log is flushed
  only by the request that was granted the disk in that instant;
* **LSN order** — forces return in LSN order (ties in time allowed);
* **bounded wait** — return − append ≤ 2 × ``log_flush_ms`` + the time page
  reads held the disk in between, however many committers there are;
* **never more work than one hold per force** — and when no two forces
  overlap, exactly the schedule of the per-committer model it replaced
  (``disk.use(log_flush_ms)`` per force, inlined below as the reference).

``test_mutants_are_caught`` breaks the leader/follower rule three ways and
requires Hypothesis to find a schedule on which the properties fail.
"""

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.cluster.config import MachineConfig
from repro.cluster.machine import Machine, _LogFlush
from repro.sim import Simulator

TICK_S = 1e-4           # schedule grid: forces often meet in one instant
EPS = 1e-9

ticks = st.integers(min_value=0, max_value=60)
schedules = st.tuples(
    # (PREPARE at, COMMIT this long after PREPARE returned)
    st.lists(st.tuples(ticks, st.integers(min_value=0, max_value=30)),
             min_size=1, max_size=8),
    # (page read at, for) — up to 2.5 flushes long
    st.lists(st.tuples(ticks, st.integers(min_value=1, max_value=20)),
             max_size=6))


class PerCommitter(Machine):
    """The reference: every force is its own hold of the disk."""

    def _force_log(self, lsn):
        yield from self.disk.use(self.config.engine.log_flush_ms / 1e3)


def mutant(mutation):
    """``Machine`` with one rule of ``_force_log`` broken."""

    class Mutant(Machine):
        def _force_log(self, lsn):
            while self._flush is not None:
                flush = self._flush
                if flush.done is None:
                    flush.done = self.sim.event()
                yield flush.done
                if flush.covered >= lsn or mutation == "ack-mid-hold-arrival":
                    return
            flush = self._flush = _LogFlush()
            request = self.disk.request()
            wal = self.engine.wal
            try:
                if mutation == "flush-before-grant":
                    wal.flush()
                    covered = wal.flushed_lsn
                    yield request
                else:
                    yield request
                    wal.flush()
                    covered = wal.flushed_lsn
                if mutation == "wake-before-hold-ends":
                    flush.covered = covered
                    if flush.done is not None:
                        flush.done.succeed()
                        flush.done = None
                yield self.sim.timeout(self.config.engine.log_flush_ms / 1e3)
                flush.covered = covered
            finally:
                self.disk.release(request)
                self._flush = None
                if flush.done is not None:
                    flush.done.succeed()

    return Mutant


def run_schedule(machine_cls, schedule):
    """Run ``schedule`` on a fresh machine; returns what the spies saw."""
    txns, reads = schedule
    sim = Simulator()
    machine = machine_cls(sim, "m", MachineConfig())
    engine, wal, disk = machine.engine, machine.engine.wal, machine.disk
    engine.create_database_from_ddl(
        "db", ["CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"])
    seen = {"forces": [], "flushes": [], "reads": [], "machine": machine,
            "forces_due": 2 * len(txns),
            "flush_s": machine.config.engine.log_flush_ms / 1e3}

    force_log, flush = machine._force_log, wal.flush

    def spy_force(lsn):
        force = {"lsn": lsn, "append": sim.now}
        yield from force_log(lsn)
        force.update(ret=sim.now, flushed_lsn=wal.flushed_lsn)
        seen["forces"].append(force)

    def spy_flush():
        flush()
        seen["flushes"].append({
            "at": sim.now, "horizon": wal.flushed_lsn,
            "holders_granted_at": [r.granted_at for r in disk.users]})

    machine._force_log, wal.flush = spy_force, spy_flush
    flushes_before = wal.stats.flushes

    def committer(txn_id, at, gap):
        yield sim.timeout(at * TICK_S)
        txn = engine.begin(txn_id)
        engine.execute_sync(txn, "db", "INSERT INTO kv VALUES (?, ?)",
                            (txn_id, 0))
        yield machine.submit(txn_id, machine.prepare_body(txn_id, 0), "prepare")
        yield sim.timeout(gap * TICK_S)
        yield machine.submit(txn_id, machine.commit_body(txn_id), "commit")

    def page_read(at, ticks_held):
        yield sim.timeout(at * TICK_S)
        request = disk.request()
        yield request
        granted = sim.now
        yield sim.timeout(ticks_held * TICK_S)
        disk.release(request)
        seen["reads"].append((granted, sim.now))

    for txn_id, (at, gap) in enumerate(txns, start=1):
        sim.process(committer(txn_id, at, gap))
    for at, ticks_held in reads:
        sim.process(page_read(at, ticks_held))
    sim.run()
    seen["wal_flushes"] = wal.stats.flushes - flushes_before
    return seen


def check(seen):
    """Assert the properties of the module docstring on one run."""
    forces, flush_s = seen["forces"], seen["flush_s"]
    machine = seen["machine"]
    assert len(forces) == seen["forces_due"], "a force never returned"
    for flush in seen["flushes"]:
        assert flush["holders_granted_at"] == [flush["at"]], \
            f"log flushed by somebody not just granted the disk: {flush}"
    for force in forces:
        assert force["flushed_lsn"] >= force["lsn"], \
            f"acknowledged before any flush covered it: {force}"
        covering = next(fl for fl in seen["flushes"]
                        if fl["horizon"] >= force["lsn"])
        assert force["ret"] >= covering["at"] + flush_s - EPS, \
            f"acknowledged before its flush finished: {force} {covering}"
        others = sum(max(0.0, min(end, force["ret"])
                         - max(start, force["append"]))
                     for start, end in seen["reads"])
        assert force["ret"] - force["append"] <= 2 * flush_s + others + EPS, \
            f"waited for more than two flushes: {force}"
    by_lsn = sorted(forces, key=lambda f: f["lsn"])
    assert all(a["ret"] <= b["ret"] for a, b in zip(by_lsn, by_lsn[1:])), \
        f"returned out of LSN order: {by_lsn}"
    assert seen["wal_flushes"] <= len(forces)
    assert machine._flush is None and machine.inflight == 0
    assert not machine.disk.users and not machine.disk.queue


def breaks(machine_cls, schedule):
    try:
        check(run_schedule(machine_cls, schedule))
    except AssertionError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(schedules)
def test_every_force_is_durable_ordered_and_bounded(schedule):
    seen = run_schedule(Machine, schedule)
    check(seen)

    reference = run_schedule(PerCommitter, schedule)
    assert len(reference["forces"]) == len(seen["forces"])
    in_turn = sorted(reference["forces"], key=lambda f: f["append"])
    if all(a["ret"] < b["append"] for a, b in zip(in_turn, in_turn[1:])):
        # No force ever met another: nothing to share, nothing changed.
        assert seen["wal_flushes"] == len(seen["forces"])
        assert ([(f["lsn"], f["append"], f["ret"]) for f in seen["forces"]]
                == [(f["lsn"], f["append"], f["ret"])
                    for f in reference["forces"]])
        assert seen["reads"] == reference["reads"]


@pytest.mark.parametrize("mutation", ["flush-before-grant",
                                      "ack-mid-hold-arrival",
                                      "wake-before-hold-ends"])
def test_mutants_are_caught(mutation):
    broken = mutant(mutation)
    schedule = find(schedules, lambda s: breaks(broken, s),
                    settings=settings(max_examples=2000, deadline=None,
                                      derandomize=True, database=None))
    assert not breaks(mutant(None), schedule)   # the copy itself is sound
    assert not breaks(Machine, schedule)
