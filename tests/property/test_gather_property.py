"""Property test: ``_Gather`` against the generator waits it replaced.

``repro.cluster.controller._Gather`` is one ``Event`` subclass whose
per-branch callback classifies, traces and counts down at the branch's own
settle instant; ``tests/oracles/generator_gather.py`` holds what the
coordinator ran before (``fanout`` with its relay events and ``AllOf``,
the conservative and aggressive write loops, the ``_watch_writes``
process, PREPARE's reading of a ``BranchOutcome``). Hypothesis scripts
one broadcast — one to four branches, each an ack, a ``MachineFailedError``
(*dead*), an ``RPCTimeoutError`` (*silent*), a ``DeadlockError`` or an SQL
error (*refused*), an error from a machine declared dead half-way through
(*moot*), or a branch that never settles — as a conservative write
(``need="all"``), an aggressive write (``need="first"``) or a PREPARE, and
runs it in two sims through the real coordinator entry points
(``Connection.execute`` / ``Connection.commit`` on production), with
``RpcLayer.send`` replaced by the script.

Both must agree on what the waiter got (result, or the type raised), the
instant it resumed, whether the transaction ended up poisoned, and which
machines were traced as acked / failed. The in-order walks were *wrong
about time*, so agreement is not asked where the script makes that show
(each carve-out below names the old behaviour; production is then held to
what is right instead):

* trace **instants** — the walk traced a branch when it reached it;
* conservative write with an **SQL error**: the old loop raised on
  reaching it, not waiting for the later branches (and kept a
  ``DeadlockError`` for the end) — production waits for the complete set;
* PREPARE with **different fatal errors**: the old loop reported the first
  in issue order, production the first in time;
* a branch **queued behind one that never settles** (or behind an early
  raise) was never traced, and never poisoned anything;
* a **late branch on a machine declared dead** poisoned the transaction
  (``_watch_writes`` had no moot check), and a refusal after the
  statement already failed with an SQL error poisoned nothing.

Production alone is held to: every settled branch traced exactly once, at
its own settle instant; exactly one callback per branch, on the branches
that never settle too; an empty schedule afterwards.
``test_mutants_are_caught`` breaks the gather three ways and requires the
property to notice each.
"""

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterController, WritePolicy
from repro.cluster import controller as controller_module
from repro.cluster.controller import (DEAD, MOOT, OK, REFUSED, SILENT,
                                      TransactionAborted, _Gather)
from repro.errors import (DeadlockError, MachineFailedError, RPCTimeoutError,
                          TransactionError)
from repro.sim import Simulator
from tests.oracles.generator_gather import GeneratorGather

ERRORS = {"dead": MachineFailedError, "silent": RPCTimeoutError,
          "deadlock": DeadlockError, "error": TransactionError,
          "declared": TransactionError}
CLASS = {"ack": OK, "dead": DEAD, "silent": SILENT, "deadlock": REFUSED,
         "error": REFUSED, "declared": MOOT}
#: phase -> (write policy, trace kind of an acked branch, of a failed one)
PHASES = {
    "all": (WritePolicy.CONSERVATIVE, "write_acked", "write_failed"),
    "first": (WritePolicy.AGGRESSIVE, "write_acked", "write_failed"),
    "prepare": (WritePolicy.CONSERVATIVE, "prepare", "prepare_failed"),
}

scripts = st.fixed_dictionaries({
    "phase": st.sampled_from(sorted(PHASES)),
    "branches": st.lists(
        st.tuples(st.sampled_from(sorted(CLASS) + ["never"]),
                  st.integers(0, 30)),
        min_size=1, max_size=4),
})


def instant(index, step):
    """Branch ``index`` settles here: no two branches share an instant."""
    return 0.001 * (4 * step + index + 1)


def run_script(script, production, gather=_Gather):
    saved = controller_module._Gather
    controller_module._Gather = gather
    try:
        return _run_script(script, production)
    finally:
        controller_module._Gather = saved


def _run_script(script, production):
    policy, acked_kind, failed_kind = PHASES[script["phase"]]
    width = len(script["branches"])
    sim = Simulator()
    controller = ClusterController(sim, ClusterConfig(
        replication_factor=width, write_policy=policy))
    controller.add_machines(width)
    controller.create_database(
        "kv", ["CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"],
        replicas=width)
    names = controller.replica_map.replicas("kv")
    plan = dict(zip(names, script["branches"]))
    branches = {}

    def settle(event, name, kind, at):
        if kind == "declared":
            yield sim.timeout(at / 2)
            controller.declare_dead(name)
            yield sim.timeout(at / 2)
        else:
            yield sim.timeout(at)
        if kind == "ack":
            event.succeed("done")
        else:
            event.fail(ERRORS[kind](f"{kind} on {name}"))

    def send(machine, make_body, txn_id, label, timeout=None, retries=None):
        if label == "commit":
            return sim.event().succeed(None)
        event = branches[machine.name] = sim.event()
        kind, step = plan[machine.name]
        if kind != "never":
            sim.process(settle(event, machine.name, kind,
                               instant(names.index(machine.name), step)))
        return event

    txns = controller.txns
    txns.rpc.send = send
    conn = controller.connect("kv")
    txn = txns._ensure_txn(conn)
    if script["phase"] == "prepare":
        txn.touched.update(names)
        txn.writes_sent.update((name, 1) for name in names)
        waiter = (conn.commit() if production else
                  sim.process(GeneratorGather(txns).prepare(txn, names)))
    elif production:
        waiter = conn.execute("UPDATE kv SET v = 1 WHERE k = 1")
    else:
        waiter = sim.process(GeneratorGather(txns).write(txn, names, None))
    waiter.defused = True
    resumed = []
    waiter.add_callback(lambda _: resumed.append(sim.now))
    sim.step()      # the waiter starts: every branch is issued
    callbacks = {name: len(event.callbacks)
                 for name, event in branches.items()}
    sim.run()

    result = None
    if resumed:
        value = waiter.value
        if isinstance(value, TransactionAborted):
            value = value.cause
        if not waiter.ok:
            result = type(value).__name__
        elif script["phase"] != "prepare":
            result = value
        elif production:
            decision, = controller.trace.events(kind="decision_logged")
            result = ("commit", decision.extra["participants"])
        else:
            prepared, failure = value
            result = (("commit", prepared) if prepared and failure is None
                      else type(failure).__name__ if failure is not None
                      else "NoReplicaError")
    return {
        "resumed": resumed[0] if resumed else None,
        "result": result,
        "poisoned": txn.poisoned,
        "traced": [(e.t, e.kind, e.machine)
                   for e in controller.trace.events()
                   if e.kind in (acked_kind, failed_kind)],
        "acked": {e.machine for e in controller.trace.events(kind=acked_kind)},
        "failed": {e.machine
                   for e in controller.trace.events(kind=failed_kind)},
        "names": names,
        "callbacks": callbacks,
        "left": {name: len(event.callbacks)
                 for name, event in branches.items()
                 if not event.triggered},
        "pending": sim.pending,
    }


def check(script, gather=_Gather):
    phase = script["phase"]
    ours = run_script(script, production=True, gather=gather)
    theirs = run_script(script, production=False)
    names = ours["names"]
    settles = sorted((instant(index, step), name, kind)
                     for index, (name, (kind, step))
                     in enumerate(zip(names, script["branches"]))
                     if kind != "never")
    kinds = [kind for kind, _ in script["branches"]]
    fatal = {kind for kind in kinds
             if CLASS.get(kind) in (SILENT, REFUSED)}

    # Production alone: one trace event per settled branch, at its own
    # instant, acked exactly when the branch is ``ok``; one callback per
    # branch; nothing left on the schedule.
    _, acked_kind, failed_kind = PHASES[phase]
    assert sorted(ours["traced"]) == [
        (at, acked_kind if CLASS[kind] is OK else failed_kind, name)
        for at, name, kind in settles]
    assert set(ours["callbacks"].values()) == {1}
    assert set(ours["left"].values()) <= {1}
    assert ours["pending"] == 0

    # The differential.
    if phase == "all" and "error" in kinds:
        return  # the old loop raised mid-walk
    assert ours["resumed"] == theirs["resumed"]
    if phase == "prepare" and len(fatal) > 1 and "never" not in kinds:
        # First fatal outcome in time, not in issue order.
        assert ours["result"] == next(
            ERRORS[kind].__name__ for _, _, kind in settles if kind in fatal)
        assert theirs["result"] in {ERRORS[kind].__name__ for kind in fatal}
    else:
        assert ours["result"] == theirs["result"]
    got_result = ours["resumed"] is not None and ours["result"] == "done"
    walk_complete = "never" not in kinds and (phase != "first" or got_result)
    if walk_complete:
        assert ours["acked"] == theirs["acked"]
    else:
        assert theirs["acked"] <= ours["acked"]
    if walk_complete and phase != "prepare":
        assert ours["failed"] == theirs["failed"]
    else:
        # PREPARE traced only its fatal branches as failed.
        assert theirs["failed"] <= ours["failed"]
    late = [kind for at, _, kind in settles
            if ours["resumed"] is not None and at > ours["resumed"]]
    if walk_complete and "declared" not in late:
        assert (ours["poisoned"] is None) == (theirs["poisoned"] is None)
    # Production: poisoned by the first late refusal in time, if any.
    refusals = [ERRORS[kind] for kind in late if CLASS[kind] is REFUSED]
    if phase == "first" and refusals and (got_result
                                          or ours["result"]
                                          == "TransactionError"):
        assert type(ours["poisoned"]) is refusals[0]
    else:
        assert ours["poisoned"] is None


@settings(max_examples=400, deadline=None)
@given(scripts)
def test_matches_the_generator_waits(script):
    check(script)


class NoMootCheck(_Gather):
    """Takes the answer of a machine declared dead at face value."""

    def _classify(self, name, branch):
        outcome, value = super()._classify(name, branch)
        if outcome is MOOT:
            outcome = OK if branch.ok else REFUSED
        return outcome, value


class SilenceIsDeath(_Gather):
    """Reports a silent participant as a dead one: PREPARE then commits
    past a participant that may be alive and un-prepared."""

    def _classify(self, name, branch):
        outcome, value = super()._classify(name, branch)
        return (DEAD if outcome is SILENT else outcome), value


class LateBranchesDropped(_Gather):
    """``need="first"`` answers and forgets the branches still out."""

    def _settled(self, name, branch):
        if not self.triggered:
            super()._settled(name, branch)


def breaks(gather, script):
    try:
        check(script, gather)
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("broken", [NoMootCheck, SilenceIsDeath,
                                    LateBranchesDropped])
def test_mutants_are_caught(broken):
    script = find(scripts, lambda s: breaks(broken, s),
                  settings=settings(max_examples=3000, deadline=None,
                                    derandomize=True, database=None))
    assert not breaks(_Gather, script)
