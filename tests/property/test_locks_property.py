"""Property-based tests for the lock manager.

Two kinds: safety invariants checked on the manager's own state after
every step, and a differential against the manager kept in
``tests/oracles/lock_table.py`` — one action list drives both, and every
observable (grant / wait / deadlock outcome, how many of a run were
granted before a wait, late grants in order, what each transaction
holds, the waits-for graph, the counters) must agree after every step.
``test_mutants_are_caught`` breaks the production manager four ways and
requires the differential to notice each.
"""

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.engine.locks import LockManager, LockMode, compatible, supremum
from repro.errors import DeadlockError
from tests.oracles import lock_table

TXNS = range(1, 7)
txn_ids = st.integers(min_value=TXNS[0], max_value=TXNS[-1])
resources = st.sampled_from([("row", "db", "t", i) for i in range(4)]
                            + [("tbl", "db", "t")])
modes = st.sampled_from(list(LockMode))

actions = st.one_of(
    st.tuples(st.just("acquire"), txn_ids, resources, modes),
    st.tuples(st.just("acquire_run"), txn_ids,
              st.lists(resources, min_size=1, max_size=4), modes),
    st.tuples(st.just("release"), txn_ids),
    st.tuples(st.just("release_shared"), txn_ids),
)
sequences = st.lists(actions, max_size=60)


def check_lock_table_invariants(manager: LockManager):
    """Core safety: holders pairwise compatible; no granted duplicates."""
    for resource, holder_map in manager._holders.items():
        assert holder_map, f"empty holder map left behind on {resource}"
        holders = list(holder_map.items())
        for i, (txn_a, mode_a) in enumerate(holders):
            assert manager._held[txn_a][resource] is mode_a
            for txn_b, mode_b in holders[i + 1:]:
                assert compatible(mode_a, mode_b) or \
                    compatible(mode_b, mode_a), (
                        f"incompatible co-holders on {resource}: "
                        f"{txn_a}:{mode_a} vs {txn_b}:{mode_b}")
    for txn, held in manager._held.items():
        for resource, mode in held.items():
            assert manager._holders[resource][txn] is mode
    for resource, queue in manager._queues.items():
        assert queue, f"empty queue left behind on {resource}"
        for request in queue:
            assert not request.granted
            assert request.error is None
            assert manager._waiting[request.txn_id] is request
        # A queued head must actually be blocked by someone.
        head = queue[0]
        blocked = any(
            not compatible(mode, head.mode)
            for txn, mode in manager._holders[resource].items()
            if txn != head.txn_id)
        assert blocked, f"head of queue on {resource} is not blocked"
    assert len(manager._waiting) == sum(
        len(queue) for queue in manager._queues.values())


def drive(manager, sequence, after_step=lambda: None, mode_cls=LockMode):
    """Run ``sequence`` on ``manager``; returns one log entry per step.

    A transaction with a pending request may not issue another acquire,
    and a deadlock victim aborts (releases everything). On a manager with
    ``try_acquire`` the acquire is issued the way a statement runner
    does: ``try_acquire``, else ``acquire``. An ``acquire_run`` is a range
    read's row locks: on production one ``try_acquire_run``, then
    ``acquire`` of the resource it stopped at; on the reference
    ``acquire`` of each resource in order until the first that waits.
    Both log how many were granted before that.
    """
    log = []
    late = []
    try_acquire = getattr(manager, "try_acquire", None)
    try_acquire_run = getattr(manager, "try_acquire_run", None)

    def acquire(txn, resource, mode):
        """``acquire``'s outcome: granted, wait (callbacks logged to
        ``late``) or deadlock (the victim releases everything)."""
        try:
            request = manager.acquire(txn, resource, mode)
        except DeadlockError as exc:
            manager.release_all(txn)
            return f"deadlock: {exc}"
        if request.granted:
            return "granted"
        request.on_grant.append(
            lambda r: late.append(
                ("grant", r.txn_id, r.resource, int(r.mode))))
        request.on_fail.append(
            lambda r: late.append(
                ("fail", r.txn_id, r.resource, str(r.error))))
        return "wait"

    for action in sequence:
        outcome = None
        if action[0] == "acquire":
            _, txn, resource, mode = action
            mode = mode_cls(mode)
            if manager.waiting_request(txn) is not None:
                outcome = "skipped"
            elif try_acquire is not None and try_acquire(txn, resource, mode):
                outcome = "granted"
            else:
                outcome = acquire(txn, resource, mode)
                assert try_acquire is None or outcome != "granted"
        elif action[0] == "acquire_run":
            _, txn, run, mode = action
            mode = mode_cls(mode)
            if manager.waiting_request(txn) is not None:
                outcome = "skipped"
            elif try_acquire_run is not None:
                granted = try_acquire_run(txn, iter(run), mode)
                outcome = (granted, "granted" if granted == len(run)
                           else acquire(txn, run[granted], mode))
                assert outcome[1] != "granted" or granted == len(run)
            else:
                granted = 0
                for resource in run:
                    step = acquire(txn, resource, mode)
                    if step != "granted":
                        break
                    granted += 1
                outcome = (granted, step)
        elif action[0] == "release":
            manager.release_all(action[1])
        elif manager.waiting_request(action[1]) is None:
            manager.release_shared(action[1])
        after_step()
        log.append({
            "outcome": outcome,
            "late": list(late),
            "held": {txn: [(res, int(mode))
                           for res, mode in manager.held(txn).items()]
                     for txn in TXNS},
            "waiting": {txn: manager.waiting_request(txn) is not None
                        for txn in TXNS},
            "edges": manager.waits_for_edges(),
            "stats": manager.stats.snapshot(),
        })
        del late[:]
    return log


def drain(manager):
    for txn in TXNS:
        manager.release_all(txn)


@settings(max_examples=150, deadline=None)
@given(sequences)
def test_lock_manager_invariants_hold(sequence):
    manager = LockManager()
    drive(manager, sequence,
          after_step=lambda: check_lock_table_invariants(manager))

    # Drain: releasing everyone must leave the manager empty.
    drain(manager)
    assert not manager._holders
    assert not manager._queues
    assert not manager._waiting
    assert not any(manager._held.values())


def diverges(manager_cls, sequence) -> bool:
    """True when ``manager_cls`` and the reference disagree on ``sequence``."""
    manager, reference = manager_cls(), lock_table.LockManager()
    try:
        assert_same(manager, reference, sequence)
    except (AssertionError, KeyError):   # a mutant may corrupt its own maps
        return True
    return False


def assert_same(manager, reference, sequence):
    got = drive(manager, sequence)
    expected = drive(reference, sequence, mode_cls=lock_table.LockMode)
    for step, (action, ours, theirs) in enumerate(
            zip(sequence, got, expected)):
        assert ours == theirs, (step, action)
    drain(manager)
    drain(reference)
    assert manager.stats.snapshot() == reference.stats.snapshot()
    assert not manager._holders and not manager._queues
    assert not reference._tables


@settings(max_examples=400, deadline=None)
@given(st.lists(actions, max_size=80))
def test_matches_reference_manager(sequence):
    assert_same(LockManager(), lock_table.LockManager(), sequence)


class Barging(LockManager):
    """Grants a compatible newcomer past a non-empty queue."""

    def try_acquire(self, txn_id, resource, mode):
        queues, self._queues = self._queues, {}
        try:
            return super().try_acquire(txn_id, resource, mode)
        finally:
            self._queues = queues


class BlindUpgrade(LockManager):
    """Grants an upgrade without asking the other holders."""

    def try_acquire(self, txn_id, resource, mode):
        held_mode = self._held[txn_id].get(resource)
        if held_mode is None or txn_id in self._waiting:
            return super().try_acquire(txn_id, resource, mode)
        effective = supremum(held_mode, mode)
        self._holders[resource][txn_id] = effective
        self._held[txn_id][resource] = effective
        self.stats.acquired += 1
        return True


class GrantsPastAWait(LockManager):
    """A run grant that skips the resource that would wait and goes on."""

    def try_acquire_run(self, txn_id, resources, mode):
        granted = 0
        for resource in resources:
            if super().try_acquire_run(txn_id, (resource,), mode):
                granted += 1
        return granted


class NoRegrant(LockManager):
    """``release_all`` forgets to wake the waiters."""

    def release_all(self, txn_id):
        self._regrant = lambda resource: None
        try:
            super().release_all(txn_id)
        finally:
            del self._regrant


@pytest.mark.parametrize("broken", [Barging, BlindUpgrade, GrantsPastAWait,
                                    NoRegrant])
def test_mutants_are_caught(broken):
    sequence = find(sequences, lambda s: diverges(broken, s),
                    settings=settings(max_examples=5000, deadline=None,
                                      derandomize=True, database=None))
    assert not diverges(LockManager, sequence)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(txn_ids, resources), min_size=2, max_size=30))
def test_exclusive_acquires_never_coexist(pairs):
    """Two different txns never both hold X on one resource."""
    manager = LockManager()
    for txn, resource in pairs:
        if manager.waiting_request(txn) is not None:
            continue
        try:
            manager.acquire(txn, resource, LockMode.X)
        except DeadlockError:
            manager.release_all(txn)
        holders_by_resource = {}
        for owner in range(1, 7):
            for res, mode in manager.held(owner).items():
                if mode is LockMode.X:
                    assert res not in holders_by_resource, (
                        f"double X on {res}")
                    holders_by_resource[res] = owner
