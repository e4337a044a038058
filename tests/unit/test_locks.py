"""Unit tests for the multi-granularity lock manager."""

import pytest

from repro.engine.locks import (LockManager, LockMode, compatible, supremum)
from repro.errors import DeadlockError

from tests.oracles import lock_table

ROW_A = ("row", "db", "t", 1)
ROW_B = ("row", "db", "t", 2)
TBL = ("tbl", "db", "t")


class TestModeLattice:
    def test_compatibility_matrix(self):
        # (held, requested) -> compatible
        expectations = {
            (LockMode.IS, LockMode.IS): True,
            (LockMode.IS, LockMode.IX): True,
            (LockMode.IS, LockMode.S): True,
            (LockMode.IS, LockMode.SIX): True,
            (LockMode.IS, LockMode.X): False,
            (LockMode.IX, LockMode.IX): True,
            (LockMode.IX, LockMode.S): False,
            (LockMode.IX, LockMode.SIX): False,
            (LockMode.S, LockMode.S): True,
            (LockMode.S, LockMode.IX): False,
            (LockMode.S, LockMode.X): False,
            (LockMode.SIX, LockMode.IS): True,
            (LockMode.SIX, LockMode.IX): False,
            (LockMode.X, LockMode.IS): False,
            (LockMode.X, LockMode.X): False,
        }
        for (held, req), expected in expectations.items():
            assert compatible(held, req) is expected, (held, req)

    def test_supremum_examples(self):
        assert supremum(LockMode.S, LockMode.IX) is LockMode.SIX
        assert supremum(LockMode.IS, LockMode.IX) is LockMode.IX
        assert supremum(LockMode.S, LockMode.X) is LockMode.X
        assert supremum(LockMode.S, LockMode.S) is LockMode.S

    def test_supremum_commutes(self):
        for a in LockMode:
            for b in LockMode:
                assert supremum(a, b) is supremum(b, a)


class TestAcquireRelease:
    def test_grant_compatible(self):
        lm = LockManager()
        assert lm.acquire(1, ROW_A, LockMode.S).granted
        assert lm.acquire(2, ROW_A, LockMode.S).granted

    def test_conflict_queues(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.X)
        req = lm.acquire(2, ROW_A, LockMode.S)
        assert not req.granted
        assert lm.stats.waits == 1

    def test_release_grants_fifo(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.X)
        r2 = lm.acquire(2, ROW_A, LockMode.S)
        lm.release_all(1)
        assert r2.granted
        assert lm.holds(2, ROW_A, LockMode.S)

    def test_fifo_prevents_overtaking(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.S)
        rx = lm.acquire(2, ROW_A, LockMode.X)   # queued
        rs = lm.acquire(3, ROW_A, LockMode.S)   # compatible with holder but
        assert not rx.granted
        assert not rs.granted                   # must not starve the writer

    def test_reentrant_weaker_request(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.X)
        again = lm.acquire(1, ROW_A, LockMode.S)
        assert again.granted
        assert lm.holds(1, ROW_A, LockMode.X)

    def test_upgrade_granted_when_alone(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.S)
        up = lm.acquire(1, ROW_A, LockMode.X)
        assert up.granted
        assert lm.holds(1, ROW_A, LockMode.X)

    def test_upgrade_jumps_queue(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.S)
        lm.acquire(2, ROW_A, LockMode.S)
        waiting_x = lm.acquire(3, ROW_A, LockMode.X)   # queued behind holders
        up = lm.acquire(1, ROW_A, LockMode.X)          # upgrade: front of queue
        assert not up.granted                          # txn2 still holds S
        lm.release_all(2)
        assert up.granted                              # upgrade won over txn3
        assert not waiting_x.granted

    def test_release_shared_keeps_exclusive(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.S)
        lm.acquire(1, ROW_B, LockMode.X)
        lm.acquire(1, TBL, LockMode.IX)
        lm.release_shared(1)
        held = lm.held(1)
        assert ROW_A not in held
        assert held[ROW_B] is LockMode.X
        assert held[TBL] is LockMode.IX

    def test_release_shared_weakens_six_to_ix(self):
        lm = LockManager()
        lm.acquire(1, TBL, LockMode.S)
        lm.acquire(1, TBL, LockMode.IX)  # -> SIX
        assert lm.holds(1, TBL, LockMode.SIX)
        lm.release_shared(1)
        assert lm.held(1)[TBL] is LockMode.IX

    def test_release_shared_unblocks_waiters(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.S)
        waiting = lm.acquire(2, ROW_A, LockMode.X)
        lm.release_shared(1)
        assert waiting.granted

    def test_release_all_fails_pending_request(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.X)
        pending = lm.acquire(2, ROW_A, LockMode.X)
        failures = []
        pending.on_fail.append(lambda r: failures.append(r.error))
        lm.release_all(2)
        assert pending.error is not None
        assert failures

    def test_release_of_queued_txn_unblocks_followers(self):
        # txn 2 queues an IX behind txn 1's S; txn 3's IS queues behind
        # txn 2 (FIFO, no overtaking) even though IS is compatible with
        # S. When txn 2 aborts while still queued — holding nothing —
        # txn 3 must be granted, not left stuck behind a ghost.
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.S)
        lm.acquire(2, ROW_A, LockMode.IX)
        follower = lm.acquire(3, ROW_A, LockMode.IS)
        assert follower.pending
        lm.release_all(2)
        assert follower.granted
        assert lm.holds(3, ROW_A, at_least=LockMode.IS)

    def test_grant_callbacks_fire(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.X)
        pending = lm.acquire(2, ROW_A, LockMode.S)
        grants = []
        pending.on_grant.append(lambda r: grants.append(r))
        lm.release_all(1)
        assert grants == [pending]


class TestDeadlocks:
    def test_two_txn_cycle_detected(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.X)
        lm.acquire(2, ROW_B, LockMode.X)
        lm.acquire(1, ROW_B, LockMode.X)  # 1 waits on 2
        with pytest.raises(DeadlockError):
            lm.acquire(2, ROW_A, LockMode.X)  # 2 waits on 1 -> cycle
        assert lm.stats.deadlocks == 1

    def test_victim_request_removed_from_queue(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.X)
        lm.acquire(2, ROW_B, LockMode.X)
        lm.acquire(1, ROW_B, LockMode.X)
        with pytest.raises(DeadlockError):
            lm.acquire(2, ROW_A, LockMode.X)
        # txn2 can abort; releasing it unblocks txn1
        pending_1 = lm.waiting_request(1)
        lm.release_all(2)
        assert pending_1.granted

    def test_three_txn_cycle(self):
        lm = LockManager()
        rows = [("row", "db", "t", i) for i in range(3)]
        for txn, row in enumerate(rows, start=1):
            lm.acquire(txn, row, LockMode.X)
        lm.acquire(1, rows[1], LockMode.X)
        lm.acquire(2, rows[2], LockMode.X)
        with pytest.raises(DeadlockError):
            lm.acquire(3, rows[0], LockMode.X)

    def test_upgrade_deadlock(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.S)
        lm.acquire(2, ROW_A, LockMode.S)
        lm.acquire(1, ROW_A, LockMode.X)  # waits on 2
        with pytest.raises(DeadlockError):
            lm.acquire(2, ROW_A, LockMode.X)  # cycle through upgrades

    def test_no_false_positive_on_chain(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.X)
        lm.acquire(2, ROW_A, LockMode.X)  # 2 waits on 1
        req3 = lm.acquire(3, ROW_A, LockMode.X)  # 3 waits; no cycle
        assert not req3.granted

    def test_waits_for_edges_structure(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.X)
        lm.acquire(2, ROW_A, LockMode.S)
        edges = lm.waits_for_edges()
        assert edges == {2: {1}}


class TestFlatState:
    """Uncontended locks cost nothing to the paths that handle contention,
    and released state is deleted, not left empty."""

    @staticmethod
    def assert_empty(lm):
        assert lm._holders == {}
        assert lm._queues == {}
        assert lm._waiting == {}
        assert not any(lm._held.values())

    def test_deadlock_search_sees_only_contended_resources(self):
        lm, reference = LockManager(), lock_table.LockManager()
        for txn in range(1, 51):
            for manager, mode in ((lm, LockMode), (reference,
                                                   lock_table.LockMode)):
                manager.acquire(txn, TBL, mode.IX)
                for i in range(100):
                    manager.acquire(txn, ("row", "db", "t", txn * 100 + i),
                                    mode.X)
        assert len(lm._holders) == 5001
        assert lm._queues == {}
        assert lm.waits_for_edges() == {}

        contended = ("row", "db", "t", 7 * 100 + 3)
        assert not lm.try_acquire(51, contended, LockMode.S)
        assert not lm.acquire(51, contended, LockMode.S).granted
        reference.acquire(51, contended, lock_table.LockMode.S)
        assert lm.waits_for_edges() == reference.waits_for_edges() == {51: {7}}
        assert list(lm._queues) == [contended]

        for txn in range(1, 52):
            lm.release_all(txn)
        self.assert_empty(lm)

    def test_deadlock_victim_leaves_nothing_behind(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.X)
        lm.acquire(2, ROW_B, LockMode.X)
        lm.acquire(1, ROW_B, LockMode.X)
        with pytest.raises(DeadlockError):
            lm.acquire(2, ROW_A, LockMode.X)
        assert ROW_A not in lm._queues      # the victim's request is gone
        lm.release_all(2)
        assert lm.held(1) == {ROW_A: LockMode.X, ROW_B: LockMode.X}
        lm.release_all(1)
        self.assert_empty(lm)

    def test_release_shared_leaves_nothing_behind(self):
        lm = LockManager()
        lm.acquire(1, TBL, LockMode.IS)
        lm.acquire(1, ROW_A, LockMode.S)
        lm.acquire(1, ROW_B, LockMode.X)
        waiter = lm.acquire(2, ROW_A, LockMode.X)
        lm.release_shared(1)
        assert waiter.granted
        assert set(lm._holders) == {ROW_A, ROW_B}
        assert lm._queues == {}
        lm.release_all(1)
        lm.release_all(2)
        self.assert_empty(lm)

    def test_try_acquire_covers_the_four_immediate_grants(self):
        lm = LockManager()
        assert lm.try_acquire(1, ROW_A, LockMode.S)        # first holder
        assert lm.try_acquire(1, ROW_A, LockMode.IS)       # re-entrant
        assert lm.try_acquire(2, ROW_A, LockMode.S)        # compatible
        assert not lm.try_acquire(1, ROW_A, LockMode.X)    # 2 forbids it
        assert lm.stats.snapshot() == {"acquired": 3, "waits": 0,
                                       "deadlocks": 0}
        lm.release_all(2)
        assert lm.try_acquire(1, ROW_A, LockMode.X)        # upgrade
        assert lm.held(1) == {ROW_A: LockMode.X}

    def test_try_acquire_does_not_barge_but_upgrades_do(self):
        lm = LockManager()
        lm.acquire(1, ROW_A, LockMode.IS)
        lm.acquire(2, ROW_A, LockMode.X)                   # queued
        assert not lm.try_acquire(3, ROW_A, LockMode.IS)   # FIFO
        assert lm.held(3) == {}
        assert lm.try_acquire(1, ROW_A, LockMode.S)        # upgrade
        assert lm.stats.waits == 1                         # refusals count nothing
