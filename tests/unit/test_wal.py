"""Unit tests for the write-ahead log."""

import pytest

from repro.engine.wal import RecordType, RetainedTail, WriteAheadLog


class TestWal:
    def test_lsns_monotonic(self):
        wal = WriteAheadLog()
        r1 = wal.append(1, RecordType.BEGIN)
        r2 = wal.append(1, RecordType.INSERT, db="d", table="t", rid=0,
                        after=(1, 2))
        assert r2.lsn == r1.lsn + 1

    def test_unflushed_records_not_durable(self):
        wal = WriteAheadLog()
        wal.append(1, RecordType.BEGIN)
        assert wal.durable_records() == []
        wal.flush()
        assert len(wal.durable_records()) == 1

    def test_flush_horizon(self):
        wal = WriteAheadLog()
        wal.append(1, RecordType.BEGIN)
        wal.flush()
        wal.append(1, RecordType.COMMIT)
        durable = wal.durable_records()
        assert [r.kind for r in durable] == [RecordType.BEGIN]

    def test_stats(self):
        wal = WriteAheadLog()
        wal.append(1, RecordType.BEGIN)
        wal.flush()
        wal.flush()
        assert wal.stats.records == 1
        assert wal.stats.flushes == 2


class TestRetainedTail:
    def test_append_assigns_dense_lsns(self):
        tail = RetainedTail()
        assert tail.last_lsn == 0 and tail.start_lsn == 1
        assert [tail.append(c) for c in "abc"] == [1, 2, 3]
        assert tail.since(0) == [(1, "a"), (2, "b"), (3, "c")]
        assert tail.since(2) == [(3, "c")]
        assert tail.since(3) == []

    def test_bounded_retention_truncates_prefix(self):
        tail = RetainedTail(retain=3)
        for i in range(10):
            tail.append(i)
        assert len(tail) == 3
        assert tail.start_lsn == 8
        assert tail.truncated == 7
        assert tail.covers(7) and not tail.covers(6)
        assert tail.since(7) == [(8, 7), (9, 8), (10, 9)]
        with pytest.raises(ValueError):
            tail.since(5)

    def test_pin_blocks_truncation_until_release(self):
        tail = RetainedTail(retain=2)
        for i in range(3):
            tail.append(i)
        pin = tail.pin()                 # pins at head (lsn 3)
        for i in range(3, 10):
            tail.append(i)
        # Everything after the pin survives despite retain=2.
        assert tail.covers(pin.lsn)
        assert [lsn for lsn, _ in tail.since(pin.lsn)] == list(range(4, 11))
        tail.release(pin)
        assert len(tail) == 2            # retention applies again
        assert tail.start_lsn == 9
        tail.release(pin)                # idempotent

    def test_pin_at_truncated_lsn_rejected(self):
        tail = RetainedTail(retain=1)
        for i in range(5):
            tail.append(i)
        with pytest.raises(ValueError):
            tail.pin(lsn=1)

    def test_min_pinned_lsn_tracks_oldest(self):
        tail = RetainedTail()
        tail.append("a")
        first = tail.pin()
        tail.append("b")
        second = tail.pin()
        assert tail.min_pinned_lsn() == first.lsn == 1
        tail.release(first)
        assert tail.min_pinned_lsn() == second.lsn == 2
        tail.release(second)
        assert tail.min_pinned_lsn() is None


class TestWalRetainedTail:
    def _filled(self, n=5):
        wal = WriteAheadLog()
        for i in range(n):
            wal.append(1, RecordType.INSERT, db="d", table="t", rid=i)
        return wal

    def test_checkpoint_carries_the_flush_horizon(self):
        # truncate() clamped to flushed_lsn; the checkpoint's caller
        # vouches that the prefix is redundant, flushed or not (a branch
        # that only read is never forced), and the horizon follows the
        # log's start so flushed_lsn >= start_lsn - 1 keeps holding.
        wal = self._filled()
        assert wal.flushed_lsn == 0
        assert wal.checkpoint(3) == 3
        assert wal.start_lsn == 4 and wal.flushed_lsn == 3
        assert wal.stats.truncated == 3
        assert [r.lsn for r in wal.records_since(3)] == [4, 5]
        assert [r.lsn for r in wal.durable_records()] == []
        with pytest.raises(ValueError):
            wal.records_since(2)
        assert wal.covers(3) and not wal.covers(2)
        wal.flush()
        assert wal.checkpoint(2) == 0    # below the start: nothing to do
        assert wal.flushed_lsn == 5      # and the horizon never moves back
        assert wal.checkpoint(99) == 2   # clamped to what was appended
        assert wal.start_lsn == 6 and len(wal) == 0
        assert wal.append(2, RecordType.BEGIN).lsn == 6

    def test_checkpoint_waits_for_a_chunk_worth_dropping(self):
        # Amortised: the prefix goes once it is longer than the rest.
        wal = self._filled(10)
        assert wal.checkpoint(5) == 0
        assert wal.start_lsn == 1 and len(wal) == 10
        assert wal.checkpoint(6) == 6
        assert wal.start_lsn == 7 and len(wal) == 4

    def test_durable_records_survive_truncation_boundary(self):
        wal = self._filled()
        wal.flush()
        wal.append(2, RecordType.COMMIT)
        wal.checkpoint(4)
        kinds = [r.kind for r in wal.durable_records()]
        assert kinds == [RecordType.INSERT]
        assert [r.lsn for r in wal.all_records()] == [5, 6]
