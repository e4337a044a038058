"""Write-ahead logging, and the retained log tail.

The WAL is the engine's durability horizon: every row change is logged
before it is applied, and PREPARE and COMMIT answer only once a flush
covers their record. Logging and forcing are separate steps:
:meth:`WriteAheadLog.append` hands out the LSN,
:meth:`WriteAheadLog.flush` moves the flush horizon over everything
appended so far — so one flush can serve every committer whose record it
covers (``Machine._force_log``). A machine rejoining with its data reads
its COMMIT records to skip the commits it already applied
(``Machine.committed_txn_ids``). No restart replays the log: a crashed
machine comes back as a blank spare (the paper's §3.2), and
:meth:`WriteAheadLog.checkpoint` drops closed transactions' prefix
without keeping an image of it.

:class:`RetainedTail` is the LSN-addressed retained suffix behind the
cluster's per-database commit logs (the *replication stream*). Entries
get dense, monotonically increasing LSNs; a bounded tail of recent
entries is retained for delta catch-up, and :class:`SnapshotPin`\\ s
mark LSNs that an in-flight snapshot copy still needs — truncation never
advances past the lowest pinned LSN, so a replica built from a snapshot
taken at a pinned LSN can always replay forward from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple


class RecordType(enum.Enum):
    BEGIN = "BEGIN"
    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"
    PREPARE = "PREPARE"
    COMMIT = "COMMIT"
    ABORT = "ABORT"


class LogRecord:
    """One WAL entry. Treated as immutable once appended.

    A plain __slots__ class, not a dataclass: records are constructed
    three-plus times per write transaction on the commit path, and a
    frozen dataclass pays ~8x per construction for object.__setattr__.
    """

    __slots__ = ("lsn", "txn_id", "kind", "db", "table", "rid", "before",
                 "after")

    def __init__(self, lsn: int, txn_id: int, kind: RecordType,
                 db: str = None, table: str = None, rid: int = None,
                 before: Tuple[Any, ...] = None,
                 after: Tuple[Any, ...] = None):
        self.lsn = lsn
        self.txn_id = txn_id
        self.kind = kind
        self.db = db
        self.table = table
        self.rid = rid
        self.before = before
        self.after = after

    def __repr__(self) -> str:
        return (f"LogRecord(lsn={self.lsn}, txn_id={self.txn_id}, "
                f"kind={self.kind}, db={self.db!r}, table={self.table!r}, "
                f"rid={self.rid})")


class SnapshotPin:
    """A claim on the retained tail: "keep everything after ``lsn``".

    Handed out by :meth:`RetainedTail.pin` at the instant a snapshot
    copy is taken. While the pin is held, truncation keeps every entry with an
    LSN greater than ``lsn`` so the snapshot's consumer can replay the
    suffix. Release exactly once via the owning tail.
    """

    __slots__ = ("lsn", "released")

    def __init__(self, lsn: int):
        self.lsn = lsn
        self.released = False

    def __repr__(self) -> str:
        state = "released" if self.released else "held"
        return f"SnapshotPin(lsn={self.lsn}, {state})"


class RetainedTail:
    """An LSN-addressed, truncatable suffix of an append-only log.

    Entries are addressed by dense LSNs starting at 1. At most ``retain``
    entries are kept (``retain=None`` keeps everything); older entries
    are truncated on append, except that truncation never advances past
    the lowest held :class:`SnapshotPin`. ``start_lsn`` is the lowest
    LSN still retained; :meth:`covers` tells a catch-up whether it can
    replay forward from a given LSN or must fall back to a full copy.
    """

    def __init__(self, retain: Optional[int] = None):
        self.retain = retain
        self._entries: List[Any] = []
        self._start_lsn = 1          # LSN of _entries[0]
        self._pins: List[SnapshotPin] = []
        self.truncated = 0           # entries dropped so far (stat)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_lsn(self) -> int:
        """The highest LSN assigned so far (0 when empty)."""
        return self._start_lsn + len(self._entries) - 1

    @property
    def start_lsn(self) -> int:
        """The lowest LSN still retained (last_lsn + 1 when drained)."""
        return self._start_lsn

    def append(self, payload: Any) -> int:
        """Append one entry; returns its LSN."""
        self._entries.append(payload)
        lsn = self.last_lsn
        self._truncate()
        return lsn

    def covers(self, from_lsn: int) -> bool:
        """True when every entry *after* ``from_lsn`` is still retained,
        i.e. a consumer at ``from_lsn`` can catch up by replay alone."""
        return from_lsn + 1 >= self._start_lsn

    def since(self, from_lsn: int) -> List[Tuple[int, Any]]:
        """Retained ``(lsn, payload)`` pairs with ``lsn > from_lsn``.

        Raises :class:`ValueError` when the requested suffix has been
        truncated away (the caller must fall back to a full copy).
        """
        if not self.covers(from_lsn):
            raise ValueError(
                f"log truncated: need entries after {from_lsn}, "
                f"tail starts at {self._start_lsn}")
        lo = max(from_lsn + 1, self._start_lsn)
        offset = lo - self._start_lsn
        return [(self._start_lsn + i, self._entries[i])
                for i in range(offset, len(self._entries))]

    def pin(self, lsn: Optional[int] = None) -> SnapshotPin:
        """Pin the tail at ``lsn`` (default: the current head)."""
        if lsn is None:
            lsn = self.last_lsn
        if not self.covers(lsn):
            raise ValueError(
                f"cannot pin at {lsn}: tail starts at {self._start_lsn}")
        pin = SnapshotPin(lsn)
        self._pins.append(pin)
        return pin

    def release(self, pin: SnapshotPin) -> None:
        """Release a pin; truncation may advance past its LSN again."""
        if pin.released:
            return
        pin.released = True
        self._pins.remove(pin)
        self._truncate()

    def min_pinned_lsn(self) -> Optional[int]:
        return min((p.lsn for p in self._pins), default=None)

    def compact(self) -> int:
        """Drop every unpinned entry, keeping the LSN position.

        Used to page out a cold tenant's delta log: the tail object
        survives (so ``last_lsn`` keeps counting from where it was and
        ``covers()`` stays truthful — a later delta catch-up correctly
        falls back to a full copy), but its retained payloads are
        released. Pinned suffixes are kept so an in-flight snapshot
        copy can still replay forward. Returns the number of entries
        dropped.
        """
        floor = self.last_lsn + 1
        pinned = self.min_pinned_lsn()
        if pinned is not None:
            floor = min(floor, pinned + 1)
        if floor <= self._start_lsn:
            return 0
        drop = floor - self._start_lsn
        del self._entries[:drop]
        self._start_lsn = floor
        self.truncated += drop
        return drop

    def _truncate(self) -> None:
        if self.retain is None:
            return
        # Keep at most `retain` entries, but never drop an entry some
        # snapshot still needs (lsn > pin.lsn must stay replayable).
        floor = self.last_lsn - self.retain + 1
        pinned = self.min_pinned_lsn()
        if pinned is not None:
            floor = min(floor, pinned + 1)
        if floor <= self._start_lsn:
            return
        drop = floor - self._start_lsn
        del self._entries[:drop]
        self._start_lsn = floor
        self.truncated += drop


@dataclass
class WalStats:
    records: int = 0
    flushes: int = 0
    truncated: int = 0


class WriteAheadLog:
    """An append-only log with an explicit flush horizon.

    The log keeps an LSN-addressed retained tail: records below
    ``start_lsn`` have been truncated (after a checkpoint made them
    redundant); :meth:`covers` and :meth:`records_since` read the
    suffix. :meth:`checkpoint` is the one truncation entry point.
    """

    def __init__(self):
        self._records: List[LogRecord] = []
        self._start_lsn = 1           # LSN of _records[0]
        self._next_lsn = 1
        self.flushed_lsn = 0
        self.stats = WalStats()

    def __len__(self) -> int:
        return len(self._records)

    # -- the LSN-addressed tail ------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """Highest LSN appended so far (0 when nothing was logged)."""
        return self._next_lsn - 1

    @property
    def start_lsn(self) -> int:
        """Lowest LSN still retained."""
        return self._start_lsn

    def covers(self, from_lsn: int) -> bool:
        """True when every record after ``from_lsn`` is still retained."""
        return from_lsn + 1 >= self._start_lsn

    def records_since(self, from_lsn: int) -> List[LogRecord]:
        """Retained records with ``lsn > from_lsn`` (the catch-up suffix)."""
        if not self.covers(from_lsn):
            raise ValueError(
                f"WAL truncated: need records after {from_lsn}, "
                f"tail starts at {self._start_lsn}")
        offset = max(from_lsn + 1, self._start_lsn) - self._start_lsn
        return self._records[offset:]

    def checkpoint(self, upto_lsn: int) -> int:
        """Drop records with ``lsn <= upto_lsn``: the one way the log
        shrinks. Returns the number of records dropped.

        Not clamped to the flush horizon: the caller
        (``Engine.checkpoint``) vouches that every transaction in the
        prefix is closed, and a closed transaction has nothing left to
        make durable — a committed writer's COMMIT was forced before it
        acked, an aborted or read-only branch has nothing to redo. The
        horizon follows the start: ``flushed_lsn >= start_lsn - 1``.
        Runs in amortised chunks: nothing goes until the droppable
        prefix is longer than what would remain (a log shorter than that
        is the degenerate case), so the work is O(1) per record logged.
        """
        floor = min(upto_lsn, self._next_lsn - 1)
        drop = floor - self._start_lsn + 1   # LSNs are dense
        if 2 * drop <= len(self._records):
            return 0
        del self._records[:drop]
        self._start_lsn = floor + 1
        if self.flushed_lsn < floor:
            self.flushed_lsn = floor
        self.stats.truncated += drop
        return drop

    def append(self, txn_id: int, kind: RecordType, db: str = None,
               table: str = None, rid: int = None,
               before: Tuple[Any, ...] = None,
               after: Tuple[Any, ...] = None) -> LogRecord:
        record = LogRecord(self._next_lsn, txn_id, kind, db, table, rid,
                           before, after)
        self._next_lsn += 1
        self._records.append(record)
        self.stats.records += 1
        return record

    def append_batch(self, txn_id: int, kind: RecordType,
                     entries: List[Tuple[str, str, int,
                                         Optional[Tuple[Any, ...]],
                                         Optional[Tuple[Any, ...]]]]
                     ) -> None:
        """Append many same-kind records in one call.

        ``entries`` is ``[(db, table, rid, before, after), ...]``. The
        compiled UPDATE/DELETE loops buffer their row records and land
        them here once per statement: one counter update and one list
        extend instead of per-row bookkeeping. Records still get
        distinct, ordered LSNs; this is safe because those loops yield
        no lock waits between rows, so no other transaction's records
        can interleave with the batch anyway.
        """
        lsn = self._next_lsn
        records = [
            LogRecord(lsn + i, txn_id, kind, db, table, rid, before, after)
            for i, (db, table, rid, before, after) in enumerate(entries)
        ]
        self._next_lsn += len(records)
        self._records.extend(records)
        self.stats.records += len(records)

    def flush(self) -> None:
        """Force everything appended so far to 'disk'."""
        self.flushed_lsn = self._next_lsn - 1
        self.stats.flushes += 1

    def durable_records(self) -> List[LogRecord]:
        """Records that survive a crash (appended and flushed)."""
        return [r for r in self._records if r.lsn <= self.flushed_lsn]

    def all_records(self) -> List[LogRecord]:
        return list(self._records)

