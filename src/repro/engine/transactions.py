"""Transactions and the XA-style participant state machine.

A :class:`Transaction` moves through::

    ACTIVE --prepare--> PREPARED --commit--> COMMITTED
       \\--commit (read-only / 1PC)--------> COMMITTED
       \\--abort-----------------------------> ABORTED
    PREPARED --abort--> ABORTED

PREPARE forces the WAL and — when the engine is configured with the
release-read-locks-at-PREPARE optimization — drops the transaction's
shared locks while retaining exclusive ones. COMMIT/ABORT release all
locks (strict 2PL: write locks are held to the very end, which Theorem 1
of the paper relies on).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.errors import TransactionError


class TxnState(enum.Enum):
    ACTIVE = "ACTIVE"
    PREPARED = "PREPARED"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


@dataclass
class UndoEntry:
    """Before-image information needed to roll one change back."""

    db: str
    table: str
    kind: str  # "insert" | "update" | "delete"
    rid: int
    before: Optional[Tuple[Any, ...]]
    after: Optional[Tuple[Any, ...]]


@dataclass
class Transaction:
    """Per-transaction bookkeeping on one engine instance."""

    txn_id: int
    state: TxnState = TxnState.ACTIVE
    undo: List[UndoEntry] = field(default_factory=list)
    # Set when the transaction performed at least one write (the paper's
    # controller only runs 2PC for transactions with writes).
    wrote: bool = False
    # Databases this transaction touched, for per-database accounting.
    databases: set = field(default_factory=set)
    # Row keys this transaction has dirtied (engine dirty-map entries to
    # clear at commit/abort; supports non-locking consistent reads).
    dirty_keys: set = field(default_factory=set)
    # LSN of its BEGIN record: the WAL is kept from here on while it
    # stays in ``Engine.transactions`` (0, recovered in doubt: all of it).
    first_lsn: int = 0

    def require(self, *states: TxnState) -> None:
        if self.state not in states:
            raise TransactionError(
                f"txn {self.txn_id} is {self.state.value}, "
                f"needs {'/'.join(s.value for s in states)}"
            )

    @property
    def finished(self) -> bool:
        return self.state in (TxnState.COMMITTED, TxnState.ABORTED)
