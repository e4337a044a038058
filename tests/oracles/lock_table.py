"""Reference lock manager: ``repro/engine/locks.py`` before PR 18, verbatim.

One ``_LockTable`` (holders + FIFO queue) per resource, ``acquire`` as the
only grant path (``try_reentrant`` is its allocation-free shortcut for
locks already held). ``tests/property/test_locks_property.py`` drives it
and the production manager with one action list and requires identical
outcomes. The original module docstring follows.

Multi-granularity strict two-phase locking.

Lock modes are the textbook five (IS, IX, S, SIX, X). Resources are
hashable tuples at two granularities:

* ``("tbl", db, table)`` — intention (IS/IX) locks for row access, full
  S for table scans and the dump tool, X for bulk statements;
* ``("row", db, table, pk)`` — S/X locks on individual rows.

Requests queue FIFO per resource; lock *upgrades* (a transaction
strengthening a mode it already holds) jump the queue, as in real engines,
to avoid guaranteed upgrade deadlocks against queued waiters.

Deadlock policy: on every block the manager searches the waits-for graph
for a cycle through the requester and, if found, raises
:class:`~repro.errors.DeadlockError` *at the requester* (the InnoDB-style
"the transaction that had to wait rolls back" rule, deterministic for
reproducible experiments). Cross-machine deadlocks have no local cycle and
are resolved by the cluster layer's lock-wait timeout.

The 2PC read-lock optimization: :meth:`LockManager.release_shared` drops a
transaction's S/IS locks (and weakens SIX to IX) — called at PREPARE when
:data:`repro.engine.engine.RELEASE_READ_LOCKS_AT_PREPARE` is on. This is the
ingredient that makes the paper's Table 1 anomaly reachable.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.errors import DeadlockError

Resource = Tuple[Hashable, ...]


class LockMode(enum.IntEnum):
    """Standard multi-granularity modes, ordered by strength for display."""

    IS = 1
    IX = 2
    S = 3
    SIX = 4
    X = 5


# compat[a][b] is True when a holder in mode a coexists with mode b.
_COMPAT: Dict[LockMode, Set[LockMode]] = {
    LockMode.IS: {LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX},
    LockMode.IX: {LockMode.IS, LockMode.IX},
    LockMode.S: {LockMode.IS, LockMode.S},
    LockMode.SIX: {LockMode.IS},
    LockMode.X: set(),
}

# Supremum (least upper bound) of two held modes.
_SUP: Dict[Tuple[LockMode, LockMode], LockMode] = {}
for _a in LockMode:
    for _b in LockMode:
        if _a == _b:
            _SUP[(_a, _b)] = _a
        elif {_a, _b} == {LockMode.IS, LockMode.IX}:
            _SUP[(_a, _b)] = LockMode.IX
        elif {_a, _b} == {LockMode.IS, LockMode.S}:
            _SUP[(_a, _b)] = LockMode.S
        elif {_a, _b} == {LockMode.IS, LockMode.SIX}:
            _SUP[(_a, _b)] = LockMode.SIX
        elif {_a, _b} == {LockMode.IX, LockMode.S}:
            _SUP[(_a, _b)] = LockMode.SIX
        elif {_a, _b} == {LockMode.IX, LockMode.SIX}:
            _SUP[(_a, _b)] = LockMode.SIX
        elif {_a, _b} == {LockMode.S, LockMode.SIX}:
            _SUP[(_a, _b)] = LockMode.SIX
        elif LockMode.X in (_a, _b):
            _SUP[(_a, _b)] = LockMode.X
        else:
            raise AssertionError((_a, _b))


def compatible(held: LockMode, requested: LockMode) -> bool:
    """True if a holder in ``held`` can coexist with ``requested``."""
    return requested in _COMPAT[held]


def supremum(a: LockMode, b: LockMode) -> LockMode:
    """Least mode at least as strong as both ``a`` and ``b``."""
    return _SUP[(a, b)]


class LockRequest:
    """One transaction's pending or granted claim on a resource."""

    __slots__ = ("txn_id", "resource", "mode", "granted", "error",
                 "on_grant", "on_fail")

    def __init__(self, txn_id: int, resource: Resource, mode: LockMode):
        self.txn_id = txn_id
        self.resource = resource
        self.mode = mode
        self.granted = False
        self.error: Optional[BaseException] = None
        self.on_grant: List[Callable[["LockRequest"], None]] = []
        self.on_fail: List[Callable[["LockRequest"], None]] = []

    @property
    def pending(self) -> bool:
        return not self.granted and self.error is None

    def _grant(self) -> None:
        self.granted = True
        callbacks, self.on_grant = self.on_grant, []
        for cb in callbacks:
            cb(self)

    def _fail(self, exc: BaseException) -> None:
        self.error = exc
        callbacks, self.on_fail = self.on_fail, []
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:
        state = "granted" if self.granted else ("failed" if self.error else "waiting")
        return (f"LockRequest(txn={self.txn_id}, res={self.resource}, "
                f"mode={self.mode.name}, {state})")


class _LockTable:
    """Per-resource lock state: holders and a FIFO wait queue."""

    __slots__ = ("holders", "queue")

    def __init__(self):
        self.holders: Dict[int, LockMode] = {}
        self.queue: List[LockRequest] = []

    def empty(self) -> bool:
        return not self.holders and not self.queue


class LockStats:
    """Cumulative lock-manager counters (per engine instance)."""

    def __init__(self):
        self.acquired = 0
        self.waits = 0
        self.deadlocks = 0

    def snapshot(self) -> Dict[str, int]:
        return {"acquired": self.acquired, "waits": self.waits,
                "deadlocks": self.deadlocks}


class LockManager:
    """Strict-2PL lock manager for one engine instance."""

    def __init__(self):
        self._tables: Dict[Resource, _LockTable] = defaultdict(_LockTable)
        self._held: Dict[int, Dict[Resource, LockMode]] = defaultdict(dict)
        self._waiting: Dict[int, LockRequest] = {}
        self.stats = LockStats()

    # -- queries ------------------------------------------------------------

    def held(self, txn_id: int) -> Dict[Resource, LockMode]:
        """Resources and modes currently held by ``txn_id`` (copy)."""
        return dict(self._held.get(txn_id, {}))

    def holds(self, txn_id: int, resource: Resource,
              at_least: LockMode) -> bool:
        mode = self._held.get(txn_id, {}).get(resource)
        return mode is not None and supremum(mode, at_least) == mode

    def waiting_request(self, txn_id: int) -> Optional[LockRequest]:
        return self._waiting.get(txn_id)

    def try_reentrant(self, txn_id: int, resource: Resource,
                      mode: LockMode) -> bool:
        """Allocation-free re-acquire of an already-held lock.

        True when ``txn_id`` already holds ``resource`` at least as
        strongly as ``mode`` (the grant is counted exactly like the
        re-entrant path of :meth:`acquire`); False means the caller must
        go through :meth:`acquire`.
        """
        held_mode = self._held[txn_id].get(resource)
        if (held_mode is not None
                and _SUP[(held_mode, mode)] == held_mode
                and txn_id not in self._waiting):
            self.stats.acquired += 1
            return True
        return False

    # -- acquisition ----------------------------------------------------------

    def acquire(self, txn_id: int, resource: Resource,
                mode: LockMode) -> LockRequest:
        """Request ``mode`` on ``resource``.

        Returns a :class:`LockRequest`; check ``granted``. When the request
        must wait it is queued and the caller should subscribe to
        ``on_grant`` / ``on_fail``. Raises :class:`DeadlockError` if
        granting would create a waits-for cycle through this transaction.
        """
        if txn_id in self._waiting:
            raise RuntimeError(
                f"txn {txn_id} already has a pending lock request"
            )
        held_mode = self._held[txn_id].get(resource)
        if held_mode is not None and _SUP[(held_mode, mode)] == held_mode:
            # Re-entrant fast path: already strong enough. Taken before
            # the per-resource table is touched so repeated acquisitions
            # (every statement of a transaction re-locking its rows) do
            # no queue or compatibility work.
            request = LockRequest(txn_id, resource, held_mode)
            request._grant()
            self.stats.acquired += 1
            return request
        table = self._tables[resource]
        effective = mode if held_mode is None else supremum(held_mode, mode)
        request = LockRequest(txn_id, resource, effective)

        others_compatible = all(
            compatible(h, effective)
            for holder, h in table.holders.items()
            if holder != txn_id
        )
        is_upgrade = held_mode is not None

        if others_compatible and (is_upgrade or not table.queue):
            table.holders[txn_id] = effective
            self._held[txn_id][resource] = effective
            request._grant()
            self.stats.acquired += 1
            return request

        # Must wait. Upgrades go to the front of the queue.
        self.stats.waits += 1
        if is_upgrade:
            table.queue.insert(0, request)
        else:
            table.queue.append(request)
        self._waiting[txn_id] = request

        victim_cycle = self._find_cycle(txn_id)
        if victim_cycle is not None:
            self.stats.deadlocks += 1
            self._remove_from_queue(request)
            del self._waiting[txn_id]
            raise DeadlockError(
                f"txn {txn_id} deadlocked on {resource} "
                f"(cycle {victim_cycle})"
            )
        return request

    def _remove_from_queue(self, request: LockRequest) -> None:
        table = self._tables.get(request.resource)
        if table is not None:
            try:
                table.queue.remove(request)
            except ValueError:
                pass

    # -- release --------------------------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """Drop every lock held by ``txn_id`` and fail its pending wait."""
        pending = self._waiting.pop(txn_id, None)
        if pending is not None:
            self._remove_from_queue(pending)
            if pending.pending:
                pending._fail(DeadlockError(f"txn {txn_id} aborted"))
            # FIFO queueing means an incompatible head blocks compatible
            # followers; removing a queued request can therefore unblock
            # the requests behind it even when this txn held nothing on
            # the resource.
            self._regrant(pending.resource)
            table = self._tables.get(pending.resource)
            if table is not None and table.empty():
                del self._tables[pending.resource]
        resources = list(self._held.pop(txn_id, {}))
        for resource in resources:
            table = self._tables[resource]
            table.holders.pop(txn_id, None)
            self._regrant(resource)
            if table.empty():
                del self._tables[resource]

    def release_shared(self, txn_id: int) -> None:
        """Drop read locks only: S and IS released, SIX weakened to IX.

        This is the 2PC PREPARE optimization; exclusive locks are retained
        until commit as 2PC requires.
        """
        held = self._held.get(txn_id, {})
        for resource, mode in list(held.items()):
            if mode in (LockMode.S, LockMode.IS):
                del held[resource]
                table = self._tables[resource]
                table.holders.pop(txn_id, None)
                self._regrant(resource)
                if table.empty():
                    del self._tables[resource]
            elif mode is LockMode.SIX:
                held[resource] = LockMode.IX
                self._tables[resource].holders[txn_id] = LockMode.IX
                self._regrant(resource)

    def _regrant(self, resource: Resource) -> None:
        """Grant queued requests that are now compatible, FIFO order."""
        table = self._tables.get(resource)
        if table is None:
            return
        while table.queue:
            request = table.queue[0]
            ok = all(
                compatible(h, request.mode)
                for holder, h in table.holders.items()
                if holder != request.txn_id
            )
            if not ok:
                return
            table.queue.pop(0)
            table.holders[request.txn_id] = request.mode
            self._held[request.txn_id][resource] = request.mode
            self._waiting.pop(request.txn_id, None)
            request._grant()
            self.stats.acquired += 1

    # -- deadlock detection ------------------------------------------------------

    def waits_for_edges(self) -> Dict[int, Set[int]]:
        """The waits-for graph: waiter -> set of transactions it waits on.

        A waiter waits on (a) holders whose mode conflicts with its request
        and (b) earlier queued waiters whose requested mode conflicts.
        """
        edges: Dict[int, Set[int]] = defaultdict(set)
        for resource, table in self._tables.items():
            for pos, request in enumerate(table.queue):
                for holder, mode in table.holders.items():
                    if holder != request.txn_id and not compatible(mode, request.mode):
                        edges[request.txn_id].add(holder)
                for earlier in table.queue[:pos]:
                    if earlier.txn_id != request.txn_id and not compatible(
                        earlier.mode, request.mode
                    ):
                        edges[request.txn_id].add(earlier.txn_id)
        return dict(edges)

    def _find_cycle(self, start: int) -> Optional[List[int]]:
        """DFS for a waits-for cycle through ``start``."""
        edges = self.waits_for_edges()
        path: List[int] = []
        seen: Set[int] = set()

        def dfs(node: int) -> Optional[List[int]]:
            if node in seen:
                return None
            seen.add(node)
            path.append(node)
            for nxt in edges.get(node, ()):
                if nxt == start:
                    return list(path)
                found = dfs(nxt)
                if found is not None:
                    return found
            path.pop()
            return None

        return dfs(start)
