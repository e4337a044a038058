"""Multi-granularity strict two-phase locking.

Lock modes are the textbook five (IS, IX, S, SIX, X). Resources are
hashable tuples at two granularities:

* ``("tbl", db, table)`` — intention (IS/IX) locks for row access, full
  S for table scans and the dump tool, X for bulk statements;
* ``("row", db, table, pk)`` — S/X locks on individual rows.

State is flat and exists only where something is true: ``_holders`` maps
a resource to ``{txn: mode}`` while somebody holds it, ``_queues`` maps it
to its FIFO of :class:`LockRequest` while somebody waits, ``_held`` is the
per-transaction inverse of ``_holders`` and ``_waiting`` each blocked
transaction's one pending request. An uncontended lock is therefore two
dict entries, and nothing that handles contention (regrant, the deadlock
search) ever looks at it.

:meth:`LockManager.try_acquire` is the only place a lock is granted
without waiting; :meth:`LockManager.try_acquire_run` applies it to a
sequence of resources in order, up to the first one that would wait.
Its four immediate grants: the transaction already holds
the resource at least as strongly (re-entrant); nobody holds it (first
holder); the other holders' modes are compatible *and nobody is queued*
(FIFO — a compatible newcomer may not barge past a waiter); and an
*upgrade* (strengthening a mode already held) that the other holders
allow. Upgrades ignore the queue, and a blocked upgrade waits at its
front, as in real engines: every queued waiter is already behind the
upgrader's current hold, so sending the upgrade to the back would be a
guaranteed deadlock. :meth:`LockManager.acquire` is ``try_acquire``, else
enqueue; statement runners call ``try_acquire`` directly at a point
site and ``try_acquire_run`` with a chunk's row resources in a range
read, and touch a :class:`LockRequest` only when they really wait.

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
from typing import (Callable, Dict, Hashable, Iterable, List, Optional, Set,
                    Tuple)

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


class LockStats:
    """Cumulative lock-manager counters (per engine instance)."""

    def __init__(self):
        self.acquired = 0
        self.waits = 0
        self.deadlocks = 0

    def snapshot(self) -> Dict[str, int]:
        return {"acquired": self.acquired, "waits": self.waits,
                "deadlocks": self.deadlocks}


def _others_allow(holders: Dict[int, LockMode], txn_id: int,
                  mode: LockMode) -> bool:
    """The grant rule: every holder other than ``txn_id`` coexists with
    ``mode``."""
    for holder, held_mode in holders.items():
        if holder != txn_id and mode not in _COMPAT[held_mode]:
            return False
    return True


class LockManager:
    """Strict-2PL lock manager for one engine instance."""

    def __init__(self):
        self._holders: Dict[Resource, Dict[int, LockMode]] = {}
        self._queues: Dict[Resource, List[LockRequest]] = {}
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

    # -- acquisition ----------------------------------------------------------

    def try_acquire(self, txn_id: int, resource: Resource,
                    mode: LockMode) -> bool:
        """Grant ``mode`` on ``resource`` if that needs no wait.

        The only place a lock is granted without waiting, and it
        allocates nothing beyond the holder map of a resource nobody
        held. True means the lock is held (and counted in
        ``stats.acquired``); False means nothing changed and the caller
        must go through :meth:`acquire`, which will queue the request or
        raise.
        """
        if txn_id in self._waiting:
            return False
        holders = self._holders.get(resource)
        if holders is None:
            self._holders[resource] = {txn_id: mode}
            self._held[txn_id][resource] = mode
        else:
            # A resource's holder map and its holders' ``_held`` entries
            # always agree, so the map answers both questions.
            held_mode = holders.get(txn_id)
            if held_mode is None:
                if (resource in self._queues
                        or not _others_allow(holders, txn_id, mode)):
                    return False
                holders[txn_id] = self._held[txn_id][resource] = mode
            elif held_mode is not mode:
                effective = _SUP[(held_mode, mode)]
                if effective is not held_mode:
                    if not _others_allow(holders, txn_id, effective):
                        return False
                    holders[txn_id] = self._held[txn_id][resource] = effective
        self.stats.acquired += 1
        return True

    def try_acquire_run(self, txn_id: int, resources: Iterable[Resource],
                        mode: LockMode) -> int:
        """:meth:`try_acquire` on each of ``resources`` in order, stopping
        at the first one that would have to wait; returns how many were
        granted.

        The resource it stopped at (if any) is untouched: the caller
        takes it through :meth:`acquire`. A range read passes its row
        resources as one lazy iterable, so granting a run of rows is one
        call.
        """
        grant = self.try_acquire
        granted = 0
        for resource in resources:
            if not grant(txn_id, resource, mode):
                break
            granted += 1
        return granted

    def acquire(self, txn_id: int, resource: Resource,
                mode: LockMode) -> LockRequest:
        """Request ``mode`` on ``resource``: :meth:`try_acquire`, else queue.

        Returns a :class:`LockRequest`; check ``granted``. When the request
        must wait it is queued and the caller should subscribe to
        ``on_grant`` / ``on_fail``. Raises :class:`DeadlockError` if
        granting would create a waits-for cycle through this transaction.
        """
        if txn_id in self._waiting:
            raise RuntimeError(
                f"txn {txn_id} already has a pending lock request"
            )
        if self.try_acquire(txn_id, resource, mode):
            request = LockRequest(txn_id, resource,
                                  self._held[txn_id][resource])
            request.granted = True
            return request

        # Must wait. Upgrades go to the front of the queue.
        held_mode = self._held[txn_id].get(resource)
        self.stats.waits += 1
        queue = self._queues.setdefault(resource, [])
        if held_mode is None:
            request = LockRequest(txn_id, resource, mode)
            queue.append(request)
        else:
            request = LockRequest(txn_id, resource,
                                  _SUP[(held_mode, mode)])
            queue.insert(0, request)
        self._waiting[txn_id] = request

        victim_cycle = self._find_cycle(txn_id)
        if victim_cycle is not None:
            self.stats.deadlocks += 1
            self._dequeue(request)
            del self._waiting[txn_id]
            raise DeadlockError(
                f"txn {txn_id} deadlocked on {resource} "
                f"(cycle {victim_cycle})"
            )
        return request

    def _dequeue(self, request: LockRequest) -> None:
        queue = self._queues.get(request.resource)
        if queue is not None and request in queue:
            queue.remove(request)
            if not queue:
                del self._queues[request.resource]

    # -- release --------------------------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """Drop every lock held by ``txn_id`` and fail its pending wait."""
        pending = self._waiting.pop(txn_id, None)
        if pending is not None:
            self._dequeue(pending)
            if pending.pending:
                pending._fail(DeadlockError(f"txn {txn_id} aborted"))
            # FIFO queueing means an incompatible head blocks compatible
            # followers; removing a queued request can therefore unblock
            # the requests behind it even when this txn held nothing on
            # the resource.
            self._regrant(pending.resource)
        self._unhold(txn_id, self._held.pop(txn_id, ()))

    def release_shared(self, txn_id: int) -> None:
        """Drop read locks only: S and IS released, SIX weakened to IX.

        This is the 2PC PREPARE optimization; exclusive locks are retained
        until commit as 2PC requires.
        """
        held = self._held.get(txn_id, {})
        for resource, mode in list(held.items()):
            if mode in (LockMode.S, LockMode.IS):
                del held[resource]
                self._unhold(txn_id, (resource,))
            elif mode is LockMode.SIX:
                held[resource] = LockMode.IX
                self._holders[resource][txn_id] = LockMode.IX
                self._regrant(resource)

    def _unhold(self, txn_id: int, resources: Iterable[Resource]) -> None:
        """Take ``txn_id`` out of each resource's holder map, in order,
        waking the resource's waiters."""
        all_holders = self._holders
        queues = self._queues
        for resource in resources:
            holders = all_holders[resource]
            del holders[txn_id]
            if not holders:
                del all_holders[resource]
            if queues and resource in queues:
                self._regrant(resource)

    def _regrant(self, resource: Resource) -> None:
        """Grant queued requests that are now compatible, FIFO order."""
        queue = self._queues.get(resource)
        if queue is None:
            return
        while queue:
            request = queue[0]
            holders = self._holders.setdefault(resource, {})
            if not _others_allow(holders, request.txn_id, request.mode):
                return
            queue.pop(0)
            holders[request.txn_id] = request.mode
            self._held[request.txn_id][resource] = request.mode
            self._waiting.pop(request.txn_id, None)
            request._grant()
            self.stats.acquired += 1
        del self._queues[resource]

    # -- deadlock detection ------------------------------------------------------

    def waits_for_edges(self) -> Dict[int, Set[int]]:
        """The waits-for graph: waiter -> set of transactions it waits on.

        A waiter waits on (a) holders whose mode conflicts with its request
        and (b) earlier queued waiters whose requested mode conflicts.
        Only contended resources have a queue, so the cost is independent
        of how many uncontended locks are held.
        """
        edges: Dict[int, Set[int]] = defaultdict(set)
        for resource, queue in self._queues.items():
            holders = self._holders[resource]
            for pos, request in enumerate(queue):
                for holder, mode in holders.items():
                    if holder != request.txn_id and not compatible(mode, request.mode):
                        edges[request.txn_id].add(holder)
                for earlier in queue[:pos]:
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
