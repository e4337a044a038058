"""A minimal key-value workload for tests and micro-experiments.

Clients issue transactions of point reads and updates over a single
``kv(k, v)`` table. Cheap enough for unit tests, contended enough (with a
small key space) to exercise deadlocks, replication, and recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.cluster.controller import ClusterController, TransactionAborted
from repro.errors import ControllerFailedError, NotLeaderError, PlatformError
from repro.sim.rng import SeededRNG

KV_DDL = ("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)",)
#: A reconnecting client waits this long before it connects again.
RECONNECT_S = 0.2


@dataclass
class KvStats:
    committed: int = 0
    aborted: int = 0
    reconnects: int = 0


class KeyValueWorkload:
    """Factory for a tiny keyed table plus client processes over it."""

    def __init__(self, controller: ClusterController, db_name: str = "kv",
                 keys: int = 100, seed: int = 0):
        self.controller = controller
        self.db_name = db_name
        self.keys = keys
        self.seed = seed

    def install(self, replicas: Optional[int] = None) -> None:
        """Create and load the database on the cluster (setup phase)."""
        self.controller.create_database(self.db_name, KV_DDL,
                                        replicas=replicas)
        self.controller.bulk_load(self.db_name, "kv",
                                  [(k, 0) for k in range(self.keys)])

    def client(self, client_id: int, transactions: int,
               reads_per_txn: int = 2, writes_per_txn: int = 1,
               think_time_s: float = 0.0,
               stats: Optional[KvStats] = None) -> Generator:
        """Sim process: run ``transactions`` read/update transactions."""
        rng = SeededRNG(self.seed).fork(f"kv-client-{client_id}")
        sim = self.controller.sim
        conn = None
        while conn is None:
            try:
                conn = self.controller.connect(self.db_name)
            except NotLeaderError:
                # A controller group with peers is still electing its
                # first leader.
                yield sim.timeout(0.05)
        stats = stats if stats is not None else KvStats()
        for _ in range(transactions):
            try:
                yield from self._transaction(conn, rng, reads_per_txn,
                                             writes_per_txn, stats)
            except ControllerFailedError:
                # The controller crashed and this connection's state died
                # with it; a real client would reconnect — this one stops.
                stats.aborted += 1
                break
            if think_time_s > 0:
                yield sim.timeout(rng.expovariate(1.0 / think_time_s))
        conn.close()
        return stats

    def reconnecting_client(self, client_id: int, until: float,
                            reads_per_txn: int = 2, writes_per_txn: int = 1,
                            think_time_s: float = 0.0,
                            stats: Optional[KvStats] = None) -> Generator:
        """Sim process: like :meth:`client`, but until sim time ``until``
        and surviving the controller (a cluster's or a
        :class:`DataPlatform`): a crash, leadership change, lease lapse or
        colo failover kills the connection (a :class:`PlatformError`), and
        the client backs off :data:`RECONNECT_S` and connects again — what
        the paper expects of application clients across a take-over."""
        rng = SeededRNG(self.seed).fork(f"kv-reclient-{client_id}")
        sim = self.controller.sim
        stats = stats if stats is not None else KvStats()
        conn = None
        while sim.now < until:
            if conn is None:
                try:
                    conn = self.controller.connect(self.db_name)
                except PlatformError:
                    yield sim.timeout(RECONNECT_S)
                    continue
            try:
                yield from self._transaction(conn, rng, reads_per_txn,
                                             writes_per_txn, stats)
            except PlatformError:
                # Connection state died with the (old) controller.
                stats.aborted += 1
                stats.reconnects += 1
                conn = None
                yield sim.timeout(RECONNECT_S)
                continue
            if think_time_s > 0:
                yield sim.timeout(rng.expovariate(1.0 / think_time_s))
        if conn is not None:
            conn.close()
        return stats

    def _transaction(self, conn, rng: SeededRNG, reads: int, writes: int,
                     stats: KvStats) -> Generator:
        """``reads`` point reads, ``writes`` updates, a commit; counts the
        outcome unless the connection itself dies (the caller's case)."""
        try:
            for _ in range(reads):
                yield conn.execute("SELECT v FROM kv WHERE k = ?",
                                   (rng.randint(0, self.keys - 1),))
            for _ in range(writes):
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                   (rng.randint(0, self.keys - 1),))
            yield conn.commit()
        except TransactionAborted:
            stats.aborted += 1
        else:
            stats.committed += 1
