"""Emulated browsers: the TPC-W client driver.

Each :class:`TpcwClient` is one emulated browser (EB) attached to one
database connection, looping: pick an interaction from the mix, run its
transaction, think, repeat. Aborted transactions (deadlocks, proactive
rejections, failures) are counted and the session continues — exactly how
the paper's load generator keeps running through machine failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.cluster.controller import ClusterController, TransactionAborted
from repro.errors import (DeadlockError, LockTimeoutError,
                          MachineFailedError, NoReplicaError,
                          ProactiveRejectionError)
from repro.sim.rng import SeededRNG
from repro.workloads.tpcw.datagen import TpcwDatabase
from repro.workloads.tpcw.mixes import Mix
from repro.workloads.tpcw.transactions import TpcwSession


@dataclass
class ClientStats:
    """Outcome counters for one emulated browser; ``committed`` and
    ``aborted`` read them as a key-value client's counters are read."""

    completed: int = 0
    deadlocks: int = 0
    rejections: int = 0
    other_aborts: int = 0
    backoffs: int = 0          # retryable rejections waited out with jitter
    by_interaction: Dict[str, int] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        return self.completed

    @property
    def aborted(self) -> int:
        return self.deadlocks + self.rejections + self.other_aborts


class TpcwClient:
    """One emulated browser session against one tenant database."""

    def __init__(self, controller: ClusterController, db_name: str,
                 data: TpcwDatabase, mix: Mix, client_id: int,
                 seed: int = 0, think_time_s: float = 0.05,
                 backoff_s: float = 0.5):
        self.controller = controller
        self.db_name = db_name
        self.data = data
        self.mix = mix
        self.client_id = client_id
        self.rng = SeededRNG(seed).fork(f"client-{db_name}-{client_id}")
        self.think_time_s = think_time_s
        # Base wait after a retryable rejection (admission control's
        # "try again later"); jittered to avoid a synchronised retry
        # stampede. Zero disables the backoff.
        self.backoff_s = backoff_s
        self.stats = ClientStats()

    def run(self, until: Optional[float] = None,
            interactions: Optional[int] = None) -> Generator:
        """Sim process body: run until ``until`` sim-seconds or N interactions.

        At least one bound must be given.
        """
        if until is None and interactions is None:
            raise ValueError("need an 'until' time or an interaction count")
        sim = self.controller.sim
        conn = self.controller.connect(self.db_name)
        customer = self.rng.randint(1, self.data.scale.customers)
        cart = (self.client_id % (self.data.scale.emulated_browsers * 4)) + 1
        session = TpcwSession(conn, self.data, self.rng, customer, cart)
        done = 0
        while True:
            if until is not None and sim.now >= until:
                break
            if interactions is not None and done >= interactions:
                break
            name = self.mix.choose(self.rng)
            try:
                yield from getattr(session, name)()
            except TransactionAborted as exc:
                self._classify(exc)
                if (self.backoff_s > 0
                        and getattr(exc.cause, "retryable", False)):
                    # The platform said "over provisioned rate, retry
                    # later": back off with jitter instead of hammering
                    # the admission gate at full think-time speed.
                    self.stats.backoffs += 1
                    yield sim.timeout(self.backoff_s
                                      * (0.5 + self.rng.random()))
            else:
                self.stats.completed += 1
                self.stats.by_interaction[name] = (
                    self.stats.by_interaction.get(name, 0) + 1)
            done += 1
            if self.think_time_s > 0:
                yield sim.timeout(self.rng.expovariate(1.0 / self.think_time_s))
        conn.close()
        return self.stats

    def _classify(self, exc: TransactionAborted) -> None:
        cause = exc.cause
        if isinstance(cause, (DeadlockError, LockTimeoutError)):
            self.stats.deadlocks += 1
        elif isinstance(cause, (ProactiveRejectionError, MachineFailedError,
                                NoReplicaError)):
            self.stats.rejections += 1
        else:
            self.stats.other_aborts += 1
