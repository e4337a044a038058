"""Planned replica migration — the SLA model's "reallocation rate".

Section 4.1 counts, besides failures, "the number of times a replica of
database j is moved from one machine to another during time period T due
to system maintenance and reorganization". This module implements those
planned moves on the machinery Algorithm 1 provides for recovery copies
(:func:`repro.cluster.recovery.copy_replica`: the same copy pipeline,
the same write rejection window, the same consistency argument) —
because a migration *is* a replica creation followed by retiring the old
replica. What is left here is validation, the replica switch and the
grace-period retire.

:class:`MigrationManager` offers one-shot ``migrate_replica`` plus a
simple ``rebalance_once`` policy (move a replica off the most-loaded
machine), the paper's "database placement and migration within a cluster
so that the SLAs ... are satisfied".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.cluster.controller import ClusterController
from repro.cluster.recovery import CopyGranularity, copy_replica
from repro.errors import PlatformError
from repro.sim import Process


class MigrationError(PlatformError):
    """The requested migration is not possible."""


@dataclass
class MigrationRecord:
    """One completed replica move."""

    db: str
    source: str
    target: str
    started_at: float
    finished_at: float
    bytes_copied: int

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class MigrationManager:
    """Moves database replicas between machines under live traffic."""

    def __init__(self, controller: ClusterController,
                 granularity: CopyGranularity = CopyGranularity.TABLE,
                 drop_grace_s: float = 10.0):
        self.controller = controller
        self.sim = controller.sim
        self.granularity = granularity
        # How long the retired replica's data lingers before being
        # dropped (lets transactions that still hold locks there finish).
        self.drop_grace_s = drop_grace_s
        self.records: List[MigrationRecord] = []

    # -- public API ------------------------------------------------------------

    def migrate_replica(self, db: str, source: str,
                        target: str) -> Process:
        """Start moving ``db``'s replica from ``source`` to ``target``.

        Returns the sim process; its value is the
        :class:`MigrationRecord`. Raises :class:`MigrationError`
        synchronously on invalid arguments.
        """
        self._validate(db, source, target)
        return self.sim.process(self._migrate(db, source, target),
                                name=f"migrate:{db}:{source}->{target}")

    def rebalance_once(self) -> Optional[Process]:
        """Move one replica from the most- to the least-loaded machine.

        Load is the hosted-replica count (the paper's coarse-grained
        "observation and appropriate reaction"). Returns None when the
        cluster is already balanced (spread <= 1).
        """
        machines = self.controller.live_machines()
        if len(machines) < 2:
            return None
        loads = sorted(
            machines,
            key=lambda m: self.controller.replica_map.hosted_count(m.name))
        least, most = loads[0], loads[-1]
        most_load = self.controller.replica_map.hosted_count(most.name)
        least_load = self.controller.replica_map.hosted_count(least.name)
        if most_load - least_load <= 1:
            return None
        for db in self.controller.replica_map.hosted_on(most.name):
            try:
                self._validate(db, most.name, least.name)
            except MigrationError:
                continue
            return self.migrate_replica(db, most.name, least.name)
        return None

    # -- internals ---------------------------------------------------------------

    def _validate(self, db: str, source: str, target: str) -> None:
        controller = self.controller
        if db in controller.copy_states:
            raise MigrationError(f"{db!r} is already being copied")
        replicas = controller.replica_map.replicas(db)
        if source not in replicas:
            raise MigrationError(f"{source!r} does not host {db!r}")
        if target in replicas:
            raise MigrationError(f"{target!r} already hosts {db!r}")
        for name in (source, target):
            machine = controller.machines.get(name)
            if machine is None or not machine.alive:
                raise MigrationError(f"machine {name!r} is not alive")
        if controller.machines[target].engine.hosts(db):
            raise MigrationError(f"{target!r} still has old data for {db!r}")

    def _migrate(self, db: str, source_name: str,
                 target_name: str) -> Generator:
        controller = self.controller
        started = self.sim.now
        controller.ensure_materialised(db)

        # Phase 1: build the new replica with recovery's copy pipeline
        # (a full copy: the move is planned, so nothing needs catching
        # up). If the source or target dies it abandons; recovery (if
        # attached) restores the replication factor.
        total, _lsn = yield from copy_replica(
            controller, db, source_name, target_name,
            self.granularity.value, event="migration")

        # Phase 2: switch replicas — the new one in, the old one out.
        controller.replica_map.add_replica(db, target_name)
        replicas = controller.replica_map.replicas(db)
        replicas.remove(source_name)
        controller.replica_map.drop_database(db)
        controller.replica_map.add_database(db, replicas)
        controller.trace.emit(
            "migration_done", db=db, machine=target_name, source=source_name,
            replicas=controller.replica_map.replica_count(db), bytes=total)

        record = MigrationRecord(db, source_name, target_name, started,
                                 self.sim.now, total)
        self.records.append(record)

        # Phase 3: retire the old replica's data after a grace period
        # (transactions that already hold locks there still finish).
        self.sim.process(self._retire(db, source_name),
                         name=f"retire:{db}@{source_name}").defused = True
        return record

    def _retire(self, db: str, source_name: str) -> Generator:
        yield self.sim.timeout(self.drop_grace_s)
        machine = self.controller.machines.get(source_name)
        if machine is not None and machine.alive and machine.engine.hosts(db):
            machine.engine.drop_database(db)
