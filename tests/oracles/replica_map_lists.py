"""Reference replica map: ``repro/cluster/replica_map.py`` while every
database held a private, mutable list of machine names, verbatim.

``add_database`` copies the placement into a fresh list, ``add_replica``
appends to it and ``remove_machine`` removes from it in place.
``tests/property/test_replica_map_property.py`` drives it and the
production map, whose equal placements share one interned tuple, with
one operation script and requires the same answers after every step.
The original module docstring follows.

The cluster controller's map of databases to machines.

Each database maps to an *ordered* list of machine names; the first live
entry acts as the designated primary for read Option 1. The map is the
authority on which machines writes fan out to and which machine serves a
read.

The map also maintains *incremental* per-machine placement counts —
how many databases each machine hosts and for how many it is the
designated primary — so the controller's placement decision at
``create_database`` is O(live machines) instead of a rescan of every
hosted database (O(N) per create, O(N²) for N creates).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import NoReplicaError


class ReplicaMap:
    """Ordered replica placement for every hosted database."""

    def __init__(self):
        self._replicas: Dict[str, List[str]] = {}
        # machine -> number of databases whose replica list it appears in.
        self._hosted_counts: Dict[str, int] = {}
        # machine -> number of databases whose *first* replica it is.
        self._primary_counts: Dict[str, int] = {}

    def databases(self) -> List[str]:
        return list(self._replicas)

    def database_count(self) -> int:
        return len(self._replicas)

    def has(self, db: str) -> bool:
        return db in self._replicas

    def __contains__(self, db: str) -> bool:
        return db in self._replicas

    def add_database(self, db: str, machines: List[str]) -> None:
        if db in self._replicas:
            raise ValueError(f"database {db!r} already placed")
        if len(set(machines)) != len(machines):
            raise ValueError(f"duplicate machines in placement: {machines}")
        self._replicas[db] = list(machines)
        for name in machines:
            self._bump(self._hosted_counts, name, 1)
        if machines:
            self._bump(self._primary_counts, machines[0], 1)

    def drop_database(self, db: str) -> None:
        replicas = self._replicas.pop(db, None)
        if not replicas:
            return
        for name in replicas:
            self._bump(self._hosted_counts, name, -1)
        self._bump(self._primary_counts, replicas[0], -1)

    def clear(self) -> None:
        """Forget every placement, in place: the controller's roles
        share this one map object."""
        self._replicas.clear()
        self._hosted_counts.clear()
        self._primary_counts.clear()

    def replicas(self, db: str) -> List[str]:
        """Ordered replica list (may include failed machines)."""
        if db not in self._replicas:
            raise NoReplicaError(f"database {db!r} is not hosted here")
        return list(self._replicas[db])

    def replicas_view(self, db: str) -> Sequence[str]:
        """Like :meth:`replicas` but without the defensive copy.

        Hot-path accessor: callers must not mutate the returned list and
        must not hold it across map mutations.
        """
        replicas = self._replicas.get(db)
        if replicas is None:
            raise NoReplicaError(f"database {db!r} is not hosted here")
        return replicas

    def add_replica(self, db: str, machine: str) -> None:
        replicas = self._replicas.get(db)
        if replicas is None:
            raise NoReplicaError(f"database {db!r} is not hosted here")
        if machine not in replicas:
            was_empty = not replicas
            replicas.append(machine)
            self._bump(self._hosted_counts, machine, 1)
            if was_empty:
                self._bump(self._primary_counts, machine, 1)

    def remove_machine(self, machine: str) -> List[str]:
        """Remove a failed machine everywhere; returns affected databases."""
        if self._hosted_counts.get(machine, 0) == 0:
            return []  # hosts nothing: skip the scan entirely
        affected = []
        for db, replicas in self._replicas.items():
            if machine in replicas:
                was_primary = replicas[0] == machine
                replicas.remove(machine)
                self._bump(self._hosted_counts, machine, -1)
                if was_primary:
                    self._bump(self._primary_counts, machine, -1)
                    if replicas:
                        # Primary hand-off: the next ordered replica
                        # serves Option-1 reads from now on.
                        self._bump(self._primary_counts, replicas[0], 1)
                affected.append(db)
        return affected

    def hosted_on(self, machine: str) -> List[str]:
        return [db for db, reps in self._replicas.items() if machine in reps]

    def hosted_count(self, machine: str) -> int:
        """Databases with a replica on ``machine`` — O(1), equals
        ``len(hosted_on(machine))``."""
        return self._hosted_counts.get(machine, 0)

    def primary_count(self, machine: str) -> int:
        """Databases whose designated primary is ``machine`` — O(1)."""
        return self._primary_counts.get(machine, 0)

    def replica_count(self, db: str) -> int:
        return len(self._replicas.get(db, ()))

    @staticmethod
    def _bump(counts: Dict[str, int], name: str, delta: int) -> None:
        value = counts.get(name, 0) + delta
        if value:
            counts[name] = value
        else:
            counts.pop(name, None)
