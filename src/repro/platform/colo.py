"""The colo controller: clusters plus a pool of free machines.

"Each colo contains one or more machine clusters... The clusters are
coordinated by a fault-tolerant colo controller, which routes client
database connection requests to the appropriate cluster that hosts the
database. In addition, the colo controller manages a pool of free
machines and adds them to clusters as needed."

For disaster recovery the colo itself is a failure domain: it can
*crash* (go silent — only the system controller's heartbeat detector
notices), be *fenced* (declared dead under a new epoch; new connections
are refused and log shipping from it stops), and be *repaired* (wiped
back to blank clusters, rejoining as a re-protection target).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.config import ClusterConfig
from repro.cluster.controller import ClusterController, Connection
from repro.cluster.machine import Machine
from repro.errors import ColoFencedError, NoReplicaError, SlaViolationError
from repro.sim import Simulator
from repro.sla.model import ResourceVector
from repro.sla.placement import DatabaseLoad, MachineBin


class ColoController:
    """One physical location: clusters, free pool, connection routing."""

    def __init__(self, sim: Simulator, name: str,
                 cluster_config: Optional[ClusterConfig] = None,
                 free_machines: int = 10,
                 location: float = 0.0):
        self.sim = sim
        self.name = name
        self.cluster_config = cluster_config or ClusterConfig()
        self.clusters: Dict[str, ClusterController] = {}
        self.free_pool = free_machines
        # Abstract geographic coordinate used for proximity routing.
        self.location = location
        # Colo-level failure state. ``alive`` goes False on a silent
        # crash; ``fenced`` is set by the system controller's declare.
        self.alive = True
        self.fenced = False
        # True once the colo has ever been crashed/failed; a later
        # re-protection onto it is a failback.
        self.was_failed = False
        # db -> cluster name
        self._db_cluster: Dict[str, str] = {}
        # Placement bookkeeping: machine name -> bin (capacity/used),
        # plus each database's machines and per-replica requirement so
        # bins can be released when the database or machine goes away.
        self._bins: Dict[str, MachineBin] = {}
        self._db_machines: Dict[str, List[str]] = {}
        self._db_requirements: Dict[str, ResourceVector] = {}

    # -- cluster management -------------------------------------------------------

    def add_cluster(self, name: Optional[str] = None,
                    machines: int = 4) -> ClusterController:
        name = name or f"{self.name}-cluster{len(self.clusters) + 1}"
        if machines > self.free_pool:
            raise SlaViolationError(
                f"colo {self.name}: free pool has {self.free_pool} machines, "
                f"requested {machines}")
        cluster = ClusterController(self.sim, self.cluster_config, name=name)
        for _ in range(machines):
            self._provision(cluster)
        cluster.free_machine_hook = lambda c=cluster: self.provision_machine(c)
        cluster.machine_reset_hook = self._release_machine_bin
        cluster.machine_rejoin_hook = (
            lambda m, c=cluster: self._rebind_machine_bin(c, m))
        self.clusters[name] = cluster
        return cluster

    def _provision(self, cluster: ClusterController) -> Machine:
        if self.free_pool <= 0:
            raise SlaViolationError(f"colo {self.name}: free pool exhausted")
        self.free_pool -= 1
        machine = cluster.add_machine()
        self._bins[machine.name] = MachineBin(machine.name,
                                              machine.capacity_vector())
        return machine

    def provision_machine(self, cluster: ClusterController) -> Optional[Machine]:
        """Move one machine from the free pool into ``cluster``."""
        if self.free_pool <= 0:
            return None
        return self._provision(cluster)

    def _release_machine_bin(self, machine_name: str) -> None:
        """A machine left service with its data (failed/declared) or
        rejoined as a blank spare: whatever was packed on it is gone, so
        its bin must stop counting that load against colo capacity."""
        machine_bin = self._bins.get(machine_name)
        if machine_bin is None:
            return
        for db in list(machine_bin.hosted):
            machines = self._db_machines.get(db)
            if machines and machine_name in machines:
                machines.remove(machine_name)
        machine_bin.reset()

    def _rebind_machine_bin(self, cluster: ClusterController,
                            machine_name: str) -> None:
        """A declared machine rejoined *with its data* (delta catch-up):
        re-account the databases it now serves against its bin, which
        :meth:`_release_machine_bin` emptied at the declaration."""
        machine_bin = self._bins.get(machine_name)
        if machine_bin is None:
            return
        for db in cluster.replica_map.hosted_on(machine_name):
            machines = self._db_machines.get(db)
            requirement = self._db_requirements.get(db)
            if machines is None or requirement is None:
                continue  # not placed through this colo's bins
            if machine_name in machines:
                continue  # bin never released (already accounted)
            if not machine_bin.can_fit(requirement):
                continue  # packed over meanwhile; leave under-accounted
            machine_bin.place(DatabaseLoad(db, requirement, replicas=1))
            machines.append(machine_name)

    def cluster_of(self, db: str) -> ClusterController:
        if db not in self._db_cluster:
            raise NoReplicaError(f"colo {self.name} does not host {db!r}")
        return self.clusters[self._db_cluster[db]]

    def hosts(self, db: str) -> bool:
        return db in self._db_cluster

    # -- colo-level failure / repair ------------------------------------------------

    def crash(self) -> None:
        """Power the colo off silently (detection-only, like
        :meth:`ClusterController.crash_machine` one tier up). Every
        cluster's controller replicas crash so in-flight client work
        errors out; machines keep their state for a potential (stale,
        unused) restart."""
        if not self.alive:
            return
        self.alive = False
        self.was_failed = True
        for cluster in self.clusters.values():
            cluster.consensus.crash_all()

    def fence(self) -> None:
        """Fence the colo after the system controller declares it.

        Models the colo-side lease expiring with the declaration: even
        if the colo is alive behind a partition, it refuses new
        connections (:class:`ColoFencedError`), its cluster controllers
        stop committing, and its shipper loops observe the flag and
        stop. Reversible only through :meth:`repair` (a blank rejoin).
        """
        if self.fenced:
            return
        self.fenced = True
        self.was_failed = True
        for cluster in self.clusters.values():
            cluster.consensus.crash_all()

    def repair(self) -> None:
        """Wipe the colo back to blank clusters and rejoin service.

        The colo's databases were promoted away (or lost) when it was
        declared; its state is stale and must never be served. Every
        cluster resets to blank spares and the colo re-enters as an
        empty re-protection target — the failback path.
        """
        for cluster in self.clusters.values():
            cluster.reset_as_blank()
        self._db_cluster.clear()
        self._db_machines.clear()
        self._db_requirements.clear()
        self.alive = True
        self.fenced = False

    def drop_database(self, db: str) -> None:
        """Deregister ``db`` from this colo: drop the data off its
        cluster and give the placement load back to the bins."""
        requirement = self._db_requirements.pop(db, None)
        for machine_name in self._db_machines.pop(db, []):
            machine_bin = self._bins.get(machine_name)
            if machine_bin is not None and requirement is not None:
                machine_bin.release(db, requirement)
        cluster_name = self._db_cluster.pop(db, None)
        if cluster_name is not None:
            self.clusters[cluster_name].drop_database(db)

    # -- SLA-driven database placement ----------------------------------------------

    def place_database(self, db: str, ddl: List[str],
                       requirement: ResourceVector,
                       replicas: int, sla=None) -> ClusterController:
        """Choose machines with First-Fit (Algorithm 2) and create the db.

        Tries each cluster in order; extends a cluster from the free pool
        when the new database's replicas do not fit on its current
        machines (Algorithm 2 lines 12-14).
        """
        if not self.clusters:
            self.add_cluster(machines=min(4, self.free_pool))
        last_error: Optional[Exception] = None
        for cluster in self.clusters.values():
            try:
                machines = self._fit_in_cluster(cluster, db, requirement,
                                                replicas)
            except SlaViolationError as exc:
                last_error = exc
                continue
            cluster.create_database(db, ddl, machines=machines, sla=sla)
            for machine_name in machines:
                self._bins[machine_name].place(
                    DatabaseLoad(db, requirement, replicas=1))
            self._db_cluster[db] = cluster.name
            self._db_machines[db] = list(machines)
            self._db_requirements[db] = requirement
            return cluster
        raise last_error or SlaViolationError(
            f"colo {self.name}: no cluster can host {db!r}")

    def _fit_in_cluster(self, cluster: ClusterController, db: str,
                        requirement: ResourceVector,
                        replicas: int) -> List[str]:
        ordered_bins = [self._bins[name] for name in cluster.machines
                        if cluster.machines[name].alive]
        chosen: List[str] = []
        for _ in range(replicas):
            placed = False
            for machine_bin in ordered_bins:
                if machine_bin.name in chosen:
                    continue
                if machine_bin.can_fit(requirement):
                    chosen.append(machine_bin.name)
                    placed = True
                    break
            if not placed:
                machine = self.provision_machine(cluster)
                if machine is None:
                    raise SlaViolationError(
                        f"colo {self.name}: cannot fit replica of {db!r}")
                chosen.append(machine.name)
                ordered_bins.append(self._bins[machine.name])
        return chosen

    # -- connection routing -----------------------------------------------------------

    def connect(self, db: str) -> Connection:
        if self.fenced:
            raise ColoFencedError(f"colo {self.name} is fenced")
        if not self.alive:
            raise NoReplicaError(f"colo {self.name} is down")
        return self.cluster_of(db).connect(db)
