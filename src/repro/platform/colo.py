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

The colo keeps no placement ledger of its own. Its clusters' replica
maps are the one record of which tenant sits on which machine, and
:meth:`ColoController.place_database` derives each machine's load from
them (plus each tenant's stored requirement) before it runs the
paper's First-Fit, :func:`repro.sla.placement.first_fit`. Recovery and
migration move replicas in the map, so the next placement sees them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.config import ClusterConfig
from repro.cluster.controller import ClusterController, Connection
from repro.cluster.machine import Machine
from repro.errors import ColoFencedError, NoReplicaError, SlaViolationError
from repro.sim import Simulator
from repro.sla.model import ResourceVector
from repro.sla.placement import DatabaseLoad, MachineBin, first_fit


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
        # Each tenant's per-replica requirement. Where its replicas sit
        # is read off the clusters' replica maps when placing.
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
            self.provision_machine(cluster)
        cluster.free_machine_hook = lambda c=cluster: self.provision_machine(c)
        self.clusters[name] = cluster
        return cluster

    def provision_machine(self, cluster: ClusterController) -> Optional[Machine]:
        """Move one machine from the free pool into ``cluster``."""
        if self.free_pool <= 0:
            return None
        self.free_pool -= 1
        return cluster.add_machine()

    def cluster_of(self, db: str) -> ClusterController:
        for cluster in self.clusters.values():
            if db in cluster.replica_map:
                return cluster
        raise NoReplicaError(f"colo {self.name} does not host {db!r}")

    def hosts(self, db: str) -> bool:
        return any(db in cluster.replica_map
                   for cluster in self.clusters.values())

    def bins(self, cluster: ClusterController) -> List[MachineBin]:
        """The load First-Fit sees: one bin per live machine of
        ``cluster``, in its machine order, holding the requirement of
        every tenant the replica map puts there."""
        replica_map = cluster.replica_map
        bins = []
        for name, machine in cluster.machines.items():
            if not machine.alive:
                continue
            machine_bin = MachineBin(name, machine.capacity_vector())
            for db in replica_map.hosted_on(name):
                requirement = self._db_requirements.get(db)
                if requirement is not None:
                    machine_bin.used = machine_bin.used + requirement
            bins.append(machine_bin)
        return bins

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
        self._db_requirements.clear()
        self.alive = True
        self.fenced = False

    def drop_database(self, db: str) -> None:
        """Deregister ``db`` from this colo and drop its data off its
        cluster (which frees the load it placed)."""
        self._db_requirements.pop(db, None)
        for cluster in self.clusters.values():
            if db in cluster.replica_map:
                cluster.drop_database(db)

    # -- SLA-driven database placement ----------------------------------------------

    def place_database(self, db: str, ddl: List[str],
                       requirement: ResourceVector,
                       replicas: int, sla=None) -> ClusterController:
        """Choose machines with First-Fit (Algorithm 2) and create the db.

        Tries each cluster in order over :meth:`bins`; extends a cluster
        from the free pool when the new database's replicas do not fit
        on its current machines (Algorithm 2 lines 12-14). The database
        is created only once every replica has a machine with room.
        """
        if not self.clusters:
            self.add_cluster(machines=min(4, self.free_pool))
        load = DatabaseLoad(db, requirement, replicas)
        last_error: Optional[Exception] = None
        for cluster in self.clusters.values():
            def new_bin(cluster=cluster) -> MachineBin:
                machine = self.provision_machine(cluster)
                if machine is None:
                    raise SlaViolationError(
                        f"colo {self.name}: cannot fit replica of {db!r}")
                return MachineBin(machine.name, machine.capacity_vector())
            try:
                placement = first_fit([load], self.bins(cluster),
                                      new_bin=new_bin)
            except SlaViolationError as exc:
                last_error = exc
                continue
            cluster.create_database(
                db, ddl, machines=placement.assignments[db], sla=sla)
            self._db_requirements[db] = requirement
            return cluster
        raise last_error or SlaViolationError(
            f"colo {self.name}: no cluster can host {db!r}")

    # -- connection routing -----------------------------------------------------------

    def connect(self, db: str) -> Connection:
        if self.fenced:
            raise ColoFencedError(f"colo {self.name} is fenced")
        if not self.alive:
            raise NoReplicaError(f"colo {self.name} is down")
        return self.cluster_of(db).connect(db)
