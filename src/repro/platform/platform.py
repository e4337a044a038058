"""The public facade: the paper's two-call API.

"The proposed system provides the illusion of one large centralized
fault-tolerant DBMS that supports the following API:
1. Create a database along with an associated SLA
2. Connect to a previously created database... and perform the set of
   operations supported by JDBC."

:class:`DataPlatform` wires the tiers together: it profiles the SLA into
a resource vector, picks a primary (and optionally standby) colo, places
replicas with First-Fit inside a cluster, registers async cross-colo
shipping, and hands out connections routed by the system controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.config import ClusterConfig
from repro.cluster.controller import Connection
from repro.cluster.network import NetworkConfig
from repro.errors import SlaViolationError
from repro.platform.colo import ColoController
from repro.platform.system_controller import SystemController
from repro.sim import Simulator
from repro.sla.model import ResourceVector, Sla
from repro.sla.profiler import estimate_requirements


@dataclass
class DatabaseSpec:
    """What a tenant supplies when creating a database."""

    name: str
    ddl: List[str]
    sla: Sla
    expected_size_mb: float = 100.0
    write_mix: float = 0.2
    replicas: int = 2
    disaster_recovery: bool = True


class DataPlatform:
    """The illusion of one large centralized fault-tolerant DBMS."""

    def __init__(self, sim: Optional[Simulator] = None,
                 cluster_config: Optional[ClusterConfig] = None,
                 wan_latency_s: float = 0.05,
                 wan: Optional[NetworkConfig] = None,
                 **system_kwargs):
        self.sim = sim or Simulator()
        self.cluster_config = cluster_config or ClusterConfig()
        self.system = SystemController(self.sim, wan_latency_s, wan=wan,
                                       **system_kwargs)
        self.specs: Dict[str, DatabaseSpec] = {}

    # -- infrastructure -----------------------------------------------------------

    def add_colo(self, name: str, free_machines: int = 10,
                 location: float = 0.0) -> ColoController:
        colo = ColoController(self.sim, name, self.cluster_config,
                              free_machines=free_machines,
                              location=location)
        self.system.add_colo(colo)
        return colo

    # -- the paper's API, call 1 -----------------------------------------------------

    def create_database(self, spec: DatabaseSpec) -> None:
        """Create a database with an SLA.

        The size and SLA must fit one machine — the system's one stated
        restriction — otherwise :class:`SlaViolationError` is raised by
        placement.
        """
        if not self.system.colos:
            raise SlaViolationError("no colos registered")
        if spec.name in self.specs:
            raise SlaViolationError(f"database {spec.name!r} exists")
        requirement = estimate_requirements(
            spec.expected_size_mb, spec.sla.min_throughput_tps,
            spec.write_mix,
            engine=self.cluster_config.machine.engine)
        capacity = None
        colos = self.system.live_colos()
        # Primary: least-loaded colo (by free pool, descending).
        colos.sort(key=lambda c: -c.free_pool)
        primary = colos[0]
        primary.place_database(spec.name, spec.ddl, requirement,
                               spec.replicas, sla=spec.sla)
        standby_name = None
        if spec.disaster_recovery and len(colos) > 1:
            # Placed for the same load, but without the SLA: the standby
            # replays shipped commits (platform traffic, not the
            # tenant's), and takes the SLA only when promoted.
            standby = colos[1]
            standby.place_database(spec.name, spec.ddl, requirement,
                                   max(1, spec.replicas - 1))
            standby_name = standby.name
        # The DDL and requirement ride along so the system controller
        # can re-protect the database (fresh standby from snapshot +
        # catch-up) after a colo failover; the SLA so the promoted copy
        # enforces it.
        self.system.register_database(
            spec.name, primary.name, standby_name,
            ddl=spec.ddl, requirement=requirement,
            standby_replicas=max(1, spec.replicas - 1), sla=spec.sla)
        self.specs[spec.name] = spec

    def drop_database(self, db: str) -> None:
        """Remove a database from every colo and stop its replication."""
        self.system.deregister_database(db)
        self.specs.pop(db, None)

    # -- the paper's API, call 2 -----------------------------------------------------

    def connect(self, db: str, client_location: float = 0.0) -> Connection:
        """Connect to a previously created database (JDBC stand-in)."""
        return self.system.connect(db, client_location)

    # -- operational helpers -----------------------------------------------------------

    def bulk_load(self, db: str, table: str, rows: Sequence) -> None:
        """Load initial data into every colo's copy (setup phase)."""
        primary, standby = self.system.placements[db]
        for colo_name in (primary, standby):
            if colo_name is None:
                continue
            colo = self.system.colos[colo_name]
            colo.cluster_of(db).bulk_load(db, table, rows)
