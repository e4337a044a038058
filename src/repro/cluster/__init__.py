"""The cluster: machines, the cluster controller, replication, recovery.

This package implements the paper's main technical contribution
(Sections 3 and 4): a cluster controller that coordinates tens of
commodity single-node DBMS instances with read-one-write-all replication
and two-phase commit, recovers from machine failures with Algorithm 1,
and places databases to satisfy SLAs.
"""

from repro.cluster.config import ClusterConfig, MachineConfig
from repro.cluster.consensus import (ConsensusConfig, ConsensusControlPlane,
                                     PaxosGroup)
from repro.cluster.controller import ClusterController, Connection
from repro.cluster.deadlock_detector import DistributedDeadlockDetector
from repro.cluster.machine import Machine
from repro.cluster.migration import MigrationManager
from repro.cluster.recovery import CopyGranularity, RecoveryManager
from repro.cluster.replica_map import ReplicaMap
from repro.cluster.routing import ReadOption, WritePolicy

__all__ = [
    "ClusterConfig",
    "ClusterController",
    "Connection",
    "ConsensusConfig",
    "ConsensusControlPlane",
    "CopyGranularity",
    "DistributedDeadlockDetector",
    "Machine",
    "MachineConfig",
    "MigrationManager",
    "PaxosGroup",
    "ReadOption",
    "RecoveryManager",
    "ReplicaMap",
    "WritePolicy",
]
