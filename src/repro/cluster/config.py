"""Cluster and machine configuration.

Machine defaults mirror the paper's testbed per machine: two CPUs, one
disk, 4 GB of memory with a 2 GB buffer pool, all machines on one rack
(sub-millisecond network). Capacities are expressed in the same resource
dimensions the SLA placement of Section 4 packs against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.config import EngineConfig
from repro.cluster.consensus import ConsensusConfig
from repro.cluster.network import NetworkConfig
from repro.cluster.routing import ReadOption, WritePolicy


@dataclass
class MachineConfig:
    """Physical characteristics of one cluster machine."""

    cores: int = 2
    disks: int = 1
    memory_mb: float = 4096.0
    disk_mb: float = 200_000.0
    disk_bandwidth_mbps: float = 60.0     # copy read/write throughput
    network_mbps: float = 100.0           # rack network per machine
    # Same-rack round trip for bulk copy streams. Per-message latency
    # lives on the network fabric (ClusterConfig.network.latency_s);
    # this survives for the copy-transfer charge of recovery/migration.
    network_latency_s: float = 0.0002
    # Scale factor applied to copied bytes when charging copy I/O and
    # network transfer. The simulated data generator produces rows ~3
    # orders of magnitude smaller than the paper's 200 MB-1 GB databases;
    # this factor restores paper-scale copy (recovery) durations without
    # paying for paper-scale row counts in Python.
    copy_bytes_factor: float = 1.0
    engine: EngineConfig = field(default_factory=EngineConfig)


@dataclass
class ClusterConfig:
    """Policy knobs of one cluster controller: only what some caller
    sets to another value; the rest are constants beside their readers
    (DESIGN §4v)."""

    read_option: ReadOption = ReadOption.OPTION_1
    write_policy: WritePolicy = WritePolicy.CONSERVATIVE
    replication_factor: int = 2
    # Bound on the statement-classification cache (parsed kind/table per
    # distinct SQL string). Least-recently-used entries are evicted past
    # this size; 0 means unbounded. Evictions are counted in
    # ``MetricsCollector.stmt_cache_evictions``.
    stmt_cache_size: int = 1024
    # Lock waits longer than this abort the transaction; resolves
    # distributed deadlocks that no single machine can see locally.
    lock_wait_timeout_s: float = 5.0
    # Recovery: number of concurrent database copy processes.
    recovery_threads: int = 1
    # Entries of the per-database commit log retained for delta catch-up
    # (snapshot pins hold truncation back further while a copy is in
    # flight). A rejoining machine whose last durable LSN fell behind
    # the retained tail is wiped to a blank spare instead.
    replication_log_retain: int = 512
    machine: MachineConfig = field(default_factory=MachineConfig)
    # Record operation histories for serializability checking (adds
    # overhead; enable in correctness experiments).
    record_history: bool = False
    # Ring-buffer size of the cluster event trace (repro.analysis.trace);
    # the most recent events are kept, older ones dropped and counted.
    trace_capacity: int = 65536
    # Simulated unreliable network fabric (repro.cluster.network). When
    # ``network.enabled`` is False (default) messages are delivered
    # directly with no latency, loss, or timeouts — the pre-fabric
    # behaviour — and the heartbeat failure detector is unavailable.
    network: NetworkConfig = field(default_factory=NetworkConfig)
    # Heartbeat failure detection (requires the fabric): the controller
    # pings every machine each interval; a machine is *suspected* after
    # ``suspect_after_misses`` consecutive misses and *declared* dead
    # (fenced, removed from the replica map, recovery scheduled) after
    # ``declare_after_misses``.
    heartbeat_interval_s: float = 0.5
    suspect_after_misses: int = 2
    declare_after_misses: int = 5
    # The control plane (repro.cluster.consensus): the controller is a
    # multi-Paxos group with leader leases, and 2PC commit decisions
    # replicate through its log. One replica (the default) is a
    # controller that restarts from its own decision table, the paper's
    # process pair; three or more fail over to whichever replica wins
    # the next election (DESIGN §4u).
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    # Read shedding: under the conservative write policy, a read whose
    # chosen replica has this many sim processes in flight spills to the
    # least-loaded live replica (0 = never shed). Per-tenant admission
    # (repro.cluster.admission) needs no field: a tenant's SLA is its
    # configuration, and one without an SLA is never throttled.
    shed_inflight_watermark: int = 8


def production_profile(seed: int) -> ClusterConfig:
    """The configuration we would run, and the one spelling of it: the
    values of the end-to-end benchmark's ``PROD_PROFILE``, with ``seed``
    feeding both random streams (fabric jitter, election jitter). Tests
    and soaks that run a variant say what they vary with
    :func:`dataclasses.replace`."""
    return ClusterConfig(
        replication_factor=3,
        network=NetworkConfig(enabled=True, latency_s=0.0005,
                              jitter_s=0.0001, drop_probability=0.0,
                              seed=seed),
        consensus=ConsensusConfig(replicas=3, seed=seed))
