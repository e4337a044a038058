"""The experiment drivers that stay functions.

The cluster-tier soaks are declarations (:mod:`repro.harness.soaks`) run
by the one soak loop (:mod:`repro.harness.scenario`). What is here does
not have that shape — TPC-W clusters (Figures 2-9), a placement
computation (Table 2), a commit-latency measurement that runs its
clients dry, a platform-tier disaster soak over colos, 20 000 staged
tenants — and forcing it through the loop would grow the loop. Their
faults are still schedules on the soaks' one applier
(:func:`repro.harness.faults.apply`).

Every parameter has a caller (``tests/unit/test_harness.py`` walks the
call sites); a value nobody varies is a constant next to the comment
that explains it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import MetricsCollector
from repro.cluster import (ClusterConfig, ClusterController, ReadOption,
                           RecoveryManager, WritePolicy)
from repro.cluster.controller import TransactionAborted
from repro.cluster.network import NetworkConfig
from repro.cluster.recovery import RecoveryRecord
from repro.errors import PlatformError
from repro.harness.faults import Applied, Fault, apply, wan_cuts
from repro.harness.scenario import start_after
from repro.platform import DataPlatform, DatabaseSpec
from repro.sim import Simulator
from repro.sim.rng import SeededRNG, ZipfGenerator
from repro.sla.model import ResourceVector, Sla
from repro.sla.placement import DatabaseLoad, MachineBin, first_fit
from repro.sla.optimal import optimal_machine_count
from repro.sla.profiler import estimate_requirements
from repro.workloads.microbench import KV_DDL, KeyValueWorkload, KvStats
from repro.workloads.tpcw import (MIXES, TpcwClient, TpcwDatabase, TpcwScale)
from repro.workloads.tpcw.schema import TPCW_DDL


@dataclass
class TpcwRunResult:
    """Aggregate outcome of one TPC-W cluster run."""

    sim_seconds: float
    committed: int
    deadlocks: int
    rejections: int
    throughput_tps: float
    deadlock_rate_per_s: float
    buffer_hit_rate: float
    metrics: MetricsCollector
    controller: ClusterController = field(repr=False, default=None)


def _build_tpcw_cluster(
    sim: Simulator,
    config: ClusterConfig,
    machines: int,
    n_databases: int,
    scale: TpcwScale,
    seed: int,
) -> Tuple[ClusterController, List[TpcwDatabase]]:
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    datasets: List[TpcwDatabase] = []
    for i in range(n_databases):
        data = TpcwDatabase(scale, seed=seed + i)
        db_name = f"tpcw{i}"
        controller.create_database(db_name, TPCW_DDL)
        data.load_into(controller, db_name)
        datasets.append(data)
    return controller, datasets


def run_tpcw_cluster(
    mix_name: str = "shopping",
    read_option: ReadOption = ReadOption.OPTION_1,
    write_policy: WritePolicy = WritePolicy.CONSERVATIVE,
    machines: int = 4,
    n_databases: int = 4,
    replicas: int = 2,
    clients_per_db: int = 4,
    duration_s: float = 30.0,
    scale: Optional[TpcwScale] = None,
    think_time_s: float = 0.2,
    buffer_pool_pages: Optional[int] = None,
    lock_wait_timeout_s: float = 5.0,
    nonlocking_reads: bool = False,
) -> TpcwRunResult:
    """One steady-state TPC-W run; returns cluster-level aggregates.

    ``replicas=1`` gives the paper's no-replication baseline.
    ``nonlocking_reads=True`` gives MySQL-style consistent reads (used by
    the deadlock-rate experiments).
    """
    sim = Simulator()
    seed = 7
    scale = scale or TpcwScale(items=500, emulated_browsers=clients_per_db)
    # The read option is the variable under study (Figures 2-7): read
    # shedding would move reads off the replica the option picked.
    config = ClusterConfig(read_option=read_option,
                           write_policy=write_policy,
                           replication_factor=replicas,
                           lock_wait_timeout_s=lock_wait_timeout_s,
                           shed_inflight_watermark=0)
    if buffer_pool_pages is not None:
        config.machine.engine.buffer_pool_pages = buffer_pool_pages
    config.machine.engine.nonlocking_reads = nonlocking_reads
    controller, datasets = _build_tpcw_cluster(
        sim, config, machines, n_databases, scale, seed)
    mix = MIXES[mix_name]
    for i, data in enumerate(datasets):
        for c in range(clients_per_db):
            client = TpcwClient(controller, f"tpcw{i}", data, mix,
                                client_id=c, seed=seed * 1000 + i * 100 + c,
                                think_time_s=think_time_s)
            proc = sim.process(client.run(until=duration_s))
            proc.defused = True  # stats come from controller metrics
    sim.run(until=duration_s)

    metrics = controller.metrics
    pool_hits = sum(m.engine.buffer_pool.stats.hits
                    for m in controller.machines.values())
    pool_misses = sum(m.engine.buffer_pool.stats.misses
                      for m in controller.machines.values())
    accesses = pool_hits + pool_misses
    return TpcwRunResult(
        sim_seconds=duration_s,
        committed=metrics.total_committed(),
        deadlocks=metrics.total_deadlocks(),
        rejections=metrics.total_rejected(),
        throughput_tps=metrics.throughput(duration_s),
        deadlock_rate_per_s=metrics.deadlock_rate(duration_s),
        buffer_hit_rate=pool_hits / accesses if accesses else 0.0,
        metrics=metrics,
        controller=controller,
    )


@dataclass
class RecoveryExperimentResult:
    """Outcome of one induced-failure run (Figures 8 and 9)."""

    sim_seconds: float
    committed: int
    rejections_total: int
    mean_rejections_per_db: float
    throughput_before_tps: float
    throughput_during_tps: float
    throughput_after_tps: float
    recovery_records: List[RecoveryRecord]
    recovery_complete_time: Optional[float]
    throughput_series: List[Tuple[float, float]]
    metrics: MetricsCollector
    controller: ClusterController = field(repr=False, default=None)


def run_recovery_experiment(
    copy: str,
    recovery_threads: int = 1,
    duration_s: float = 120.0,
    failure_time_s: float = 30.0,
    copy_bytes_factor: float = 800.0,
) -> RecoveryExperimentResult:
    """Kill one machine mid-run and measure the re-replication.

    Four TPC-W tenants on four machines, two browsers each; the failed
    machine is the one hosting the most databases, so several databases
    need re-replication at once — making the recovery-thread count (the
    x-axis of Figure 8) matter. ``copy_bytes_factor`` scales
    the generated databases (a few hundred KB) up to the paper's 200 MB
    class for copy-duration purposes. ``copy`` is the
    :class:`RecoveryManager` strategy: ``"table"`` / ``"database"`` are
    Algorithm 1 (writes rejected for the copy's duration, per table or
    for the whole database), ``"delta"`` the log-structured pipeline
    (rejection only during the final log drain).
    """
    sim = Simulator()
    machines, n_databases, clients_per_db, think_time_s = 4, 4, 2, 0.3
    seed = 11
    scale = TpcwScale(items=400, emulated_browsers=clients_per_db)
    config = ClusterConfig()
    config.machine.copy_bytes_factor = copy_bytes_factor
    controller, datasets = _build_tpcw_cluster(
        sim, config, machines, n_databases, scale, seed)
    recovery = RecoveryManager(controller, copy=copy,
                               threads=recovery_threads)
    recovery.start()
    mix = MIXES["shopping"]
    for i, data in enumerate(datasets):
        for c in range(clients_per_db):
            client = TpcwClient(controller, f"tpcw{i}", data, mix,
                                client_id=c, seed=seed * 977 + i * 31 + c,
                                think_time_s=think_time_s)
            proc = sim.process(client.run(until=duration_s))
            proc.defused = True

    victim = max(controller.machines,
                 key=lambda m: controller.replica_map.hosted_count(m))
    apply(controller, [Fault(failure_time_s, "fail", victim)])
    sim.run(until=duration_s)

    metrics = controller.metrics
    affected = [r for r in recovery.records if r.succeeded]
    recovery_end = max((r.finished_at for r in affected), default=None)

    def window_tps(lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        total = sum(v for t, v in metrics.commits_over_time.series(duration_s)
                    if lo <= t < hi)
        return total / (hi - lo)

    during_end = recovery_end if recovery_end is not None else duration_s
    during_end = min(during_end, duration_s)
    return RecoveryExperimentResult(
        sim_seconds=duration_s,
        committed=metrics.total_committed(),
        rejections_total=metrics.total_rejected(),
        mean_rejections_per_db=metrics.total_rejected() / n_databases,
        throughput_before_tps=window_tps(0.0, failure_time_s),
        throughput_during_tps=window_tps(failure_time_s, during_end),
        throughput_after_tps=window_tps(during_end, duration_s),
        recovery_records=recovery.records,
        recovery_complete_time=recovery_end,
        throughput_series=metrics.commits_over_time.rate_series(duration_s),
        metrics=metrics,
        controller=controller,
    )


@dataclass
class DeltaRecoveryBenchResult:
    """One size point of the delta-vs-full recovery comparison."""

    sim_seconds: float
    copy_bytes_factor: float
    committed: int
    rejections: int
    recovery_duration_s: Optional[float]
    #: Seconds during which Algorithm 1 rejected writes: the whole copy
    #: for the full pipeline, only the log-drain handoff for delta.
    reject_window_s: Optional[float]
    #: Retained-log entries replayed on the target (delta only).
    replayed: Optional[int]
    metrics: MetricsCollector
    controller: ClusterController = field(repr=False, default=None)


def run_delta_recovery_bench(
    delta: bool,
    copy_bytes_factor: float = 20_000.0,
    duration_s: float = 60.0,
) -> DeltaRecoveryBenchResult:
    """Kill one replica of a single database under steady write load and
    measure the re-replication's write-rejection window.

    ``copy_bytes_factor`` scales the database size (hence the copy's
    dump/transfer/load time); the database-level full copy rejects
    writes for that whole duration, while the delta pipeline's reject
    window is the log-drain handoff — independent of size.
    """
    sim = Simulator()
    # Four writers at 20 updates/s each keep the retained log busy for
    # the whole copy; the failure lands once they are in steady state.
    keys, clients, think_time_s, failure_time_s, seed = 300, 4, 0.05, 5.0, 7
    config = ClusterConfig()
    config.machine.copy_bytes_factor = copy_bytes_factor
    controller = ClusterController(sim, config)
    controller.add_machines(4)
    workload = KeyValueWorkload(controller, db_name="kv", keys=keys,
                                seed=seed)
    workload.install()
    recovery = RecoveryManager(controller,
                               copy="delta" if delta else "database")
    recovery.start()

    def writer(client_id: int):
        rng = SeededRNG(seed).fork(f"delta-writer-{client_id}")
        conn = controller.connect("kv")
        while sim.now < duration_s:
            try:
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                   (rng.randint(0, keys - 1),))
                yield conn.commit()
            except TransactionAborted:
                pass
            yield sim.timeout(rng.expovariate(1.0 / think_time_s))
        conn.close()

    for client_id in range(clients):
        proc = sim.process(writer(client_id), name=f"writer-{client_id}")
        proc.defused = True

    victim = controller.replica_map.replicas("kv")[1]
    apply(controller, [Fault(failure_time_s, "fail", victim)])
    sim.run(until=duration_s)

    record = next((r for r in recovery.records if r.succeeded), None)
    handoff = next((e for e in controller.trace.events()
                    if e.kind == "delta_handoff" and e.db == "kv"), None)
    if delta:
        reject_window = (handoff.extra.get("reject_s")
                         if handoff is not None else None)
        replayed = (handoff.extra.get("replayed")
                    if handoff is not None else None)
    else:
        # The full-copy pipeline rejects for the copy's whole duration.
        reject_window = record.duration if record is not None else None
        replayed = None
    return DeltaRecoveryBenchResult(
        sim_seconds=duration_s,
        copy_bytes_factor=copy_bytes_factor,
        committed=controller.metrics.total_committed(),
        rejections=controller.metrics.total_rejected(),
        recovery_duration_s=record.duration if record is not None else None,
        reject_window_s=reject_window,
        replayed=replayed,
        metrics=controller.metrics,
        controller=controller,
    )


@dataclass
class DrSoakResult:
    """Outcome of one cross-colo disaster-recovery soak."""

    sim_seconds: float
    committed: int
    aborted: int
    colo_killed: str
    #: The applier's log: WAN episodes, the colo kill and its repairs.
    faults: List[Applied]
    suspected_total: int
    declared: List[str]
    promotions: int
    failbacks: int
    dr: Dict[str, object]
    replication_lag: Dict[str, int]
    metrics: MetricsCollector
    system: object = field(repr=False, default=None)
    platform: DataPlatform = field(repr=False, default=None)


def _dr_client(platform: DataPlatform, db: str, client_id: int, seed: int,
               keys: int, until: float, think_time_s: float,
               stats: KvStats):
    """A platform-tier client that re-routes through the system
    controller on every transaction, so it follows a promotion to the
    new primary colo instead of dying with the old one."""
    rng = SeededRNG(seed).fork(f"dr-client-{db}-{client_id}")
    sim = platform.sim
    while sim.now < until:
        try:
            conn = platform.connect(db)
        except PlatformError:
            stats.aborted += 1
            yield sim.timeout(max(think_time_s, 0.05))
            continue
        try:
            yield conn.execute("SELECT v FROM kv WHERE k = ?",
                               (rng.randint(0, keys - 1),))
            yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                               (rng.randint(0, keys - 1),))
            yield conn.commit()
        except PlatformError:
            stats.aborted += 1
        else:
            stats.committed += 1
        finally:
            conn.close()
        if think_time_s > 0:
            yield sim.timeout(rng.expovariate(1.0 / think_time_s))
    return stats


def run_dr_soak(
    duration_s: float = 40.0,
    drain_s: float = 30.0,
    wan_partition_mtbf_s: float = 10.0,
    seed: int = 3,
) -> DrSoakResult:
    """The disaster soak: a colo dies mid-run and detection must save it.

    Two databases span three colos with async WAN log shipping over a
    lossy, partitionable fabric. At 40 % of ``duration_s`` the colo
    primarying the most databases is killed *silently*: the colo
    heartbeat detector must suspect it, declare and fence it under a new
    epoch, promote each standby, and re-protect the promoted databases
    on surviving colos. At 75 % the dead colo is repaired and rejoins
    blank — the failback target (at ``duration_s`` instead, if it was
    not declared by then). Failures stop at ``duration_s``, where the
    last WAN episode heals, and the run drains ``drain_s`` so catch-up
    finishes — the state the lag-drain invariant is checked against.
    All of it is one schedule on the fault applier.
    """
    sim = Simulator()
    n_databases, keys_per_db, clients_per_db, think_time_s = 2, 25, 2, 0.3
    platform = DataPlatform(
        sim,
        # A 10 ms WAN that loses one message in twenty.
        wan=NetworkConfig(enabled=True, latency_s=0.01, jitter_s=0.005,
                          drop_probability=0.05, seed=seed),
        # Suspect after 1 s of silence, declare after 3 s: long enough
        # that a healed isolation episode is usually only a suspicion.
        heartbeat_interval_s=0.5,
        suspect_after_misses=2,
        declare_after_misses=6,
    )
    system = platform.system
    for i in range(3):
        platform.add_colo(f"colo{i}", free_machines=8, location=float(i))
    for i in range(n_databases):
        platform.create_database(DatabaseSpec(
            name=f"kv{i}", ddl=KV_DDL, sla=Sla(5.0, 0.01),
            expected_size_mb=2.0, replicas=2))
        platform.bulk_load(f"kv{i}", "kv",
                           [(k, 0) for k in range(keys_per_db)])
    system.start_failure_detector()
    # Kill the colo that primaries the most databases — the worst case.
    primaried: Dict[str, int] = {}
    for db, (primary, _standby) in system.placements.items():
        primaried[primary] = primaried.get(primary, 0) + 1
    victim = max(sorted(system.colos), key=lambda c: primaried.get(c, 0))
    # The repair at the end of the window lands only if the one at 75 %
    # found the colo not yet declared.
    applied = apply(system, wan_cuts(
        seed, system.colos, duration_s, wan_partition_mtbf_s, 1.5,
        system.wan.config) + [Fault(duration_s * 0.4, "crash_colo", victim),
                              Fault(duration_s * 0.75, "repair_colo", victim),
                              Fault(duration_s, "repair_colo", victim)])

    stats = []
    for i in range(n_databases):
        for cid in range(clients_per_db):
            stats.append(KvStats())
            proc = sim.process(_dr_client(
                platform, f"kv{i}", cid, seed * 1000 + i * 100 + cid,
                keys_per_db, duration_s, think_time_s, stats[-1]))
            proc.defused = True
    sim.run(until=duration_s + drain_s)

    trace = system.trace
    metrics = system.metrics
    summary = metrics.snapshot()["dr"]
    return DrSoakResult(
        sim_seconds=duration_s + drain_s,
        committed=sum(s.committed for s in stats),
        aborted=sum(s.aborted for s in stats),
        colo_killed=victim,
        faults=applied,
        suspected_total=len(trace.events(kind="colo_suspected")),
        declared=[e.machine for e in trace.events(kind="colo_declared")],
        promotions=len(summary["promotions"]),
        failbacks=summary["failbacks"],
        dr=summary,
        replication_lag={db: system.replication_lag(db)
                         for db in sorted(system.placements)},
        metrics=metrics,
        system=system,
        platform=platform,
    )


@dataclass
class SlaPlacementResult:
    """One row of Table 2."""

    skew: float
    n_databases: int
    avg_size_mb: float
    avg_throughput_tps: float
    machines_first_fit: int
    machines_optimal: int


def run_sla_placement(
    skew: float,
    n_databases: int = 20,
    seed: int = 3,
    machine_capacity: Optional[ResourceVector] = None,
    working_set_fraction: float = 0.25,
) -> SlaPlacementResult:
    """Table 2: zipf-skewed demands, First-Fit vs exhaustive optimum.

    Database sizes (200 MB - 1 GB) and throughputs (0.1 - 10 tps, one
    write in five) are drawn from bounded zipfians with the given skew
    (higher skew concentrates near the low end of each range, shrinking
    the averages — matching the paper's Table 2 trend).
    """
    size_range_mb, tps_range, write_mix = (200.0, 1000.0), (0.1, 10.0), 0.2
    rng = SeededRNG(seed).fork(f"sla-{skew}")
    size_zipf = ZipfGenerator(64, skew, rng.fork("size"))
    tps_zipf = ZipfGenerator(64, skew, rng.fork("tps"))
    capacity = machine_capacity or ResourceVector(
        cpu=2.0, memory_mb=1024.0, disk_io_mbps=30.0, disk_mb=6000.0)
    loads: List[DatabaseLoad] = []
    sizes: List[float] = []
    tpss: List[float] = []
    for i in range(n_databases):
        size = size_zipf.sample_in_range(*size_range_mb)
        tps = tps_zipf.sample_in_range(*tps_range)
        sizes.append(size)
        tpss.append(tps)
        requirement = estimate_requirements(
            size, tps, write_mix, working_set_fraction=working_set_fraction)
        loads.append(DatabaseLoad(f"db{i}", requirement, replicas=1))

    counter = [0]

    def new_bin() -> MachineBin:
        counter[0] += 1
        return MachineBin(f"m{counter[0]}", capacity)

    placement = first_fit(loads, bins=[], new_bin=new_bin)
    optimal = optimal_machine_count(loads, capacity)
    return SlaPlacementResult(
        skew=skew,
        n_databases=n_databases,
        avg_size_mb=sum(sizes) / len(sizes),
        avg_throughput_tps=sum(tpss) / len(tpss),
        machines_first_fit=placement.machines_used,
        machines_optimal=optimal,
    )


@dataclass
class CommitLatencyBenchResult:
    """Commit-pipeline latency under one replication factor and policy."""

    replicas: int
    write_policy: WritePolicy
    latency_s: float
    committed: int
    aborted: int
    sim_seconds: float
    # {phase: {count, mean, p50, p95, p99}} — "prepare", "commit",
    # "txn", plus per-branch "branch:prepare" / "branch:commit".
    latencies: Dict[str, Dict[str, float]]
    # {label: {count, mean_width, max_width}} per broadcast label.
    fanouts: Dict[str, Dict[str, float]]
    metrics: MetricsCollector = field(repr=False, default=None)
    controller: ClusterController = field(repr=False, default=None)

    def p50(self, phase: str) -> float:
        summary = self.latencies.get(phase)
        return summary["p50"] if summary else 0.0

    @property
    def round_trip_s(self) -> float:
        """Analytic cost of one phase of the fan-out: one round trip."""
        return 2 * self.latency_s

    @property
    def serial_phase_s(self) -> float:
        """Analytic cost of one phase for a coordinator that contacts
        its participants one at a time: a round trip per replica."""
        return self.replicas * self.round_trip_s


def run_commit_latency_bench(
    replicas: int = 3,
    write_policy: WritePolicy = WritePolicy.CONSERVATIVE,
    clients: int = 4,
    transactions_per_client: int = 50,
    keys: int = 64,
    latency_s: float = 0.003,
    seed: int = 11,
) -> CommitLatencyBenchResult:
    """Measure 2PC phase latency with the fabric's latency enabled.

    One cluster of ``replicas`` machines (so every write fans out to
    all of them), a seeded key-value workload, and a lossless fabric
    with a fixed one-way ``latency_s`` — the setting where a serial
    coordinator would pay ``replicas`` round trips per phase and the
    fan-out pays one (plus the participant's log flush).
    """
    sim = Simulator()
    config = ClusterConfig(
        write_policy=write_policy,
        replication_factor=replicas,
        # No jitter, no loss: a phase costs exactly its round trip.
        network=NetworkConfig(enabled=True, latency_s=latency_s,
                              jitter_s=0.0, drop_probability=0.0,
                              seed=seed),
    )
    controller = ClusterController(sim, config)
    controller.add_machines(replicas)
    workload = KeyValueWorkload(controller, db_name="kv", keys=keys,
                                seed=seed)
    workload.install(replicas=replicas)

    stats = [KvStats() for _ in range(clients)]
    for cid in range(clients):
        proc = sim.process(workload.client(
            cid, transactions=transactions_per_client,
            think_time_s=0.01, stats=stats[cid]))
        proc.defused = True
    sim.run()

    metrics = controller.metrics
    snapshot = metrics.snapshot()
    return CommitLatencyBenchResult(
        replicas=replicas,
        write_policy=write_policy,
        latency_s=latency_s,
        committed=metrics.total_committed(),
        aborted=sum(s.aborted for s in stats),
        sim_seconds=sim.now,
        latencies=snapshot["phases"],
        fanouts=snapshot["fanouts"],
        metrics=metrics,
        controller=controller,
    )


@dataclass
class ManyTenantsResult:
    """Outcome of one tenant-scale soak (the ``manytenants`` experiment)."""

    sim_seconds: float
    n_databases: int
    hot_tenants: int
    committed: int
    aborted: int
    throughput_tps: float
    #: Tenant churn while traffic ran.
    churn_creates: int
    churn_drops: int
    #: Sim seconds from the flash crowd's arrival to its first commit —
    #: the cold-start cost of a fully-lazy tenant.
    flash_first_commit_s: Optional[float]
    flash_committed: int
    #: Resident per-tenant state at the end of the run, against the
    #: tenant population: the lazy fast path keeps each of these at
    #: O(touched tenants), not O(all tenants).
    resident_db_logs: int
    resident_log_entries: int
    resident_replica_lsn_maps: int
    resident_admission_buckets: int
    resident_latency_histograms: int
    cold_engine_tenants: int
    paged_out_logs: int
    metrics: MetricsCollector
    controller: ClusterController = field(repr=False, default=None)


def run_many_tenants(
    n_databases: int = 2000,
    duration_s: float = 20.0,
    flash_at_s: float = 10.0,
    seed: int = 11,
) -> ManyTenantsResult:
    """The tenant-scale soak: many small, mostly-cold applications.

    Stages ``n_databases`` tenants (a cold tenant is a replica-map entry
    and a DDL string), drives Zipf-skewed traffic over the hottest 1 %,
    churns tenants (one drop + one create
    every half second), and at ``flash_at_s`` throws a flash crowd at
    one tenant that has never been touched. The interesting outputs are
    the resident-state gauges: with 1% of tenants hot, per-tenant
    controller state (delta logs, LSN maps, admission buckets, latency
    histograms) must track the hot set, not the population.
    """
    if n_databases < 10:
        raise ValueError("need at least 10 tenants for a meaningful soak")
    sim = Simulator()
    hot_fraction, keys_per_db, think_time_s = 0.01, 8, 0.2
    churn_period_s, flash_clients, flash_think_time_s = 0.5, 8, 0.02
    # The resident-state caps (64 logs, 256 buckets) sit well above the
    # hot set of the usual sizes and far below the population: what the
    # gauges are held to.
    config = ClusterConfig(lock_wait_timeout_s=2.0, trace_capacity=262144)
    controller = ClusterController(sim, config)
    controller.add_machines(12)
    sla = Sla(min_throughput_tps=4.0, max_rejected_fraction=0.05)

    def db_name(i):
        return f"t{i:06d}"

    for i in range(n_databases):
        # Every 4th tenant buys an SLA; the rest hold none (no bucket).
        controller.create_database(db_name(i), KV_DDL,
                                   sla=sla if i % 4 == 0 else None)

    # Hot set: the first hot_fraction of tenants, zipf-weighted think
    # times (tenant 0 hottest). The flash-crowd target sits far outside
    # the hot set and gets no staged traffic at all.
    hot_tenants = max(1, int(n_databases * hot_fraction))
    flash_db = db_name(n_databases // 2)
    rng = SeededRNG(seed).fork("manytenants")
    zipf = ZipfGenerator(64, 1.1, rng.fork("skew"))
    stats = []
    for i in range(hot_tenants):
        db = db_name(i)
        controller.bulk_load(db, "kv",
                             [(k, 0) for k in range(keys_per_db)])
        workload = KeyValueWorkload(controller, db_name=db,
                                    keys=keys_per_db, seed=seed + i)
        think = zipf.sample_in_range(think_time_s, 4.0 * think_time_s)
        client_stats = KvStats()
        stats.append(client_stats)
        proc = sim.process(start_after(
            sim, rng.uniform(0.0, think_time_s),
            workload.client(0, transactions=10 ** 9, think_time_s=think,
                            stats=client_stats)))
        proc.defused = True

    # Tenant churn: steadily drop one cold tenant and create a fresh
    # one — the O(1) create/drop paths under live traffic.
    churn = {"creates": 0, "drops": 0}
    churn_rng = rng.fork("churn")

    def churner():
        next_new = n_databases
        while True:
            yield sim.timeout(churn_period_s)
            # Only ever drop staged cold tenants (hot ones carry
            # clients whose connections must stay valid).
            victim = db_name(churn_rng.randint(hot_tenants,
                                               n_databases - 1))
            if victim != flash_db and controller.replica_map.has(victim):
                controller.drop_database(victim)
                churn["drops"] += 1
            controller.create_database(db_name(next_new), KV_DDL)
            churn["creates"] += 1
            next_new += 1

    churn_proc = sim.process(churner(), name="tenant-churn")
    churn_proc.defused = True

    # Flash crowd on a never-touched tenant: materialisation, bucket
    # provisioning, log creation all happen under the burst.
    flash_stats = [KvStats() for _ in range(flash_clients)]
    flash_first_commit = []

    def flash_watch():
        yield sim.timeout(flash_at_s)
        mark = controller.metrics.per_db.get(flash_db)
        before = mark.committed if mark else 0
        workload = KeyValueWorkload(controller, db_name=flash_db,
                                    keys=keys_per_db, seed=seed + 7777)
        for cid in range(flash_clients):
            proc = sim.process(workload.client(
                cid, transactions=10 ** 9,
                think_time_s=flash_think_time_s, stats=flash_stats[cid]))
            proc.defused = True
        while True:
            counters = controller.metrics.per_db.get(flash_db)
            if counters is not None and counters.committed > before:
                flash_first_commit.append(sim.now - flash_at_s)
                return
            yield sim.timeout(0.001)

    flash_proc = sim.process(flash_watch(), name="flash-crowd")
    flash_proc.defused = True

    sim.run(until=duration_s)

    metrics = controller.metrics
    replication = controller.replication
    committed = metrics.total_committed()
    aborted = sum(s.aborted for s in stats) + \
        sum(s.aborted for s in flash_stats)
    return ManyTenantsResult(
        sim_seconds=sim.now,
        n_databases=controller.replica_map.database_count(),
        hot_tenants=hot_tenants,
        committed=committed,
        aborted=aborted,
        throughput_tps=committed / duration_s if duration_s else 0.0,
        churn_creates=churn["creates"],
        churn_drops=churn["drops"],
        flash_first_commit_s=(flash_first_commit[0]
                              if flash_first_commit else None),
        flash_committed=sum(s.committed for s in flash_stats),
        resident_db_logs=len(replication.db_logs),
        resident_log_entries=sum(len(log)
                                 for log in replication.db_logs.values()),
        resident_replica_lsn_maps=len(replication.replica_lsns),
        resident_admission_buckets=len(controller.admission.buckets),
        resident_latency_histograms=len(metrics.db_latencies),
        cold_engine_tenants=len(controller._cold_dbs),
        paged_out_logs=len(controller.trace.events(kind="log_paged_out")),
        metrics=metrics,
        controller=controller,
    )
