"""Reusable experiment drivers behind the figure/table benchmarks.

The drivers cover the paper's evaluation section plus the soaks:

* :func:`run_tpcw_cluster` — multi-tenant TPC-W on one cluster under a
  chosen read option / write policy / replication factor (Figures 2-7);
* :func:`run_recovery_experiment` — induce a machine failure mid-run and
  measure rejections and throughput during re-replication (Figures 8-9);
* :func:`run_delta_recovery_bench` — one database, one induced failure:
  the write-rejection window of log-structured delta re-replication vs
  the full-copy reference, across database sizes;
* :func:`run_fault_soak` — MTBF-driven random machine failures with
  background recovery, the trace/invariant-checker demonstration run;
* :func:`run_stampede_soak` — the overload soak: one tenant's traffic
  ramps ~100x mid-run while zipf-skewed neighbours stay inside their
  SLAs; per-tenant admission control (on or off) must throttle the hot
  tenant to its provisioned rate and keep every neighbour's rejected
  fraction inside its bound and its tail latency isolated;
* :func:`run_partition_soak` — the unreliable-fabric soak: lossy links,
  random partitions, silent machine crashes noticed only by the
  heartbeat failure detector, repairs, and a staged primary crash taken
  over by the process-pair backup;
* :func:`run_controller_soak` — the control-plane soak: consensus
  controller replicas are killed (preferring the leader) and the
  controller↔controller links partitioned while reconnecting clients
  commit through elections, lease hand-offs, and take-over cleanup;
  ``consensus=False`` runs the process-pair reference under the same
  workload with a staged primary crash instead;
* :func:`run_dr_soak` — the cross-colo disaster soak: lossy WAN links
  under log shipping, colo isolation episodes, one colo killed silently
  mid-run (the colo heartbeat detector must suspect, declare, fence,
  and promote), re-protection of the promoted databases, and a staged
  repair that rejoins the dead colo as a failback target;
* :func:`run_sla_placement` — zipf-skewed SLA demands packed by
  First-Fit vs. the exact optimum (Table 2);
* :func:`run_commit_latency_bench` — 2PC phase latency with fabric
  latency on, set against the analytic cost of one round trip (what the
  commit fan-out pays) and of one round trip per replica (what a serial
  coordinator would pay).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import MetricsCollector
from repro.cluster import (ClusterConfig, ClusterController, CopyGranularity,
                           ReadOption, RecoveryManager, WritePolicy)
from repro.cluster.controller import TransactionAborted
from repro.cluster.network import NetworkConfig
from repro.cluster.process_pair import ProcessPairBackup
from repro.cluster.recovery import RecoveryRecord
from repro.errors import PlatformError
from repro.harness.faults import (ControllerKillEvent, ControllerKillInjector,
                                  FailureEvent, FailureInjector,
                                  PartitionEvent, PartitionInjector,
                                  RepairEvent, WanPartitionInjector)
from repro.platform import DataPlatform, DatabaseSpec
from repro.sim import Simulator
from repro.sim.rng import SeededRNG, ZipfGenerator
from repro.sla.model import ResourceVector, Sla
from repro.sla.monitor import (ComplianceReport, OverloadMonitor, SlaBreach,
                               SlaMonitor)
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
    mix_name: str,
    read_option: ReadOption,
    write_policy: WritePolicy,
    machines: int,
    n_databases: int,
    replicas: int,
    scale: TpcwScale,
    seed: int,
    buffer_pool_pages: Optional[int],
    lock_wait_timeout_s: float,
    nonlocking_reads: bool = False,
) -> Tuple[ClusterController, List[TpcwDatabase]]:
    config = ClusterConfig(read_option=read_option,
                           write_policy=write_policy,
                           replication_factor=replicas,
                           lock_wait_timeout_s=lock_wait_timeout_s)
    if buffer_pool_pages is not None:
        config.machine.engine.buffer_pool_pages = buffer_pool_pages
    config.machine.engine.nonlocking_reads = nonlocking_reads
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    datasets: List[TpcwDatabase] = []
    for i in range(n_databases):
        data = TpcwDatabase(scale, seed=seed + i)
        db_name = f"tpcw{i}"
        controller.create_database(db_name, TPCW_DDL, replicas=replicas)
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
    seed: int = 7,
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
    scale = scale or TpcwScale(items=500, emulated_browsers=clients_per_db)
    controller, datasets = _build_tpcw_cluster(
        sim, mix_name, read_option, write_policy, machines, n_databases,
        replicas, scale, seed, buffer_pool_pages, lock_wait_timeout_s,
        nonlocking_reads=nonlocking_reads)
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
    failure_time: float
    committed: int
    rejections_total: int
    rejections_per_db: Dict[str, int]
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
    granularity: CopyGranularity = CopyGranularity.TABLE,
    recovery_threads: int = 1,
    machines: int = 5,
    n_databases: int = 6,
    replicas: int = 2,
    clients_per_db: int = 2,
    duration_s: float = 120.0,
    failure_time_s: float = 30.0,
    mix_name: str = "shopping",
    scale: Optional[TpcwScale] = None,
    seed: int = 11,
    think_time_s: float = 0.3,
    copy_bytes_factor: float = 800.0,
    delta_recovery: bool = True,
) -> RecoveryExperimentResult:
    """Kill one machine mid-run and measure Algorithm 1's behaviour.

    The failed machine is the one hosting the most databases, so several
    databases need re-replication at once — making the recovery-thread
    count (the x-axis of Figure 8) matter. ``copy_bytes_factor`` scales
    the generated databases (a few hundred KB) up to the paper's 200 MB
    class for copy-duration purposes. ``delta_recovery`` selects the
    log-structured pipeline (write rejection only during the final log
    drain) versus the full-copy reference (rejection for the copy's
    whole duration).
    """
    sim = Simulator()
    scale = scale or TpcwScale(items=400, emulated_browsers=clients_per_db)
    controller, datasets = _build_tpcw_cluster(
        sim, mix_name, ReadOption.OPTION_1, WritePolicy.CONSERVATIVE,
        machines, n_databases, replicas, scale, seed, None, 5.0)
    controller.config.machine.copy_bytes_factor = copy_bytes_factor
    controller.config.delta_recovery = delta_recovery
    recovery = RecoveryManager(controller, granularity=granularity,
                               threads=recovery_threads)
    recovery.start()
    mix = MIXES[mix_name]
    for i, data in enumerate(datasets):
        for c in range(clients_per_db):
            client = TpcwClient(controller, f"tpcw{i}", data, mix,
                                client_id=c, seed=seed * 977 + i * 31 + c,
                                think_time_s=think_time_s)
            proc = sim.process(client.run(until=duration_s))
            proc.defused = True

    victim = max(controller.machines,
                 key=lambda m: controller.replica_map.hosted_count(m))

    def failure_injector():
        yield sim.timeout(failure_time_s)
        controller.fail_machine(victim)

    sim.process(failure_injector())
    sim.run(until=duration_s)

    metrics = controller.metrics
    rejections_per_db = {db: counters.rejected
                         for db, counters in metrics.per_db.items()}
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
    n_dbs = max(1, n_databases)
    return RecoveryExperimentResult(
        sim_seconds=duration_s,
        failure_time=failure_time_s,
        committed=metrics.total_committed(),
        rejections_total=metrics.total_rejected(),
        rejections_per_db=rejections_per_db,
        mean_rejections_per_db=metrics.total_rejected() / n_dbs,
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
    delta: bool
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
    machines: int = 4,
    keys: int = 300,
    clients: int = 4,
    duration_s: float = 60.0,
    failure_time_s: float = 5.0,
    think_time_s: float = 0.05,
    seed: int = 7,
) -> DeltaRecoveryBenchResult:
    """Kill one replica of a single database under steady write load and
    measure the re-replication's write-rejection window.

    ``copy_bytes_factor`` scales the database size (hence the copy's
    dump/transfer/load time); the full-copy reference rejects writes for
    that whole duration, while the delta pipeline's reject window is
    the log-drain handoff — independent of size.
    """
    sim = Simulator()
    config = ClusterConfig(replication_factor=2, delta_recovery=delta)
    config.machine.copy_bytes_factor = copy_bytes_factor
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    workload = KeyValueWorkload(controller, db_name="kv", keys=keys,
                                seed=seed)
    workload.install(replicas=2)
    recovery = RecoveryManager(controller,
                               granularity=CopyGranularity.DATABASE)
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

    def failure_injector():
        yield sim.timeout(failure_time_s)
        controller.fail_machine(victim)

    sim.process(failure_injector())
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
        delta=delta,
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
class FaultSoakResult:
    """Outcome of one MTBF-driven failure soak."""

    sim_seconds: float
    failures: List[FailureEvent]
    committed: int
    aborted: int
    rejections: int
    throughput_tps: float
    recovery_records: List[RecoveryRecord]
    metrics: MetricsCollector
    controller: ClusterController = field(repr=False, default=None)


def run_fault_soak(
    machines: int = 6,
    n_databases: int = 3,
    replicas: int = 2,
    keys_per_db: int = 30,
    clients_per_db: int = 2,
    duration_s: float = 45.0,
    drain_s: float = 30.0,
    mtbf_s: float = 10.0,
    recovery_threads: int = 2,
    granularity: CopyGranularity = CopyGranularity.TABLE,
    write_policy: WritePolicy = WritePolicy.CONSERVATIVE,
    seed: int = 3,
    think_time_s: float = 0.2,
    copy_bytes_factor: float = 1000.0,
    min_live_machines: int = 3,
    delta_recovery: bool = True,
) -> FaultSoakResult:
    """Sustained Poisson machine failures under a key-value workload.

    Failures stop at ``duration_s``; the run continues ``drain_s`` more
    simulated seconds so background re-replication finishes — the state
    the invariant checker's recovery rule is checked against.
    """
    sim = Simulator()
    config = ClusterConfig(write_policy=write_policy,
                           replication_factor=replicas,
                           recovery_threads=recovery_threads,
                           lock_wait_timeout_s=2.0,
                           delta_recovery=delta_recovery)
    config.machine.copy_bytes_factor = copy_bytes_factor
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    workloads = []
    for i in range(n_databases):
        workload = KeyValueWorkload(controller, db_name=f"kv{i}",
                                    keys=keys_per_db, seed=seed + i)
        workload.install(replicas=replicas)
        workloads.append(workload)
    recovery = RecoveryManager(controller, granularity=granularity,
                               threads=recovery_threads, retry_delay_s=1.0)
    recovery.start()
    injector = FailureInjector(controller, mtbf_s=mtbf_s, seed=seed,
                               min_live_machines=min_live_machines)
    injector.start()

    stats = [KvStats() for _ in range(n_databases * clients_per_db)]
    idx = 0
    for workload in workloads:
        for cid in range(clients_per_db):
            proc = sim.process(workload.client(
                cid, transactions=10 ** 9, think_time_s=think_time_s,
                stats=stats[idx]))
            proc.defused = True
            idx += 1

    sim.run(until=duration_s)
    injector.stop()
    sim.run(until=duration_s + drain_s)

    metrics = controller.metrics
    return FaultSoakResult(
        sim_seconds=duration_s + drain_s,
        failures=list(injector.events),
        committed=metrics.total_committed(),
        aborted=sum(s.aborted for s in stats),
        rejections=metrics.total_rejected(),
        throughput_tps=metrics.throughput(duration_s),
        recovery_records=recovery.records,
        metrics=metrics,
        controller=controller,
    )


@dataclass
class StampedeResult:
    """Outcome of one noisy-neighbour stampede soak."""

    sim_seconds: float
    admission: bool
    hot_db: str
    ramp_at_s: float
    #: Hot tenant's provisioned admission rate (tps); None with
    #: admission off.
    hot_provisioned_tps: Optional[float]
    #: Hot tenant's committed rate over the post-ramp window.
    hot_goodput_tps: float
    #: Fraction of the hot tenant's post-ramp transactions that were
    #: admitted (finished without an overload rejection).
    hot_admitted_fraction: float
    #: Per-database outcome deltas over the post-ramp window.
    post_ramp: Dict[str, Dict[str, float]]
    #: Committed-transaction p99 before / after the ramp, per database.
    baseline_p99: Dict[str, float]
    stampede_p99: Dict[str, float]
    #: Worst neighbour post-ramp p99 relative to its own baseline p99
    #: (1.0 when no neighbour committed in both windows).
    neighbour_p99_ratio: float
    #: Worst neighbour post-ramp admission-rejected fraction.
    neighbour_max_rejected_fraction: float
    shed_reads: int
    breaches: List[SlaBreach]
    monitor_windows: int
    sla_reports: List[ComplianceReport]
    failures: List[FailureEvent]
    recovery_records: List[RecoveryRecord]
    metrics: MetricsCollector
    controller: ClusterController = field(repr=False, default=None)


def run_stampede_soak(
    admission: bool = True,
    machines: int = 4,
    n_databases: int = 6,
    replicas: int = 2,
    keys_per_db: int = 40,
    clients_per_db: int = 2,
    hot_clients: int = 60,
    duration_s: float = 40.0,
    ramp_at_s: float = 15.0,
    drain_s: float = 0.0,
    think_time_s: float = 0.5,
    hot_think_time_s: float = 0.02,
    sla_tps: float = 4.0,
    max_rejected_fraction: float = 0.05,
    monitor_window_s: float = 1.0,
    mtbf_s: Optional[float] = None,
    recovery_threads: int = 2,
    min_live_machines: int = 3,
    copy_bytes_factor: float = 200.0,
    write_policy: WritePolicy = WritePolicy.CONSERVATIVE,
    seed: int = 3,
) -> StampedeResult:
    """The overload soak: one tenant stampedes, neighbours keep SLAs.

    Every database declares the same :class:`Sla` (throughput floor
    ``sla_tps``, rejection ceiling ``max_rejected_fraction``).
    Neighbours offer zipf-skewed steady load below their floors; at
    ``ramp_at_s`` the hot tenant (``kv0``) adds ``hot_clients``
    low-think-time clients — roughly a 100x offered-load ramp at the
    defaults. With ``admission=True`` the per-tenant token buckets must
    throttle the hot tenant to its provisioned rate while neighbours
    stay inside their rejection bounds and their tail latency holds;
    with ``admission=False`` the same schedule records the
    noisy-neighbour damage as the contrast. An :class:`OverloadMonitor`
    emits the per-window ``sla_window``/``sla_breach`` events the two
    overload invariant rules audit. ``mtbf_s`` optionally layers random
    machine failures (with background recovery) on top; failures stop
    at ``duration_s`` and the run drains ``drain_s`` more seconds.
    """
    sim = Simulator()
    config = ClusterConfig(write_policy=write_policy,
                           replication_factor=replicas,
                           recovery_threads=recovery_threads,
                           lock_wait_timeout_s=2.0,
                           trace_capacity=262144,
                           admission_control=admission)
    config.machine.copy_bytes_factor = copy_bytes_factor
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    hot_db = "kv0"
    sla = Sla(min_throughput_tps=sla_tps,
              max_rejected_fraction=max_rejected_fraction)
    # Zipf-skewed neighbour think times: every neighbour offers less
    # than the hot tenant's baseline, some far less.
    skew_rng = SeededRNG(seed).fork("stampede-skew")
    skew = ZipfGenerator(64, 1.1, skew_rng)
    workloads = []
    think_times = []
    for i in range(n_databases):
        db = f"kv{i}"
        controller.create_database(db, KV_DDL, replicas=replicas, sla=sla)
        controller.bulk_load(db, "kv", [(k, 0) for k in range(keys_per_db)])
        workloads.append(KeyValueWorkload(controller, db_name=db,
                                          keys=keys_per_db, seed=seed + i))
        think_times.append(think_time_s if i == 0 else
                           skew.sample_in_range(think_time_s,
                                                4.0 * think_time_s))
    recovery = None
    injector = None
    if mtbf_s is not None:
        recovery = RecoveryManager(controller,
                                   granularity=CopyGranularity.TABLE,
                                   threads=recovery_threads,
                                   retry_delay_s=1.0)
        recovery.start()
        injector = FailureInjector(controller, mtbf_s=mtbf_s, seed=seed,
                                   min_live_machines=min_live_machines)
        injector.start()
    monitor = OverloadMonitor(controller, window_s=monitor_window_s)
    monitor.start()

    def staggered(client, delay):
        # Desynchronise client start times so the t=0 thundering herd
        # does not pollute the baseline latency window.
        yield sim.timeout(delay)
        result = yield from client
        return result

    stats = [KvStats() for _ in range(n_databases * clients_per_db)]
    idx = 0
    for i, workload in enumerate(workloads):
        for cid in range(clients_per_db):
            proc = sim.process(staggered(workload.client(
                cid, transactions=10 ** 9, think_time_s=think_times[i],
                stats=stats[idx]), skew_rng.uniform(0.0, think_time_s)))
            proc.defused = True
            idx += 1

    metrics = controller.metrics
    baseline_counts: Dict[str, Tuple[int, int, int, int]] = {}
    latency_marks: Dict[str, int] = {}
    hot_stats = [KvStats() for _ in range(hot_clients)]

    def stampede():
        yield sim.timeout(ramp_at_s)
        for db, counters in metrics.per_db.items():
            baseline_counts[db] = (counters.committed, counters.rejected,
                                   counters.overload_rejected,
                                   counters.total_finished)
        for db, histogram in metrics.db_latencies.items():
            latency_marks[db] = histogram.count
        for cid in range(hot_clients):
            proc = sim.process(workloads[0].client(
                100 + cid, transactions=10 ** 9,
                think_time_s=hot_think_time_s, stats=hot_stats[cid]))
            proc.defused = True

    ramp = sim.process(stampede(), name="stampede-ramp")
    ramp.defused = True

    sim.run(until=duration_s)
    if injector is not None:
        injector.stop()
    if drain_s > 0:
        sim.run(until=duration_s + drain_s)
    monitor.stop()
    total = duration_s + drain_s

    post_ramp: Dict[str, Dict[str, float]] = {}
    for db in sorted(metrics.per_db):
        counters = metrics.per_db[db]
        base = baseline_counts.get(db, (0, 0, 0, 0))
        finished = counters.total_finished - base[3]
        overload = counters.overload_rejected - base[2]
        post_ramp[db] = {
            "committed": counters.committed - base[0],
            "rejected": counters.rejected - base[1],
            "overload_rejected": overload,
            "finished": finished,
            "overload_rejected_fraction": (overload / finished
                                           if finished else 0.0),
        }
    baseline_p99: Dict[str, float] = {}
    stampede_p99: Dict[str, float] = {}
    ratios: List[float] = []
    for db, histogram in sorted(metrics.db_latencies.items()):
        mark = latency_marks.get(db, 0)
        baseline_p99[db] = histogram.window_percentile(99.0, 0, mark)
        stampede_p99[db] = histogram.window_percentile(99.0, mark)
        if (db != hot_db and mark > 0 and histogram.count > mark
                and baseline_p99[db] > 0):
            ratios.append(stampede_p99[db] / baseline_p99[db])

    hot_window = max(total - ramp_at_s, 1e-9)
    hot = post_ramp.get(hot_db, {})
    hot_finished = hot.get("finished", 0)
    neighbours = [post_ramp[db] for db in post_ramp if db != hot_db]
    slas = {db: s for db, s in controller.slas.items() if s is not None}
    return StampedeResult(
        sim_seconds=total,
        admission=admission,
        hot_db=hot_db,
        ramp_at_s=ramp_at_s,
        hot_provisioned_tps=(controller.admission.provisioned_rate(hot_db)
                             if controller.admission is not None else None),
        hot_goodput_tps=hot.get("committed", 0) / hot_window,
        hot_admitted_fraction=(1.0 - hot.get("overload_rejected", 0)
                               / hot_finished if hot_finished else 1.0),
        post_ramp=post_ramp,
        baseline_p99=baseline_p99,
        stampede_p99=stampede_p99,
        neighbour_p99_ratio=max(ratios) if ratios else 1.0,
        neighbour_max_rejected_fraction=max(
            (n["overload_rejected_fraction"] for n in neighbours),
            default=0.0),
        shed_reads=len(controller.trace.events(kind="shed_read")),
        breaches=list(monitor.breaches),
        monitor_windows=monitor.windows,
        sla_reports=SlaMonitor(slas).check(metrics, total),
        failures=list(injector.events) if injector is not None else [],
        recovery_records=list(recovery.records)
        if recovery is not None else [],
        metrics=metrics,
        controller=controller,
    )


@dataclass
class PartitionSoakResult:
    """Outcome of one unreliable-fabric partition soak."""

    sim_seconds: float
    failures: List[FailureEvent]
    repairs: List[RepairEvent]
    partitions: List[PartitionEvent]
    committed: int
    aborted: int
    rejections: int
    throughput_tps: float
    recovery_records: List[RecoveryRecord]
    suspected_total: int
    declared: List[str]
    readmitted: List[str]
    takeover_committed: List[int]
    takeover_aborted: List[int]
    metrics: MetricsCollector
    controller: ClusterController = field(repr=False, default=None)


def run_partition_soak(
    machines: int = 6,
    n_databases: int = 3,
    replicas: int = 2,
    keys_per_db: int = 30,
    clients_per_db: int = 2,
    duration_s: float = 60.0,
    drain_s: float = 40.0,
    partition_mtbf_s: float = 8.0,
    mean_heal_s: float = 4.0,
    crash_mtbf_s: float = 30.0,
    repair_mtbf_s: float = 15.0,
    crash_primary: bool = True,
    takeover_wait_s: float = 10.0,
    recovery_threads: int = 2,
    granularity: CopyGranularity = CopyGranularity.TABLE,
    write_policy: WritePolicy = WritePolicy.CONSERVATIVE,
    seed: int = 3,
    think_time_s: float = 0.2,
    copy_bytes_factor: float = 200.0,
    min_live_machines: int = 3,
    drop_probability: float = 0.01,
    latency_s: float = 0.002,
    jitter_s: float = 0.001,
    delta_recovery: bool = True,
) -> PartitionSoakResult:
    """The robustness soak: everything bad the fabric can do, at once.

    Random links are cut and healed, messages are dropped, machines
    crash *silently* (only the heartbeat detector can notice), dead
    machines are repaired back into the free pool — all concurrently
    with a key-value workload. Failures stop at ``duration_s``; the
    fabric is fully healed and the run drains ``drain_s`` so suspicions
    resolve and re-replication completes. With ``crash_primary`` the
    primary controller then crashes and the process-pair backup must
    detect the silence and take over itself. The resulting trace is the
    input for the no-split-brain / fencing / suspicion invariants.
    """
    sim = Simulator()
    config = ClusterConfig(
        write_policy=write_policy,
        replication_factor=replicas,
        recovery_threads=recovery_threads,
        lock_wait_timeout_s=2.0,
        delta_recovery=delta_recovery,
        network=NetworkConfig(enabled=True, latency_s=latency_s,
                              jitter_s=jitter_s,
                              drop_probability=drop_probability,
                              seed=seed),
    )
    config.machine.copy_bytes_factor = copy_bytes_factor
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    workloads = []
    for i in range(n_databases):
        workload = KeyValueWorkload(controller, db_name=f"kv{i}",
                                    keys=keys_per_db, seed=seed + i)
        workload.install(replicas=replicas)
        workloads.append(workload)
    recovery = RecoveryManager(controller, granularity=granularity,
                               threads=recovery_threads, retry_delay_s=1.0)
    recovery.start()
    backup = ProcessPairBackup(controller)
    backup.start_monitor()
    controller.start_failure_detector()
    crasher = FailureInjector(controller, mtbf_s=crash_mtbf_s,
                              seed=seed, oracle=False,
                              repair_mtbf_s=repair_mtbf_s,
                              min_live_machines=min_live_machines)
    crasher.start()
    partitioner = PartitionInjector(controller, mtbf_s=partition_mtbf_s,
                                    seed=seed, mean_heal_s=mean_heal_s)
    partitioner.start()

    stats = [KvStats() for _ in range(n_databases * clients_per_db)]
    idx = 0
    for workload in workloads:
        for cid in range(clients_per_db):
            proc = sim.process(workload.client(
                cid, transactions=10 ** 9, think_time_s=think_time_s,
                stats=stats[idx]))
            proc.defused = True
            idx += 1

    sim.run(until=duration_s)
    crasher.stop()
    partitioner.stop()
    controller.fabric.heal_all()
    sim.run(until=duration_s + drain_s)
    total = duration_s + drain_s
    if crash_primary:
        controller.crash_primary()
        sim.run(until=total + takeover_wait_s)
        total += takeover_wait_s

    trace = controller.trace
    metrics = controller.metrics
    return PartitionSoakResult(
        sim_seconds=total,
        failures=list(crasher.events),
        repairs=list(crasher.repairs),
        partitions=list(partitioner.events),
        committed=metrics.total_committed(),
        aborted=sum(s.aborted for s in stats),
        rejections=metrics.total_rejected(),
        throughput_tps=metrics.throughput(duration_s),
        recovery_records=recovery.records,
        suspected_total=len(trace.events(kind="machine_suspected")),
        declared=[e.machine for e in trace.events(kind="machine_declared")],
        readmitted=[e.machine
                    for e in trace.events(kind="machine_readmitted")],
        takeover_committed=list(backup.completed_on_takeover),
        takeover_aborted=list(backup.aborted_on_takeover),
        metrics=metrics,
        controller=controller,
    )


@dataclass
class ControllerSoakResult:
    """Outcome of one controller-churn soak (consensus or process pair)."""

    sim_seconds: float
    consensus: bool
    kills: List[ControllerKillEvent]
    ctl_partitions: List[PartitionEvent]
    committed: int
    aborted: int
    reconnects: int
    elections: int
    leader_changes: int
    takeovers: int
    orphaned: int
    recovery_records: List[RecoveryRecord]
    metrics: MetricsCollector
    controller: ClusterController = field(repr=False, default=None)


def run_controller_soak(
    consensus: bool = True,
    machines: int = 6,
    n_databases: int = 3,
    replicas: int = 2,
    keys_per_db: int = 30,
    clients_per_db: int = 2,
    duration_s: float = 40.0,
    drain_s: float = 20.0,
    ctl_kill_mtbf_s: float = 8.0,
    ctl_mean_repair_s: float = 4.0,
    ctl_partition_mtbf_s: Optional[float] = 15.0,
    ctl_mean_heal_s: float = 1.5,
    machine_mtbf_s: Optional[float] = 25.0,
    machine_repair_mtbf_s: float = 12.0,
    takeover_wait_s: float = 10.0,
    recovery_threads: int = 2,
    granularity: CopyGranularity = CopyGranularity.TABLE,
    write_policy: WritePolicy = WritePolicy.CONSERVATIVE,
    seed: int = 3,
    think_time_s: float = 0.2,
    copy_bytes_factor: float = 200.0,
    min_live_machines: int = 3,
    drop_probability: float = 0.005,
    latency_s: float = 0.002,
    jitter_s: float = 0.001,
) -> ControllerSoakResult:
    """The control-plane churn soak.

    With ``consensus=True`` the controller runs as a multi-Paxos group:
    replicas are killed at ``ctl_kill_mtbf_s`` (preferring the current
    leader, never below the group majority) and repaired after
    ``ctl_mean_repair_s``; controller↔controller links are cut and
    healed; machines crash silently and are repaired; and reconnecting
    clients ride across every election. Failures stop at ``duration_s``,
    everything is healed/repaired, and the run drains ``drain_s`` so
    re-replication finishes and a final leader settles. The resulting
    trace is the input for the single-leader-per-term /
    log-prefix-agreement / decision-only-under-valid-lease invariants
    (plus all the older 2PC rules).

    With ``consensus=False`` the exact same cluster, workload, and
    machine-failure schedule run under the process-pair reference; after
    the drain the primary is crashed once and the backup's monitor must
    detect the silence and take over — the pre-consensus behaviour, kept
    as the comparison (and regression) baseline.
    """
    sim = Simulator()
    config = ClusterConfig(
        write_policy=write_policy,
        replication_factor=replicas,
        recovery_threads=recovery_threads,
        lock_wait_timeout_s=2.0,
        trace_capacity=262144,
        consensus_enabled=consensus,
        network=NetworkConfig(enabled=True, latency_s=latency_s,
                              jitter_s=jitter_s,
                              drop_probability=drop_probability,
                              seed=seed),
    )
    config.consensus.seed = seed
    config.machine.copy_bytes_factor = copy_bytes_factor
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    workloads = []
    for i in range(n_databases):
        workload = KeyValueWorkload(controller, db_name=f"kv{i}",
                                    keys=keys_per_db, seed=seed + i)
        workload.install(replicas=replicas)
        workloads.append(workload)
    recovery = RecoveryManager(controller, granularity=granularity,
                               threads=recovery_threads, retry_delay_s=1.0)
    recovery.start()
    controller.start_failure_detector()
    backup = None
    ctl_injector = None
    if consensus:
        ctl_injector = ControllerKillInjector(
            controller, kill_mtbf_s=ctl_kill_mtbf_s, seed=seed,
            mean_repair_s=ctl_mean_repair_s,
            partition_mtbf_s=ctl_partition_mtbf_s,
            mean_heal_s=ctl_mean_heal_s)
        ctl_injector.start()
    else:
        backup = ProcessPairBackup(controller)
        backup.start_monitor()
    crasher = None
    if machine_mtbf_s is not None:
        crasher = FailureInjector(controller, mtbf_s=machine_mtbf_s,
                                  seed=seed, oracle=False,
                                  repair_mtbf_s=machine_repair_mtbf_s,
                                  min_live_machines=min_live_machines)
        crasher.start()

    stats = [KvStats() for _ in range(n_databases * clients_per_db)]
    idx = 0
    for workload in workloads:
        for cid in range(clients_per_db):
            proc = sim.process(workload.reconnecting_client(
                cid, until=duration_s, think_time_s=think_time_s,
                stats=stats[idx]))
            proc.defused = True
            idx += 1

    sim.run(until=duration_s)
    if ctl_injector is not None:
        ctl_injector.stop()      # repairs outstanding kills, heals cuts
    if crasher is not None:
        crasher.stop()
    controller.fabric.heal_all()
    sim.run(until=duration_s + drain_s)
    total = duration_s + drain_s
    kills: List[ControllerKillEvent] = []
    if ctl_injector is not None:
        kills = list(ctl_injector.events)
    if not consensus:
        # The staged reference failure: crash the primary, let the
        # backup's heartbeat monitor detect the silence and take over.
        kills.append(ControllerKillEvent(sim.now, "primary",
                                         was_leader=True))
        controller.crash_primary()
        sim.run(until=total + takeover_wait_s)
        total += takeover_wait_s

    trace = controller.trace
    metrics = controller.metrics
    return ControllerSoakResult(
        sim_seconds=total,
        consensus=consensus,
        kills=kills,
        ctl_partitions=(list(ctl_injector.partitions)
                        if ctl_injector is not None else []),
        committed=metrics.total_committed(),
        aborted=sum(s.aborted for s in stats),
        reconnects=sum(s.reconnects for s in stats),
        elections=metrics.network.elections,
        leader_changes=metrics.network.leader_changes,
        takeovers=(len(trace.events(kind="ctl_takeover")) if consensus
                   else len(trace.events(kind="takeover"))),
        orphaned=len(trace.events(kind="txn_orphaned")),
        recovery_records=recovery.records,
        metrics=metrics,
        controller=controller,
    )


@dataclass
class DrSoakResult:
    """Outcome of one cross-colo disaster-recovery soak."""

    sim_seconds: float
    committed: int
    aborted: int
    colo_killed: str
    killed_at: float
    repaired_at: Optional[float]
    partitions: List[PartitionEvent]
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
    colos: int = 3,
    free_machines_per_colo: int = 8,
    n_databases: int = 2,
    keys_per_db: int = 25,
    clients_per_db: int = 2,
    duration_s: float = 40.0,
    drain_s: float = 30.0,
    kill_colo_at_s: Optional[float] = None,
    repair_colo_at_s: Optional[float] = None,
    wan_drop_probability: float = 0.05,
    wan_latency_s: float = 0.01,
    wan_jitter_s: float = 0.005,
    wan_partition_mtbf_s: float = 10.0,
    wan_mean_heal_s: float = 1.5,
    heartbeat_interval_s: float = 0.5,
    suspect_after_misses: int = 2,
    declare_after_misses: int = 6,
    seed: int = 3,
    think_time_s: float = 0.3,
) -> DrSoakResult:
    """The disaster soak: a colo dies mid-run and detection must save it.

    Databases span ``colos`` colos with async WAN log shipping over a
    lossy, partitionable fabric. Mid-run the colo primarying the most
    databases is killed *silently*: the colo heartbeat detector must
    suspect it, declare and fence it under a new epoch, promote each
    standby, and re-protect the promoted databases on surviving colos.
    Later the dead colo is repaired and rejoins blank — the failback
    target. Failures stop at ``duration_s``; the WAN heals and the run
    drains ``drain_s`` so catch-up finishes — the state the lag-drain
    invariant is checked against.
    """
    sim = Simulator()
    platform = DataPlatform(
        sim,
        wan=NetworkConfig(enabled=True, latency_s=wan_latency_s,
                          jitter_s=wan_jitter_s,
                          drop_probability=wan_drop_probability,
                          seed=seed),
        heartbeat_interval_s=heartbeat_interval_s,
        suspect_after_misses=suspect_after_misses,
        declare_after_misses=declare_after_misses,
    )
    system = platform.system
    for i in range(colos):
        platform.add_colo(f"colo{i}", free_machines=free_machines_per_colo,
                          location=float(i))
    for i in range(n_databases):
        platform.create_database(DatabaseSpec(
            name=f"kv{i}", ddl=KV_DDL, sla=Sla(5.0, 0.01),
            expected_size_mb=2.0, replicas=2))
        platform.bulk_load(f"kv{i}", "kv",
                           [(k, 0) for k in range(keys_per_db)])
    system.start_failure_detector()
    partitioner = WanPartitionInjector(system, mtbf_s=wan_partition_mtbf_s,
                                       seed=seed,
                                       mean_heal_s=wan_mean_heal_s)
    partitioner.start()

    stats = [KvStats() for _ in range(n_databases * clients_per_db)]
    idx = 0
    for i in range(n_databases):
        for cid in range(clients_per_db):
            proc = sim.process(_dr_client(
                platform, f"kv{i}", cid, seed * 1000 + i * 100 + cid,
                keys_per_db, duration_s, think_time_s, stats[idx]))
            proc.defused = True
            idx += 1

    kill_at = kill_colo_at_s if kill_colo_at_s is not None \
        else duration_s * 0.4
    repair_at = repair_colo_at_s if repair_colo_at_s is not None \
        else duration_s * 0.75
    # Kill the colo that primaries the most databases — the worst case.
    primaried: Dict[str, int] = {}
    for db, (primary, _standby) in system.placements.items():
        primaried[primary] = primaried.get(primary, 0) + 1
    victim = max(sorted(system.colos), key=lambda c: primaried.get(c, 0))

    sim.run(until=kill_at)
    system.crash_colo(victim)
    sim.run(until=min(repair_at, duration_s))
    if repair_at < duration_s and victim in system.declared_dead:
        system.repair_colo(victim)
        repaired_at = sim.now
    else:
        repaired_at = None
    sim.run(until=duration_s)
    partitioner.stop()
    system.wan.heal_all()
    if repaired_at is None and victim in system.declared_dead:
        system.repair_colo(victim)
        repaired_at = sim.now
    sim.run(until=duration_s + drain_s)

    trace = system.trace
    metrics = system.metrics
    summary = system.dr_summary()
    return DrSoakResult(
        sim_seconds=duration_s + drain_s,
        committed=sum(s.committed for s in stats),
        aborted=sum(s.aborted for s in stats),
        colo_killed=victim,
        killed_at=kill_at,
        repaired_at=repaired_at,
        partitions=list(partitioner.events),
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
    size_range_mb: Tuple[float, float] = (200.0, 1000.0),
    tps_range: Tuple[float, float] = (0.1, 10.0),
    replicas: int = 1,
    machine_capacity: Optional[ResourceVector] = None,
    write_mix: float = 0.2,
    working_set_fraction: float = 0.25,
) -> SlaPlacementResult:
    """Table 2: zipf-skewed demands, First-Fit vs exhaustive optimum.

    Database sizes and throughputs are drawn from bounded zipfians with
    the given skew (higher skew concentrates near the low end of each
    range, shrinking the averages — matching the paper's Table 2 trend).
    """
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
        loads.append(DatabaseLoad(f"db{i}", requirement, replicas=replicas))

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
    jitter_s: float = 0.0,
    seed: int = 11,
    think_time_s: float = 0.01,
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
        network=NetworkConfig(enabled=True, latency_s=latency_s,
                              jitter_s=jitter_s, drop_probability=0.0,
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
            think_time_s=think_time_s, stats=stats[cid]))
        proc.defused = True
    sim.run()

    metrics = controller.metrics
    return CommitLatencyBenchResult(
        replicas=replicas,
        write_policy=write_policy,
        latency_s=latency_s,
        committed=metrics.total_committed(),
        aborted=sum(s.aborted for s in stats),
        sim_seconds=sim.now,
        latencies=metrics.latency_summary(),
        fanouts=metrics.fanout_summary(),
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
    #: The flash-crowd target (a cold tenant until the crowd arrived).
    flash_db: str
    flash_at_s: float
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
    summarised_latency_tenants: int
    cold_engine_tenants: int
    paged_out_logs: int
    metrics: MetricsCollector
    controller: ClusterController = field(repr=False, default=None)


def run_many_tenants(
    n_databases: int = 2000,
    machines: int = 12,
    replicas: int = 2,
    hot_fraction: float = 0.01,
    keys_per_db: int = 8,
    duration_s: float = 20.0,
    think_time_s: float = 0.2,
    zipf_theta: float = 1.1,
    churn_period_s: float = 0.5,
    flash_at_s: float = 10.0,
    flash_clients: int = 8,
    flash_think_time_s: float = 0.02,
    sla_tps: float = 4.0,
    admission: bool = True,
    max_resident_tenant_logs: int = 64,
    metrics_resident_tenants: int = 64,
    max_resident_buckets: int = 256,
    seed: int = 11,
) -> ManyTenantsResult:
    """The tenant-scale soak: many small, mostly-cold applications.

    Stages ``n_databases`` tenants (engine DDL deferred — a cold tenant
    is a replica-map entry and a DDL string), drives Zipf-skewed
    traffic over a ``hot_fraction`` subset, churns tenants (one drop +
    one create every ``churn_period_s``), and at ``flash_at_s`` throws
    a flash crowd at one tenant that has never been touched. The
    interesting outputs are the resident-state gauges: with 1% of
    tenants hot, per-tenant controller state (delta logs, LSN maps,
    admission buckets, latency histograms) must track the hot set, not
    the population.
    """
    if n_databases < 10:
        raise ValueError("need at least 10 tenants for a meaningful soak")
    sim = Simulator()
    config = ClusterConfig(
        replication_factor=replicas,
        lock_wait_timeout_s=2.0,
        trace_capacity=262144,
        admission_control=admission,
        lazy_tenant_state=True,
        lazy_engine_ddl=True,
        max_resident_tenant_logs=max_resident_tenant_logs,
        metrics_resident_tenants=metrics_resident_tenants,
    )
    config.admission.max_resident_buckets = max_resident_buckets
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    sla = Sla(min_throughput_tps=sla_tps, max_rejected_fraction=0.05)

    def db_name(i):
        return f"t{i:06d}"

    for i in range(n_databases):
        # Every 4th tenant buys an SLA; the rest ride the default rate.
        controller.create_database(db_name(i), KV_DDL, replicas=replicas,
                                   sla=sla if i % 4 == 0 else None)

    # Hot set: the first hot_fraction of tenants, zipf-weighted think
    # times (tenant 0 hottest). The flash-crowd target sits far outside
    # the hot set and gets no staged traffic at all.
    hot_tenants = max(1, int(n_databases * hot_fraction))
    flash_db = db_name(n_databases // 2)
    rng = SeededRNG(seed).fork("manytenants")
    zipf = ZipfGenerator(64, zipf_theta, rng.fork("skew"))
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

        def staggered(client, delay):
            yield sim.timeout(delay)
            result = yield from client
            return result

        proc = sim.process(staggered(
            workload.client(0, transactions=10 ** 9, think_time_s=think,
                            stats=client_stats),
            rng.uniform(0.0, think_time_s)))
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
            controller.create_database(db_name(next_new), KV_DDL,
                                       replicas=replicas)
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
        flash_db=flash_db,
        flash_at_s=flash_at_s,
        flash_first_commit_s=(flash_first_commit[0]
                              if flash_first_commit else None),
        flash_committed=sum(s.committed for s in flash_stats),
        resident_db_logs=len(controller.db_logs),
        resident_log_entries=sum(len(log)
                                 for log in controller.db_logs.values()),
        resident_replica_lsn_maps=len(controller.replica_lsns),
        resident_admission_buckets=(len(controller.admission.buckets)
                                    if controller.admission is not None
                                    else 0),
        resident_latency_histograms=len(metrics.db_latencies),
        summarised_latency_tenants=len(metrics.db_latency_summaries),
        cold_engine_tenants=len(controller._cold_dbs),
        paged_out_logs=len(controller.trace.events(kind="log_paged_out")),
        metrics=metrics,
        controller=controller,
    )
