"""The paper's measurements, as declarations for :func:`run_scenario`,
and the paper's tables and figures that both the CLI and a bench run.

Declarations: Table 1's interleaving, TPC-W clusters (Figures 2-7 and
the ablations), one induced failure under TPC-W (Figures 8-9), the
delta-vs-full re-replication comparison and the 2PC commit-latency
measurement. Each returns a :class:`Scenario`, and each report reads a
finished :class:`Run`. The cluster-tier soaks are in
:mod:`repro.harness.soaks`.

Tables and figures: :func:`table1`, :func:`table2`,
:func:`throughput_figure` (Figures 2-4) and :func:`recovery_figures`
(Figures 8 and 9, one sweep). Each runs its sweep and returns the text
committed under ``benchmarks/results/`` plus the data its bench asserts
on; ``each_run(label, run)``, where given, sees every point's finished
run (the CLI audits them).

Every parameter has a caller (``tests/unit/test_harness.py`` walks the
call sites); a value nobody varies is a literal of the declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import check_one_copy_serializable
from repro.cluster import ClusterConfig, ReadOption, WritePolicy
from repro.cluster.network import NetworkConfig
from repro.cluster.recovery import RecoveryRecord
from repro.harness.faults import Fault
from repro.harness.reporting import format_series, format_table
from repro.harness.scenario import (Kv, Run, Scenario, Scripted, Tpcw,
                                    run_scenario)
from repro.sim.rng import SeededRNG
from repro.sla.model import ResourceVector
from repro.sla.optimal import SlaPlacementResult, first_fit_vs_optimal
from repro.workloads.tpcw import TpcwScale

#: Sees each point of a sweep: its label and its finished run.
EachRun = Optional[Callable[[str, Run], None]]


def serializability(read_option: ReadOption, write_policy: WritePolicy,
                    seed: int) -> Scenario:
    """The paper's Table 1 interleaving under one read option and write
    policy: one key-value tenant of three keys on two machines, each a
    replica, and three one-transaction clients — r(0) w(1), r(1) w(0),
    r(1) w(2). Seed 0 starts all three at once, the paper's exact
    interleaving; the other seeds jitter each start by up to 0.1 ms."""
    rng = SeededRNG(seed)
    return Scenario(
        config=ClusterConfig(read_option=read_option,
                             write_policy=write_policy,
                             record_history=True, lock_wait_timeout_s=1.0),
        seed=seed, duration_s=None, machines=2, databases=1,
        tenant=Scripted(scripts=((0, 1), (1, 0), (1, 2))), clients_per_db=3,
        start_delays_s=[0.0 if seed == 0 else rng.uniform(0, 1e-4)
                        for _ in range(3)])


def tpcw(
    mix: str = "shopping",
    read_option: ReadOption = ReadOption.OPTION_1,
    write_policy: WritePolicy = WritePolicy.CONSERVATIVE,
    machines: int = 4,
    databases: int = 4,
    replicas: int = 2,
    clients_per_db: int = 4,
    duration_s: float = 30.0,
    scale: Optional[TpcwScale] = None,
    think_time_s: float = 0.2,
    buffer_pool_pages: Optional[int] = None,
    lock_wait_timeout_s: float = 5.0,
    nonlocking_reads: bool = False,
) -> Scenario:
    """One steady-state TPC-W run.

    ``replicas=1`` gives the paper's no-replication baseline.
    ``nonlocking_reads=True`` gives MySQL-style consistent reads (used by
    the deadlock-rate experiments).
    """
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
    return Scenario(
        config=config, seed=7, duration_s=duration_s, machines=machines,
        databases=databases, clients_per_db=clients_per_db,
        tenant=Tpcw(scale or TpcwScale(items=500,
                                       emulated_browsers=clients_per_db),
                    mix),
        think_time_s=think_time_s)


@dataclass
class TpcwReport:
    """Cluster-level aggregates of one TPC-W run."""

    committed: int
    deadlocks: int
    throughput_tps: float
    deadlock_rate_per_s: float
    buffer_hit_rate: float


def tpcw_report(run: Run) -> TpcwReport:
    metrics, duration_s = run.metrics, run.scenario.duration_s
    pools = [m.engine.buffer_pool.stats
             for m in run.controller.machines.values()]
    hits = sum(p.hits for p in pools)
    accesses = hits + sum(p.misses for p in pools)
    return TpcwReport(
        committed=metrics.total_committed(),
        deadlocks=metrics.total_deadlocks(),
        throughput_tps=metrics.throughput(duration_s),
        deadlock_rate_per_s=metrics.deadlock_rate(duration_s),
        buffer_hit_rate=hits / accesses if accesses else 0.0)


def recovery(
    copy: str,
    recovery_threads: int = 1,
    duration_s: float = 120.0,
    failure_time_s: float = 30.0,
    copy_bytes_factor: float = 800.0,
) -> Scenario:
    """Kill one machine mid-run and measure the re-replication.

    Four TPC-W tenants on four machines, two browsers each; the failed
    machine is the one hosting the most databases, so several databases
    need re-replication at once — making the recovery-thread count (the
    x-axis of Figure 8) matter. ``copy_bytes_factor`` scales the
    generated databases (a few hundred KB) up to the paper's 200 MB class
    for copy-duration purposes. ``copy`` is the :class:`RecoveryManager`
    strategy: ``"table"`` / ``"database"`` are Algorithm 1 (writes
    rejected for the copy's duration, per table or for the whole
    database), ``"delta"`` the log-structured pipeline (rejection only
    during the final log drain).
    """
    config = ClusterConfig(recovery_threads=recovery_threads)
    config.machine.copy_bytes_factor = copy_bytes_factor

    def victim(run: Run) -> List[Fault]:
        replica_map = run.controller.replica_map
        return [Fault(failure_time_s, "fail",
                      max(run.controller.machines,
                          key=replica_map.hosted_count))]

    return Scenario(
        config=config, seed=11, duration_s=duration_s, machines=4,
        databases=4, clients_per_db=2, think_time_s=0.3, copy=copy,
        tenant=Tpcw(TpcwScale(items=400, emulated_browsers=2),
                    strides=(977, 31)),
        faults=victim)


@dataclass
class RecoveryReport:
    """Outcome of one induced-failure run (Figures 8 and 9)."""

    rejections_total: int
    mean_rejections_per_db: float
    throughput_before_tps: float
    throughput_during_tps: float
    throughput_after_tps: float
    recovery_records: List[RecoveryRecord]
    recovery_complete_time: Optional[float]
    throughput_series: List[Tuple[float, float]]


def recovery_report(run: Run) -> RecoveryReport:
    metrics, duration_s = run.metrics, run.scenario.duration_s
    failure_time_s = run.schedule[0].at
    records = run.parts["recovery"].records
    recovery_end = max((r.finished_at for r in records if r.succeeded),
                       default=None)
    commits = metrics.commits_over_time.series(duration_s)

    def window_tps(lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        return sum(v for t, v in commits if lo <= t < hi) / (hi - lo)

    during_end = min(duration_s if recovery_end is None else recovery_end,
                     duration_s)
    return RecoveryReport(
        rejections_total=metrics.total_rejected(),
        mean_rejections_per_db=(metrics.total_rejected()
                                / run.scenario.databases),
        throughput_before_tps=window_tps(0.0, failure_time_s),
        throughput_during_tps=window_tps(failure_time_s, during_end),
        throughput_after_tps=window_tps(during_end, duration_s),
        recovery_records=records,
        recovery_complete_time=recovery_end,
        throughput_series=metrics.commits_over_time.rate_series(duration_s))


def delta_recovery(
    copy: str,
    copy_bytes_factor: float = 20_000.0,
    duration_s: float = 60.0,
) -> Scenario:
    """Kill one replica of a single database under steady write load and
    measure the re-replication's write-rejection window.

    ``copy_bytes_factor`` scales the database size (hence the copy's
    dump/transfer/load time); the database-level full copy
    (``copy="database"``) rejects writes for that whole duration, while
    the delta pipeline's reject window is the log-drain handoff —
    independent of size.
    """
    config = ClusterConfig()
    config.machine.copy_bytes_factor = copy_bytes_factor
    # Four writers at 20 updates/s each keep the retained log busy for
    # the whole copy; the failure lands once they are in steady state.
    return Scenario(
        config=config, seed=7, duration_s=duration_s, machines=4,
        databases=1, tenant=Kv(keys=300, reads=0), clients_per_db=4,
        think_time_s=0.05, copy=copy,
        faults=lambda run: [Fault(5.0, "fail",
                                  run.controller.replica_map.replicas(
                                      "kv0")[1])])


@dataclass
class DeltaRecoveryReport:
    """One size point of the delta-vs-full recovery comparison."""

    committed: int
    rejections: int
    recovery_duration_s: Optional[float]
    #: Seconds during which Algorithm 1 rejected writes: the whole copy
    #: for the full pipeline, only the log-drain handoff for delta.
    reject_window_s: Optional[float]
    #: Retained-log entries replayed on the target (delta only).
    replayed: Optional[int]


def delta_recovery_report(run: Run) -> DeltaRecoveryReport:
    record = next(iter(run.recoveries), None)
    duration = record.duration if record is not None else None
    handoff = next(iter(run.events("delta_handoff")), None)
    if run.scenario.copy == "delta":
        reject_window, replayed = (
            (handoff.extra.get("reject_s"), handoff.extra.get("replayed"))
            if handoff is not None else (None, None))
    else:
        # The full-copy pipeline rejects for the copy's whole duration.
        reject_window, replayed = duration, None
    return DeltaRecoveryReport(
        committed=run.committed, rejections=run.rejections,
        recovery_duration_s=duration, reject_window_s=reject_window,
        replayed=replayed)


def commit_latency(
    replicas: int = 3,
    write_policy: WritePolicy = WritePolicy.CONSERVATIVE,
    clients: int = 4,
    transactions_per_client: int = 50,
    keys: int = 64,
    latency_s: float = 0.003,
    seed: int = 11,
) -> Scenario:
    """Measure 2PC phase latency with the fabric's latency enabled.

    One cluster of ``replicas`` machines (so every write fans out to all
    of them), a seeded key-value workload whose clients run dry, and a
    lossless fabric with a fixed one-way ``latency_s`` — the setting
    where a serial coordinator would pay ``replicas`` round trips per
    phase and the fan-out pays one (plus the participant's log flush).
    """
    return Scenario(
        config=ClusterConfig(
            write_policy=write_policy, replication_factor=replicas,
            # No jitter, no loss: a phase costs exactly its round trip.
            network=NetworkConfig(enabled=True, latency_s=latency_s,
                                  jitter_s=0.0, drop_probability=0.0,
                                  seed=seed)),
        seed=seed, duration_s=None, machines=replicas, databases=1,
        tenant=Kv(keys=keys), clients_per_db=clients, think_time_s=0.01,
        transactions=transactions_per_client)


@dataclass
class CommitLatencyReport:
    """Commit-pipeline latency under one replication factor and policy."""

    replicas: int
    latency_s: float
    committed: int
    aborted: int
    sim_seconds: float
    # {phase: {count, mean, p50, p95, p99}} — "prepare", "commit",
    # "txn", plus per-branch "branch:prepare" / "branch:commit".
    latencies: Dict[str, Dict[str, float]]
    # {label: {count, mean_width, max_width}} per broadcast label.
    fanouts: Dict[str, Dict[str, float]]

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


def commit_latency_report(run: Run) -> CommitLatencyReport:
    config, snapshot = run.scenario.config, run.metrics.snapshot()
    return CommitLatencyReport(
        replicas=config.replication_factor,
        latency_s=config.network.latency_s, committed=run.committed,
        aborted=run.aborted, sim_seconds=run.sim.now,
        latencies=snapshot["phases"], fanouts=snapshot["fanouts"])


# -- The paper's tables and figures ------------------------------------

def table1() -> Tuple[str, Dict[Tuple[ReadOption, WritePolicy], bool]]:
    """Table 1: per read option and write policy, whether the execution
    of every seed 0-5 is one-copy serializable (a cycle check of the
    global serialization graph). Returns the table and that matrix."""
    rows, matrix = [], {}
    for option in (ReadOption.OPTION_1, ReadOption.OPTION_2,
                   ReadOption.OPTION_3):
        row = [option.name.replace("_", " ").title()]
        for policy in (WritePolicy.CONSERVATIVE, WritePolicy.AGGRESSIVE):
            serializable = all(
                check_one_copy_serializable(run_scenario(serializability(
                    option, policy, seed)).controller.history)[0]
                for seed in range(6))
            matrix[(option, policy)] = serializable
            row.append("Serializable" if serializable else "NOT serializable")
        rows.append(row)
    return format_table(
        ["", "Conservative Controller", "Aggressive Controller"],
        rows), matrix


def table2(databases: int = 20,
           seed: int = 3) -> Tuple[str, List[SlaPlacementResult]]:
    """Table 2: First-Fit against the exhaustive optimum over ``databases``
    zipfian tenants, skew 0.4-2.0. The machine is calibrated so ~20
    databases land in the paper's 4-9 machine range: memory is the
    binding dimension (working sets must stay resident), as on the
    paper's 4 GB machines running 2 GB buffer pools."""
    capacity = ResourceVector(cpu=2.0, memory_mb=1200.0, disk_io_mbps=60.0,
                              disk_mb=20000.0)
    results = [first_fit_vs_optimal(skew, n_databases=databases, seed=seed,
                                    machine_capacity=capacity,
                                    working_set_fraction=0.55)
               for skew in (0.4, 0.8, 1.2, 1.6, 2.0)]
    return format_table(
        ["Skew Factor", "Average Size (MB)", "Average Throughput (TPS)",
         "# of Machines Used", "Optimal Solution"],
        [[r.skew, r.avg_size_mb, r.avg_throughput_tps, r.machines_first_fit,
          r.machines_optimal] for r in results]), results


def throughput_figure(
    mix: str,
    duration_s: float = 12.0,
    each_run: EachRun = None,
) -> Tuple[str, Dict[str, Dict[int, float]]]:
    """One of Figures 2-4: TPC-W ``mix`` throughput of each curve at each
    client count, with 2-way synchronous replication under a conservative
    controller. Returns the table and ``{curve: {clients: tps}}``."""
    curves = (("no-replication", 1, ReadOption.OPTION_1),
              ("option-1", 2, ReadOption.OPTION_1),
              ("option-2", 2, ReadOption.OPTION_2),
              ("option-3", 2, ReadOption.OPTION_3))
    clients_swept = (2, 4)
    series: Dict[str, Dict[int, float]] = {}
    hits: Dict[str, float] = {}
    for label, replicas, option in curves:
        series[label] = {}
        for clients in clients_swept:
            run = run_scenario(tpcw(
                mix=mix, read_option=option, replicas=replicas,
                clients_per_db=clients, duration_s=duration_s,
                scale=TpcwScale(items=1200, emulated_browsers=clients),
                think_time_s=0.02, buffer_pool_pages=256))
            result = tpcw_report(run)
            series[label][clients] = result.throughput_tps
            hits[label] = result.buffer_hit_rate
            if each_run is not None:
                each_run(f"{mix}-{label}-{clients}eb", run)
    headers = (["configuration"] + [f"tps @{c} EB/db" for c in clients_swept]
               + ["buffer hit rate"])
    rows = [[label] + [series[label][c] for c in clients_swept]
            + [hits[label]] for label, _, _ in curves]
    return format_table(headers, rows), series


def recovery_figures(
    each_run: EachRun = None,
) -> Tuple[str, str, Dict[Tuple[str, int], RecoveryReport]]:
    """Figures 8 and 9 from one sweep: Algorithm 1's table-level and
    database-level copies (asked for by name: the platform's default,
    the delta pipeline, rejects next to nothing) at 1, 2 and 4 recovery
    threads, each a 120 s run with the failure at 20 s. Figure 8 is every
    point's rejections per database; Figure 9 is the two 2-thread points'
    throughput before, during and after recovery, and over time. Returns
    both texts and ``{(copy, threads): report}``."""
    threads_swept = (1, 2, 4)
    results: Dict[Tuple[str, int], RecoveryReport] = {}
    for copy in ("table", "database"):
        for threads in threads_swept:
            run = run_scenario(recovery(
                copy=copy, recovery_threads=threads, failure_time_s=20.0,
                copy_bytes_factor=2000.0))
            results[(copy, threads)] = recovery_report(run)
            if each_run is not None:
                each_run(f"{copy}-{threads}", run)
    fig8 = format_table(
        ["recovery threads", "table-level rej/db", "db-level rej/db"],
        [[threads, results[("table", threads)].mean_rejections_per_db,
          results[("database", threads)].mean_rejections_per_db]
         for threads in threads_swept])
    table, database = results[("table", 2)], results[("database", 2)]
    fig9 = format_table(
        ["phase", "table-level tps", "db-level tps"],
        [["before failure", table.throughput_before_tps,
          database.throughput_before_tps],
         ["during recovery", table.throughput_during_tps,
          database.throughput_during_tps],
         ["after recovery", table.throughput_after_tps,
          database.throughput_after_tps]])
    fig9 += "\n\n" + format_series("table-level throughput over time (tps)",
                                   table.throughput_series)
    fig9 += "\n" + format_series("db-level throughput over time (tps)",
                                database.throughput_series)
    return fig8, fig9, results
