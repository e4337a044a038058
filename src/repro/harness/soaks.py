"""The soaks, as declarations for :func:`run_scenario`.

Each function returns a :class:`Scenario`; its parameters are only the
values some caller sets (the CLI, a test, a benchmark). Everything else —
machines, tenants, keys, think times, repair rates, link latency — is a
literal of the declaration, and a caller that needs a different size says
``dataclasses.replace(soaks.faults(...), machines=5, databases=1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import Any, Dict, List, Optional

from repro.analysis.metrics import Histogram
from repro.cluster import ClusterConfig, ConsensusConfig, WritePolicy
from repro.cluster.config import production_profile
from repro.cluster.network import NetworkConfig
from repro.harness.faults import (Fault, controller_kills, crashes, link_cuts,
                                  wan_cuts)
from repro.harness.scenario import Kv, Run, Scenario
from repro.sim.rng import SeededRNG, ZipfGenerator
from repro.sla.model import Sla
from repro.sla.monitor import OverloadMonitor
from repro.workloads.microbench import KV_DDL, KeyValueWorkload

HOT_DB = "kv0"
#: How long the partition soak runs on after its finale kills the leader.
TAKEOVER_S = 10.0


def _config(seed: int, copy_bytes_factor: float, **cluster) -> ClusterConfig:
    """The soaks' cluster, a variant of the production profile: two
    replicas, two recovery threads, a lock-wait timeout short enough
    that distributed deadlocks resolve within a soak, and each plane
    (fabric, a controller group with peers) on only where ``cluster``
    says so — the controller is otherwise a group of one."""
    planes = dict(network=NetworkConfig(), consensus=ConsensusConfig())
    config = replace(production_profile(seed), replication_factor=2,
                     recovery_threads=2, lock_wait_timeout_s=2.0,
                     **{**planes, **cluster})
    config.machine.copy_bytes_factor = copy_bytes_factor
    return config


def _lossy_fabric(seed: int, drop_probability: float) -> NetworkConfig:
    """The production fabric made slower, noisier and lossy."""
    return replace(production_profile(seed).network, latency_s=0.002,
                   jitter_s=0.001, drop_probability=drop_probability)


def _machines(run: Run):
    return sorted(run.controller.machines)


def _crashes(seed: int, mtbf_s: float, kind: str = "fail",
             repair_mtbf_s: Optional[float] = None):
    """Poisson machine faults over the injection window; ``"crash"``
    goes silent (detection must notice) and ``repair_mtbf_s`` returns
    dead machines as blank spares."""
    return lambda run: crashes(seed, _machines(run), run.scenario.duration_s,
                               mtbf_s, kind=kind, repair_mtbf_s=repair_mtbf_s)


def _detector(run: Run):
    run.controller.start_failure_detector()
    return run.controller.detector


def _overload_monitor(run: Run) -> OverloadMonitor:
    monitor = OverloadMonitor(run.controller)
    monitor.start()
    return monitor


def faults(duration_s: float = 45.0, drain_s: float = 30.0,
           mtbf_s: float = 10.0, seed: int = 3,
           copy: str = "delta") -> Scenario:
    """Sustained Poisson machine failures under a key-value workload.

    Failures stop at ``duration_s``; the drain lets background
    re-replication finish — the state the invariant checker's recovery
    rule is checked against.
    """
    return Scenario(
        # Copies of a few seconds, so failures land mid-copy.
        config=_config(seed, 1000.0), seed=seed,
        duration_s=duration_s, drain_s=drain_s, copy=copy,
        faults=_crashes(seed, mtbf_s))


def partitions(duration_s: float = 60.0, drain_s: float = 40.0,
               partition_mtbf_s: float = 8.0, seed: int = 3,
               write_policy: WritePolicy = WritePolicy.CONSERVATIVE,
               copy: str = "delta") -> Scenario:
    """Everything bad the fabric can do, at once.

    Links are cut and healed, messages dropped, machines crash silently
    and are repaired into the free pool, all under a key-value workload,
    on the production controller group. The finale, after the drain,
    kills the leader and runs :data:`TAKEOVER_S` more: another replica
    must take over. The trace is the input for the lease / fencing /
    suspicion invariants.
    """
    return Scenario(
        config=_config(seed, 200.0, write_policy=write_policy,
                       network=_lossy_fabric(seed, 0.01),
                       consensus=production_profile(seed).consensus),
        seed=seed, duration_s=duration_s, drain_s=drain_s + TAKEOVER_S,
        copy=copy, services={"detector": _detector},
        faults=lambda run: (
            _crashes(seed, 30.0, "crash", repair_mtbf_s=15.0)(run)
            + link_cuts(seed, _machines(run), run.scenario.duration_s,
                        partition_mtbf_s, 4.0, run.controller.fabric.config)
            + [Fault(duration_s + drain_s, "kill_ctl", "leader")]))


def controllers(duration_s: float = 40.0, drain_s: float = 20.0,
                ctl_kill_mtbf_s: float = 8.0, seed: int = 3) -> Scenario:
    """Control-plane churn under reconnecting clients.

    The controller is the production group: replicas are killed at
    ``ctl_kill_mtbf_s`` (never below the majority) and repaired,
    controller↔controller links are cut and healed, machines crash
    silently and are repaired. Every kill and cut is closed by
    ``duration_s`` (the draws clamp there), and the drain lets
    re-replication finish and a final leader settle — the input for the
    single-leader-per-term / log-prefix-agreement /
    decision-only-under-valid-lease invariants.
    """

    def faults(run: Run):
        return (_crashes(seed, 25.0, "crash", repair_mtbf_s=12.0)(run)
                + controller_kills(
                    seed, run.controller.consensus.group.names,
                    run.scenario.duration_s, ctl_kill_mtbf_s, 4.0, 15.0, 1.5,
                    run.controller.fabric.config))

    return Scenario(
        config=_config(seed, 200.0, trace_capacity=262144,
                       consensus=production_profile(seed).consensus,
                       network=_lossy_fabric(seed, 0.005)),
        seed=seed, duration_s=duration_s, drain_s=drain_s, copy="delta",
        reconnecting=True, services={"detector": _detector}, faults=faults)


def stampede(hot_sla: bool = True, duration_s: float = 40.0,
             ramp_at_s: float = 15.0, drain_s: float = 0.0,
             hot_clients: int = 60, sla_tps: float = 4.0,
             max_rejected_fraction: float = 0.05,
             mtbf_s: Optional[float] = None, seed: int = 3) -> Scenario:
    """One tenant stampedes, neighbours keep their SLAs.

    Every neighbour declares the same :class:`Sla`, and so does the hot
    tenant (``kv0``) unless ``hot_sla`` is False. Neighbours offer
    zipf-skewed steady load below their floors; at ``ramp_at_s`` the hot
    tenant adds ``hot_clients`` low-think-time clients. With its SLA the
    hot tenant's token bucket must throttle it to its provisioned rate
    while neighbours stay inside their rejection bounds; without one it
    holds no bucket, and the same schedule runs it unthrottled — the
    contrast. The overload monitor emits the ``sla_window`` /
    ``sla_breach`` events the two overload invariant rules audit.
    ``mtbf_s`` layers machine failures with background recovery on top.
    """
    databases, clients_per_db, think_time_s = 6, 2, 0.5
    # Every neighbour offers less than the hot tenant's baseline, some
    # far less; start times are spread so the t=0 thundering herd does
    # not pollute the baseline latency window.
    skew_rng = SeededRNG(seed).fork("stampede-skew")
    skew = ZipfGenerator(64, 1.1, skew_rng)
    think = [think_time_s] + [
        skew.sample_in_range(think_time_s, 4.0 * think_time_s)
        for _ in range(databases - 1)]
    delays = [skew_rng.uniform(0.0, think_time_s)
              for _ in range(databases * clients_per_db)]

    def ramp(run: Run) -> None:
        metrics = run.metrics
        run.marks["ramp_at_s"] = run.sim.now
        run.marks["counts"] = {
            db: (c.committed, c.overload_rejected, c.total_finished)
            for db, c in metrics.per_db.items()}
        run.marks["latencies"] = {
            db: histogram.copy()
            for db, histogram in metrics.db_latencies.items()}
        for client_id in range(hot_clients):
            run.spawn_client(0, 100 + client_id, think_time_s=0.02)

    sla = Sla(min_throughput_tps=sla_tps,
              max_rejected_fraction=max_rejected_fraction)
    return Scenario(
        config=_config(seed, 200.0, trace_capacity=262144),
        seed=seed, duration_s=duration_s, drain_s=drain_s,
        machines=4, databases=databases, tenant=Kv(keys=40),
        clients_per_db=clients_per_db,
        slas=[sla if hot_sla else None] + [sla] * (databases - 1),
        think_time_s=think, start_delays_s=delays,
        copy=None if mtbf_s is None else "delta",
        services={"overload_monitor": _overload_monitor},
        faults=(lambda run: ()) if mtbf_s is None else _crashes(seed, mtbf_s),
        staged=[(ramp_at_s, ramp)])


@dataclass
class StampedeReport:
    """Post-ramp accounting of one :func:`stampede` run."""

    #: Hot tenant's provisioned admission rate (tps); None when it
    #: declared no SLA.
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


def stampede_report(run: Run) -> StampedeReport:
    """What happened after the ramp, per tenant and for the hot one."""
    metrics = run.metrics
    counts, latency_marks = run.marks["counts"], run.marks["latencies"]
    post_ramp: Dict[str, Dict[str, float]] = {}
    for db in sorted(metrics.per_db):
        counters = metrics.per_db[db]
        # A tenant that finished nothing before the ramp has no mark.
        committed, overload, finished = counts.get(db, (0, 0, 0))
        finished = counters.total_finished - finished
        overload = counters.overload_rejected - overload
        post_ramp[db] = {
            "committed": counters.committed - committed,
            "overload_rejected": overload,
            "finished": finished,
            "overload_rejected_fraction": (overload / finished
                                           if finished else 0.0),
        }
    baseline_p99: Dict[str, float] = {}
    stampede_p99: Dict[str, float] = {}
    ratios = []
    for db, histogram in sorted(metrics.db_latencies.items()):
        baseline = latency_marks.get(db, Histogram())
        baseline_p99[db] = baseline.percentile(99.0)
        stampede_p99[db] = histogram.minus(baseline).percentile(99.0)
        if (db != HOT_DB and baseline_p99[db] > 0
                and histogram.count > baseline.count):
            ratios.append(stampede_p99[db] / baseline_p99[db])

    hot_window = max(run.sim.now - run.marks["ramp_at_s"], 1e-9)
    hot = post_ramp[HOT_DB]
    return StampedeReport(
        hot_provisioned_tps=run.controller.admission.provisioned_rate(HOT_DB),
        hot_goodput_tps=hot["committed"] / hot_window,
        hot_admitted_fraction=1.0 - hot["overload_rejected_fraction"],
        post_ramp=post_ramp,
        baseline_p99=baseline_p99,
        stampede_p99=stampede_p99,
        neighbour_p99_ratio=max(ratios) if ratios else 1.0,
        neighbour_max_rejected_fraction=max(
            (row["overload_rejected_fraction"]
             for db, row in post_ramp.items() if db != HOT_DB),
            default=0.0),
    )


def disaster(duration_s: float = 40.0, drain_s: float = 30.0,
             wan_partition_mtbf_s: float = 10.0, seed: int = 3) -> Scenario:
    """The disaster soak: a colo dies mid-run and detection must save it.

    Two databases span three colos with async WAN log shipping over a
    lossy, partitionable fabric. At 40 % of ``duration_s`` the colo
    primarying the most databases is killed *silently*: the colo
    heartbeat detector must suspect it, declare and fence it under a new
    epoch, promote each standby, and re-protect the promoted databases
    on surviving colos; clients reconnect through the system controller
    to the new primary. At 75 % the dead colo is repaired and rejoins
    blank — the failback target (at ``duration_s`` instead, if it was
    not declared by then). Failures stop at ``duration_s``, where the
    last WAN episode heals, and the run drains ``drain_s`` so catch-up
    finishes — the state the lag-drain invariant is checked against.
    """

    def faults(run: Run) -> List[Fault]:
        system = run.controller
        primaried: Dict[str, int] = {}
        for primary, _standby in system.placements.values():
            primaried[primary] = primaried.get(primary, 0) + 1
        # Kill the colo that primaries the most databases — the worst
        # case. The repair at the end of the window lands only if the
        # one at 75 % found the colo not yet declared.
        victim = max(sorted(system.colos), key=lambda c: primaried.get(c, 0))
        return wan_cuts(seed, system.colos, duration_s, wan_partition_mtbf_s,
                        1.5, system.wan.config) + [
            Fault(duration_s * 0.4, "crash_colo", victim),
            Fault(duration_s * 0.75, "repair_colo", victim),
            Fault(duration_s, "repair_colo", victim)]

    return Scenario(
        config=ClusterConfig(), seed=seed, duration_s=duration_s,
        drain_s=drain_s, databases=2, tenant=Kv(keys=25, reads=1),
        think_time_s=0.3, slas=[Sla(5.0, 0.01)] * 2, reconnecting=True,
        # A 10 ms WAN that loses one message in twenty.
        wan=NetworkConfig(enabled=True, latency_s=0.01, jitter_s=0.005,
                          drop_probability=0.05, seed=seed),
        services={"detector": _detector}, faults=faults)


@dataclass
class DisasterReport:
    """What the system tier did about the colo kill."""

    colo_killed: str
    suspected_total: int
    declared: List[str]
    promotions: int
    failbacks: int
    dr: Dict[str, Any]
    replication_lag: Dict[str, int]


def disaster_report(run: Run) -> DisasterReport:
    system = run.controller
    summary = run.metrics.snapshot()["dr"]
    return DisasterReport(
        colo_killed=next(f.target for f in run.schedule
                         if f.kind == "crash_colo"),
        suspected_total=len(run.events("colo_suspected")),
        declared=[e.machine for e in run.events("colo_declared")],
        promotions=len(summary["promotions"]),
        failbacks=summary["failbacks"],
        dr=summary,
        replication_lag={db: system.replication_lag(db)
                         for db in sorted(system.placements)})


def many_tenants(n_databases: int = 2000, duration_s: float = 20.0,
                 flash_at_s: float = 10.0, seed: int = 11) -> Scenario:
    """The tenant-scale soak: many small, mostly-cold applications.

    The hottest 1 % of ``n_databases`` tenants are loaded and driven by
    one Zipf-paced client each; the rest are staged cold (a replica-map
    slot and a DDL slot, each holding a shared tuple), every 4th with an
    SLA. The tenant service churns them — one drop and one create every
    half second — and at ``flash_at_s`` a flash crowd hits one tenant
    nobody has touched. The interesting outputs are the resident-state
    gauges: per-tenant controller state (delta logs, LSN maps, admission
    buckets, latency histograms) must track the touched set, not the
    population.
    """
    if n_databases < 10:
        raise ValueError("need at least 10 tenants for a meaningful soak")
    hot, keys, think_time_s = max(1, int(n_databases * 0.01)), 8, 0.2
    sla = Sla(min_throughput_tps=4.0, max_rejected_fraction=0.05)
    slas = [sla if i % 4 == 0 else None for i in range(n_databases)]
    # Tenant 0 thinks least; starts are spread over one think time.
    rng = SeededRNG(seed).fork("manytenants")
    zipf = ZipfGenerator(64, 1.1, rng.fork("skew"))
    think = [zipf.sample_in_range(think_time_s, 4.0 * think_time_s)
             for _ in range(hot)]
    delays = [rng.uniform(0.0, think_time_s) for _ in range(hot)]
    # The flash-crowd target sits far outside the hot set.
    flash_db = f"kv{n_databases // 2}"

    def tenants(run: Run) -> Dict[str, int]:
        churn = {"creates": 0, "drops": 0}
        for i in range(hot, n_databases):
            run.create_database(f"kv{i}", KV_DDL, i)
        churn_rng = rng.fork("churn")

        def churner():
            # The O(1) create/drop paths under live traffic. Only staged
            # cold tenants are dropped: hot ones carry clients whose
            # connections must stay valid.
            controller = run.controller
            for fresh in count(n_databases):
                yield run.sim.timeout(0.5)
                victim = f"kv{churn_rng.randint(hot, n_databases - 1)}"
                if victim != flash_db and controller.replica_map.has(victim):
                    controller.drop_database(victim)
                    churn["drops"] += 1
                controller.create_database(f"kv{fresh}", KV_DDL)
                churn["creates"] += 1

        run.sim.process(churner(), name="tenant-churn").defused = True
        return churn

    def flash(run: Run) -> None:
        # Materialisation, bucket provisioning and log creation all
        # happen under the burst.
        metrics = run.metrics
        before = getattr(metrics.per_db.get(flash_db), "committed", 0)
        run.workloads.append(KeyValueWorkload(
            run.host, db_name=flash_db, keys=keys, seed=seed + 7777))
        run.marks["flash"] = [run.spawn_client(len(run.workloads) - 1, cid,
                                               0.02) for cid in range(8)]

        def first_commit():
            while getattr(metrics.per_db.get(flash_db), "committed",
                          0) <= before:
                yield run.sim.timeout(0.001)
            run.marks["flash_first_commit_s"] = run.sim.now - flash_at_s

        run.sim.process(first_commit(), name="flash-crowd").defused = True

    return Scenario(
        # The resident-state caps (64 logs, 256 buckets) sit well above
        # the hot set of the usual sizes and far below the population:
        # what the gauges are held to.
        config=ClusterConfig(lock_wait_timeout_s=2.0, trace_capacity=262144),
        seed=seed, duration_s=duration_s, machines=12, databases=hot,
        tenant=Kv(keys=keys), clients_per_db=1, slas=slas,
        think_time_s=think, start_delays_s=delays,
        services={"tenants": tenants}, staged=[(flash_at_s, flash)])


@dataclass
class ManyTenantsReport:
    """Outcome of one tenant-scale soak."""

    n_databases: int
    hot_tenants: int
    committed: int
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


def many_tenants_report(run: Run) -> ManyTenantsReport:
    controller, churn = run.controller, run.parts["tenants"]
    replication = controller.replication
    return ManyTenantsReport(
        n_databases=controller.replica_map.database_count(),
        hot_tenants=run.scenario.databases,
        committed=run.committed,
        throughput_tps=run.throughput_tps,
        churn_creates=churn["creates"],
        churn_drops=churn["drops"],
        flash_first_commit_s=run.marks.get("flash_first_commit_s"),
        flash_committed=sum(s.committed for s in run.marks.get("flash", [])),
        resident_db_logs=len(replication.db_logs),
        resident_log_entries=sum(len(log)
                                 for log in replication.db_logs.values()),
        resident_replica_lsn_maps=len(replication.replica_lsns),
        resident_admission_buckets=len(controller.admission.buckets),
        resident_latency_histograms=len(run.metrics.db_latencies),
        cold_engine_tenants=sum(
            not any(m.engine.hosts(db) for m in controller.machines.values())
            for db in controller.replica_map.databases()),
        paged_out_logs=len(run.events("log_paged_out")))
