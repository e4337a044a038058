"""The cluster-tier soaks, as declarations for :func:`run_scenario`.

Each function returns a :class:`Scenario`; its parameters are only the
values some caller sets (the CLI, a test, a benchmark). Everything else —
machines, tenants, keys, think times, repair rates, link latency — is a
literal of the declaration, and a caller that needs a different size says
``dataclasses.replace(soaks.faults(...), machines=5, databases=1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.analysis.metrics import Histogram
from repro.cluster import ClusterConfig, ConsensusConfig, WritePolicy
from repro.cluster.config import production_profile
from repro.cluster.network import NetworkConfig
from repro.harness.faults import Fault, controller_kills, crashes, link_cuts
from repro.harness.scenario import Run, Scenario
from repro.sim.rng import SeededRNG, ZipfGenerator
from repro.sla.model import Sla
from repro.sla.monitor import OverloadMonitor

HOT_DB = "kv0"
#: How long the partition soak runs on after its finale kills the leader.
TAKEOVER_S = 10.0


def _config(seed: int, copy_bytes_factor: float, **cluster) -> ClusterConfig:
    """The soaks' cluster, a variant of the production profile: two
    replicas, two recovery threads, a lock-wait timeout short enough
    that distributed deadlocks resolve within a soak, and each plane
    (fabric, a controller group with peers, admission) on only where
    ``cluster`` says so — the controller is otherwise a group of one."""
    planes = dict(network=NetworkConfig(), consensus=ConsensusConfig(),
                  admission_control=False)
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


def stampede(admission: bool, duration_s: float = 40.0,
             ramp_at_s: float = 15.0, drain_s: float = 0.0,
             hot_clients: int = 60, sla_tps: float = 4.0,
             max_rejected_fraction: float = 0.05,
             mtbf_s: Optional[float] = None, seed: int = 3) -> Scenario:
    """One tenant stampedes, neighbours keep their SLAs.

    Every tenant declares the same :class:`Sla`. Neighbours offer
    zipf-skewed steady load below their floors; at ``ramp_at_s`` the hot
    tenant (``kv0``) adds ``hot_clients`` low-think-time clients. With
    ``admission`` the per-tenant token buckets must throttle the hot
    tenant to its provisioned rate while neighbours stay inside their
    rejection bounds and their tail latency holds; without it the same
    schedule records the noisy-neighbour damage. The overload monitor
    emits the ``sla_window`` / ``sla_breach`` events the two overload
    invariant rules audit. ``mtbf_s`` layers machine failures with
    background recovery on top.
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

    return Scenario(
        config=_config(seed, 200.0, trace_capacity=262144,
                       admission_control=admission),
        seed=seed, duration_s=duration_s, drain_s=drain_s,
        machines=4, databases=databases, keys_per_db=40,
        clients_per_db=clients_per_db,
        sla=Sla(min_throughput_tps=sla_tps,
                max_rejected_fraction=max_rejected_fraction),
        think_time_s=think, start_delays_s=delays,
        copy=None if mtbf_s is None else "delta",
        services={"overload_monitor": _overload_monitor},
        faults=(lambda run: ()) if mtbf_s is None else _crashes(seed, mtbf_s),
        staged=[(ramp_at_s, ramp)])


@dataclass
class StampedeReport:
    """Post-ramp accounting of one :func:`stampede` run."""

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
    admission = run.controller.admission
    return StampedeReport(
        hot_provisioned_tps=(admission.provisioned_rate(HOT_DB)
                             if admission is not None else None),
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
