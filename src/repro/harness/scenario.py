"""One soak loop: a soak is a declared :class:`Scenario`, and
:func:`run_scenario` is the only place that knows the order of its phases:

1. build the cluster, its machines and one loaded ``kv<i>`` tenant with
   a :class:`KeyValueWorkload` seeded ``seed + i`` per database;
2. start a :class:`RecoveryManager`, if the scenario names a ``copy``;
3. start the **services** — parts that run to the end of the run
   (failure detector, overload monitor);
4. draw the **faults** — the scenario's schedule, a list of
   :class:`~repro.harness.faults.Fault` drawn from the built world — into
   ``run.schedule`` and spawn the one applier over it (its log is
   ``run.applied``);
5. spawn ``clients_per_db`` closed-loop clients per tenant;
6. arm the **staged** ``(sim time, action(run))`` pairs;
7. run to ``duration_s`` (every drawn episode is closed by then), heal
   the fabric if it is on, run ``drain_s`` more so suspicions resolve
   and re-replication finishes. A schedule may hold entries past
   ``duration_s`` — the partition soak's finale, a leader kill — and
   they fire during the drain.

The order is fixed because it is part of the trace: within an instant
processes run in spawn order. Services start in the order the
declaration lists them, the applier after them, and ``heal_all`` stays
behind ``fabric.enabled`` (it emits ``net_heal_all``).

A service is any ``start(run) -> part`` and lands in ``run.parts`` under
its declared name; the faults are data, so a report reads
``injected(run.applied, "cut", "split")`` instead of an injector's
fields. A caller varies a declaration with :func:`dataclasses.replace`,
not with a new keyword; replaying a recorded schedule is
``replace(scenario, faults=lambda run: recorded)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple, Union)

from repro.analysis.metrics import MetricsCollector
from repro.analysis.trace import TraceEvent
from repro.cluster import ClusterConfig, ClusterController, RecoveryManager
from repro.cluster.recovery import RecoveryRecord
from repro.harness.faults import Applied, Fault, apply
from repro.sim import Simulator
from repro.sla.model import Sla
from repro.workloads.microbench import KV_DDL, KeyValueWorkload, KvStats


@dataclass
class Scenario:
    """What one soak builds, breaks, and for how long."""

    config: ClusterConfig
    seed: int
    #: Faults are drawn up to here; the cluster then drains ``drain_s`` more.
    duration_s: float
    drain_s: float = 0.0
    machines: int = 6
    databases: int = 3
    keys_per_db: int = 30
    clients_per_db: int = 2
    #: The contract every tenant is created with (None: no SLA).
    sla: Optional[Sla] = None
    #: One think time for every client, or one per tenant.
    think_time_s: Union[float, Sequence[float]] = 0.2
    #: Per-client start offsets in spawn order (tenant-major); empty
    #: starts every client at t=0.
    start_delays_s: Sequence[float] = ()
    #: Clients that reconnect across controller take-overs and stop at
    #: ``duration_s``, instead of clients that die with their connection.
    reconnecting: bool = False
    #: Copy strategy of the background :class:`RecoveryManager`
    #: (``"delta"`` / ``"table"`` / ``"database"``); None runs without one.
    copy: Optional[str] = None
    services: Dict[str, Callable[["Run"], Any]] = field(default_factory=dict)
    #: The schedule, drawn from the built world before the first client.
    faults: Callable[["Run"], Sequence[Fault]] = lambda run: ()
    staged: Sequence[Tuple[float, Callable[["Run"], None]]] = ()


@dataclass
class Run:
    """A scenario that ran (or is running: staged actions get it too)."""

    scenario: Scenario
    sim: Simulator
    controller: ClusterController
    workloads: List[KeyValueWorkload] = field(default_factory=list)
    #: One per client, in spawn order.
    stats: List[KvStats] = field(default_factory=list)
    #: The recovery manager and services, by declared name.
    parts: Dict[str, Any] = field(default_factory=dict)
    #: What ``scenario.faults`` drew, and the applier's log of it.
    schedule: List[Fault] = field(default_factory=list)
    applied: List[Applied] = field(default_factory=list)
    #: Whatever staged actions wrote down.
    marks: Dict[str, Any] = field(default_factory=dict)

    @property
    def metrics(self) -> MetricsCollector:
        return self.controller.metrics

    @property
    def committed(self) -> int:
        return self.metrics.total_committed()

    @property
    def aborted(self) -> int:
        return sum(s.aborted for s in self.stats)

    @property
    def rejections(self) -> int:
        return self.metrics.total_rejected()

    @property
    def throughput_tps(self) -> float:
        """Committed rate over the injection window (drain excluded)."""
        return self.metrics.throughput(self.scenario.duration_s)

    @property
    def recoveries(self) -> List[RecoveryRecord]:
        """Re-replications that completed."""
        recovery = self.parts.get("recovery")
        return ([r for r in recovery.records if r.succeeded]
                if recovery is not None else [])

    def events(self, kind: str) -> List[TraceEvent]:
        return self.controller.trace.events(kind=kind)

    def spawn_client(self, tenant: int, client_id: int, think_time_s: float,
                     start_delay_s: Optional[float] = None) -> KvStats:
        """Start one client of ``workloads[tenant]``; returns its stats."""
        workload = self.workloads[tenant]
        stats = KvStats()
        self.stats.append(stats)
        if self.scenario.reconnecting:
            client = workload.reconnecting_client(
                client_id, until=self.scenario.duration_s,
                think_time_s=think_time_s, stats=stats)
        else:
            client = workload.client(client_id, transactions=10 ** 9,
                                     think_time_s=think_time_s, stats=stats)
        if start_delay_s is not None:
            client = start_after(self.sim, start_delay_s, client)
        proc = self.sim.process(client)
        proc.defused = True
        return stats


def start_after(sim: Simulator, delay_s: float,
                client: Generator) -> Generator:
    """``client``, started ``delay_s`` from now."""
    yield sim.timeout(delay_s)
    return (yield from client)


def _at(run: Run, when_s: float, action: Callable[[Run], None]) -> Generator:
    yield run.sim.timeout(when_s)
    action(run)


def run_scenario(scenario: Scenario) -> Run:
    """Run one declared soak, phase by phase (see the module docstring)."""
    sim = Simulator()
    controller = ClusterController(sim, scenario.config)
    controller.add_machines(scenario.machines)
    run = Run(scenario, sim, controller)
    for i in range(scenario.databases):
        db = f"kv{i}"
        controller.create_database(db, KV_DDL, sla=scenario.sla)
        controller.bulk_load(db, "kv",
                             [(k, 0) for k in range(scenario.keys_per_db)])
        run.workloads.append(KeyValueWorkload(
            controller, db_name=db, keys=scenario.keys_per_db,
            seed=scenario.seed + i))
    if scenario.copy is not None:
        recovery = RecoveryManager(controller, copy=scenario.copy,
                                   retry_delay_s=1.0)
        recovery.start()
        run.parts["recovery"] = recovery
    for name, start in scenario.services.items():
        run.parts[name] = start(run)
    run.schedule = sorted(scenario.faults(run), key=lambda fault: fault.at)
    run.applied = apply(controller, run.schedule)

    think = scenario.think_time_s
    delays = iter(scenario.start_delays_s)
    for tenant in range(scenario.databases):
        for client_id in range(scenario.clients_per_db):
            run.spawn_client(
                tenant, client_id,
                think if isinstance(think, (int, float)) else think[tenant],
                next(delays, None))
    for when_s, action in scenario.staged:
        proc = sim.process(_at(run, when_s, action))
        proc.defused = True

    sim.run(until=scenario.duration_s)
    if controller.fabric.enabled:
        controller.fabric.heal_all()
    sim.run(until=scenario.duration_s + scenario.drain_s)
    return run
