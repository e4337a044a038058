"""One experiment loop: every simulation the harness runs is a declared
:class:`Scenario`, and :func:`run_scenario` is the only place that builds
a :class:`Simulator` and knows the order of its phases:

1. build the world — one cluster of ``machines``, or, when the scenario
   names a ``wan``, a :class:`DataPlatform` of three colos on it whose
   system controller is the world — and ``databases`` tenants of the
   declared kind (:class:`Kv`, :class:`Scripted`, :class:`Tpcw`), tenant
   ``i`` seeded ``seed + i``;
2. start a :class:`RecoveryManager`, if the scenario names a ``copy``;
3. start the **services** — parts that run to the end of the run
   (failure detector, overload monitor, tenant churn);
4. draw the **faults** — the scenario's schedule, a list of
   :class:`~repro.harness.faults.Fault` drawn from the built world — into
   ``run.schedule`` and spawn the one applier over it (its log is
   ``run.applied``);
5. spawn ``clients_per_db`` closed-loop clients per tenant;
6. arm the **staged** ``(sim time, action(run))`` pairs;
7. run to ``duration_s`` (every drawn episode is closed by then; None
   runs until the clients are done), heal the world's fabric if it is
   on, run ``drain_s`` more so suspicions resolve and re-replication
   finishes. A schedule may hold entries past ``duration_s`` — the
   partition soak's finale, a leader kill — and they fire during the
   drain.

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
from repro.cluster.controller import TransactionAborted
from repro.cluster.network import NetworkConfig
from repro.cluster.recovery import RecoveryRecord
from repro.harness.faults import Applied, Fault, apply
from repro.platform import DatabaseSpec, DataPlatform
from repro.sim import Simulator
from repro.sla.model import Sla
from repro.workloads.microbench import KV_DDL, KeyValueWorkload, KvStats
from repro.workloads.tpcw import MIXES, TpcwClient, TpcwDatabase, TpcwScale
from repro.workloads.tpcw.schema import TPCW_DDL


@dataclass(frozen=True)
class Kv:
    """Key-value tenants ``kv<i>`` of ``keys`` rows; a transaction is
    ``reads`` point reads, then one update, then a commit."""

    keys: int = 30
    reads: int = 2

    def install(self, run: "Run", i: int) -> KeyValueWorkload:
        db = f"kv{i}"
        run.create_database(db, KV_DDL, i)
        run.host.bulk_load(db, "kv", [(k, 0) for k in range(self.keys)])
        return KeyValueWorkload(run.host, db_name=db, keys=self.keys,
                                seed=run.scenario.seed + i)

    def client(self, run: "Run", tenant: int, client_id: int,
               think_time_s: float) -> Tuple[Generator, KvStats]:
        workload, stats = run.workloads[tenant], KvStats()
        if run.scenario.reconnecting:
            return workload.reconnecting_client(
                client_id, run.scenario.duration_s, reads_per_txn=self.reads,
                think_time_s=think_time_s, stats=stats), stats
        return workload.client(
            client_id, run.scenario.transactions, reads_per_txn=self.reads,
            think_time_s=think_time_s, stats=stats), stats


@dataclass(frozen=True)
class Scripted:
    """Key-value tenants as :class:`Kv` builds them, whose client ``c``
    runs one transaction — read key ``scripts[c][0]``, update key
    ``scripts[c][1]``, commit — and stops: Table 1's interleavings,
    timed by ``Scenario.start_delays_s``."""

    scripts: Tuple[Tuple[int, int], ...]

    def install(self, run: "Run", i: int) -> KeyValueWorkload:
        keys = 1 + max(key for script in self.scripts for key in script)
        return Kv(keys=keys).install(run, i)

    def client(self, run: "Run", tenant: int, client_id: int,
               think_time_s: float) -> Tuple[Generator, KvStats]:
        read_key, write_key = self.scripts[client_id]
        stats = KvStats()
        return _read_then_update(run.host, f"kv{tenant}", read_key,
                                 write_key, stats), stats


def _read_then_update(host: Any, db: str, read_key: int, write_key: int,
                      stats: KvStats) -> Generator:
    """Connect once it starts, then one read-update-commit transaction."""
    conn = host.connect(db)
    try:
        yield conn.execute("SELECT v FROM kv WHERE k = ?", (read_key,))
        yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                           (write_key,))
        yield conn.commit()
    except TransactionAborted:
        stats.aborted += 1
    else:
        stats.committed += 1


@dataclass(frozen=True)
class Tpcw:
    """TPC-W tenants ``tpcw<i>`` at ``scale``, browsed under ``mix``.
    Browser ``c`` of tenant ``i`` is seeded ``seed * strides[0] + i *
    strides[1] + c`` (Figures 8-9 were recorded with other strides than
    Figures 2-7)."""

    scale: TpcwScale
    mix: str = "shopping"
    strides: Tuple[int, int] = (1000, 100)

    def install(self, run: "Run", i: int) -> TpcwDatabase:
        data = TpcwDatabase(self.scale, seed=run.scenario.seed + i)
        run.create_database(f"tpcw{i}", TPCW_DDL, i)
        data.load_into(run.host, f"tpcw{i}")
        return data

    def client(self, run: "Run", tenant: int, client_id: int,
               think_time_s: float) -> Tuple[Generator, Any]:
        seed = (run.scenario.seed * self.strides[0]
                + tenant * self.strides[1] + client_id)
        client = TpcwClient(run.host, f"tpcw{tenant}", run.workloads[tenant],
                            MIXES[self.mix], client_id, seed, think_time_s)
        return client.run(until=run.scenario.duration_s), client.stats


@dataclass
class Scenario:
    """What one experiment builds, breaks, and for how long."""

    config: ClusterConfig
    seed: int
    #: Faults are drawn up to here; the world then drains ``drain_s``
    #: more. None runs until every client is done.
    duration_s: Optional[float]
    drain_s: float = 0.0
    #: Machines of the one cluster (a :attr:`wan` world ignores it).
    machines: int = 6
    databases: int = 3
    tenant: Union[Kv, Scripted, Tpcw] = Kv()
    clients_per_db: int = 2
    #: The contract each tenant is created with, in tenant order; a
    #: tenant past the end (or given None) declares no SLA.
    slas: Sequence[Optional[Sla]] = ()
    #: One think time for every client, or one per tenant.
    think_time_s: Union[float, Sequence[float]] = 0.2
    #: Per-client start offsets in spawn order (tenant-major); empty
    #: starts every client at t=0.
    start_delays_s: Sequence[float] = ()
    #: Key-value clients that reconnect across controller take-overs and
    #: colo failovers and stop at ``duration_s``, instead of clients that
    #: run ``transactions`` each and die with their connection.
    reconnecting: bool = False
    transactions: int = 10 ** 9
    #: The platform tier: three colos on this WAN instead of one
    #: cluster (:func:`run_scenario` builds them).
    wan: Optional[NetworkConfig] = None
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
    #: The world faults act on: the cluster controller, or the system
    #: controller on the platform tier.
    controller: Any
    #: The platform tier's facade; None on a cluster.
    platform: Optional[DataPlatform] = None
    #: Per tenant: its :class:`KeyValueWorkload` or :class:`TpcwDatabase`.
    workloads: List[Any] = field(default_factory=list)
    #: One per client, in spawn order.
    stats: List[Any] = field(default_factory=list)
    #: The recovery manager and services, by declared name.
    parts: Dict[str, Any] = field(default_factory=dict)
    #: What ``scenario.faults`` drew, and the applier's log of it.
    schedule: List[Fault] = field(default_factory=list)
    applied: List[Applied] = field(default_factory=list)
    #: Whatever staged actions wrote down.
    marks: Dict[str, Any] = field(default_factory=dict)

    @property
    def host(self) -> Any:
        """What tenants are loaded on and clients connect through."""
        return self.controller if self.platform is None else self.platform

    @property
    def metrics(self) -> MetricsCollector:
        return self.controller.metrics

    @property
    def committed(self) -> int:
        """Commits the cluster recorded; on the platform tier, the ones
        its clients saw (the system controller records none)."""
        if self.platform is not None:
            return sum(s.committed for s in self.stats)
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
        duration_s = self.scenario.duration_s
        return self.committed / duration_s if duration_s else 0.0

    @property
    def recoveries(self) -> List[RecoveryRecord]:
        """Re-replications that completed."""
        recovery = self.parts.get("recovery")
        return ([r for r in recovery.records if r.succeeded]
                if recovery is not None else [])

    def events(self, kind: str) -> List[TraceEvent]:
        return self.controller.trace.events(kind=kind)

    def create_database(self, db: str, ddl: List[str], i: int) -> None:
        """Create tenant ``db`` with the ``i``-th declared SLA."""
        slas = self.scenario.slas
        sla = slas[i] if i < len(slas) else None
        if self.platform is None:
            self.controller.create_database(db, ddl, sla=sla)
        else:
            # A small two-replica database: a primary colo and a standby.
            self.platform.create_database(DatabaseSpec(
                db, ddl, sla, expected_size_mb=2.0))

    def spawn_client(self, tenant: int, client_id: int, think_time_s: float,
                     start_delay_s: Optional[float] = None) -> Any:
        """Start one client of tenant ``tenant``; returns its stats."""
        client, stats = self.scenario.tenant.client(self, tenant, client_id,
                                                    think_time_s)
        self.stats.append(stats)
        if start_delay_s is not None:
            client = _start_after(self.sim, start_delay_s, client)
        proc = self.sim.process(client)
        proc.defused = True
        return stats


def _start_after(sim: Simulator, delay_s: float,
                 client: Generator) -> Generator:
    """``client``, started ``delay_s`` from now."""
    yield sim.timeout(delay_s)
    return (yield from client)


def _at(run: Run, when_s: float, action: Callable[[Run], None]) -> Generator:
    yield run.sim.timeout(when_s)
    action(run)


def run_scenario(scenario: Scenario) -> Run:
    """Run one declared experiment, phase by phase (see the module
    docstring)."""
    sim = Simulator()
    if scenario.wan is None:
        controller = ClusterController(sim, scenario.config)
        controller.add_machines(scenario.machines)
        run = Run(scenario, sim, controller)
    else:
        # Colo heartbeats every 0.5 s: suspect after 1 s of silence,
        # declare after 3 s — long enough that a healed isolation
        # episode is usually only a suspicion.
        platform = DataPlatform(sim, scenario.config, wan=scenario.wan,
                                declare_after_misses=6)
        for i in range(3):
            platform.add_colo(f"colo{i}", free_machines=8,
                              location=float(i))
        run = Run(scenario, sim, platform.system, platform)
    for i in range(scenario.databases):
        run.workloads.append(scenario.tenant.install(run, i))
    if scenario.copy is not None:
        recovery = RecoveryManager(run.controller, copy=scenario.copy,
                                   retry_delay_s=1.0)
        recovery.start()
        run.parts["recovery"] = recovery
    for name, start in scenario.services.items():
        run.parts[name] = start(run)
    run.schedule = sorted(scenario.faults(run), key=lambda fault: fault.at)
    run.applied = apply(run.controller, run.schedule)

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
    fabric = run.controller.fabric if run.platform is None \
        else run.controller.wan
    if fabric.enabled:
        fabric.heal_all()
    sim.run(until=sim.now + scenario.drain_s)
    return run
