"""Integration tests for the tenant-scale fast path.

Four guarantees ride on this file:

* the ``manytenants`` soak really does keep per-tenant resident state
  proportional to the touched set, with churn and a flash crowd live;
* **replay identity** — per-tenant state materialised on first touch
  (what the controller does) and the same state allocated eagerly at
  creation (``_materialise`` below does it by hand) produce the *same*
  trace and the same metrics for the same schedule, failures and DDL
  included (the laziness is purely a representation change; only the
  ``db_materialised`` events say when each tenant's DDL ran);
* the one corner where deferred DDL is observable — a replica declared
  dead before its tenant's first touch comes back by full copy;
* router hygiene — ``ReadRouter._txn_choice`` and the open-writer sets
  drain to empty after a soak with lock-timeout aborts and
  dead-primary connection closes (the OPTION_2 leak paths).
"""

import pytest

from repro.analysis.invariants import check_controller
from repro.cluster import (ClusterConfig, ClusterController, ReadOption,
                           RecoveryManager)
from repro.cluster.admission import BURST_S, TokenBucket
from repro.cluster.network import CONTROLLER, NetworkConfig
from repro.harness import run_scenario, soaks
from repro.sim import Simulator
from repro.sla import Sla
from repro.workloads.microbench import KV_DDL, KeyValueWorkload, KvStats
from tests.conftest import (assert_no_violations, make_cluster,
                            make_kv_cluster, read_table)


class TestManyTenantsSoak:
    def test_resident_state_tracks_touched_set(self):
        run = run_scenario(soaks.many_tenants(n_databases=300,
                                              duration_s=6.0,
                                              flash_at_s=3.0, seed=5))
        result = soaks.many_tenants_report(run)
        assert result.committed > 0
        # ~1% hot + the flash target: resident per-tenant state must be
        # a sliver of the 300-tenant population.
        touched = result.hot_tenants + 1
        assert result.resident_db_logs <= touched + 5
        assert result.resident_replica_lsn_maps <= touched + 5
        assert result.resident_latency_histograms <= touched + 5
        assert result.cold_engine_tenants >= 250
        # Churn and the flash crowd both actually ran.
        assert result.churn_creates > 0 and result.churn_drops > 0
        assert result.flash_committed > 0
        assert result.flash_first_commit_s is not None
        assert result.flash_first_commit_s < 1.0
        violations = check_controller(run.controller)
        assert not violations, "\n".join(str(v) for v in violations)

    def test_lazy_engine_ddl_materialises_on_first_touch(self, sim):
        controller = ClusterController(sim, ClusterConfig())
        controller.add_machines(3)
        controller.create_database("cold", KV_DDL, replicas=2)
        # Staging cost: no engine has run the DDL yet.
        assert all(not m.engine.hosts("cold")
                   for m in controller.machines.values())
        assert not controller.trace.events(kind="db_materialised")

        workload = KeyValueWorkload(controller, db_name="cold", keys=4,
                                    seed=1)
        stats = KvStats()
        proc = sim.process(workload.client(0, transactions=3, stats=stats))
        proc.defused = True
        sim.run()
        assert stats.committed == 3
        replicas = controller.replica_map.replicas("cold")
        assert all(controller.machines[name].engine.hosts("cold")
                   for name in replicas)
        materialised, = controller.trace.events(kind="db_materialised")
        assert materialised.db == "cold"


class TestDeferredDdlCorner:
    """The one place deferral shows: a replica that leaves before its
    tenant's first touch never ran the DDL, so it holds nothing to catch
    up from and comes back by a full copy. One that leaves after the
    first touch catches up by delta, as before."""

    @staticmethod
    def _declare_and_return(sim, touch_first):
        controller = make_cluster(
            sim, machines=2, heartbeat_interval_s=0.2,
            network=NetworkConfig(enabled=True, latency_s=0.001, seed=1))
        controller.start_failure_detector()
        RecoveryManager(controller, copy="database").start()
        controller.create_database("t", KV_DDL, replicas=2)
        victim = controller.replica_map.replicas("t")[1]

        def scenario():
            conn = controller.connect("t")
            if touch_first:
                yield conn.execute("INSERT INTO kv VALUES (0, 0)")
                yield conn.commit()
            controller.fabric.cut(CONTROLLER, victim)
            while victim not in controller.declared_dead:
                yield sim.timeout(0.1)
            yield conn.execute("INSERT INTO kv VALUES (1, 1)")
            yield conn.commit()
            controller.fabric.heal(CONTROLLER, victim)

        proc = sim.process(scenario())
        sim.run(until=20.0)
        assert proc.ok
        assert controller.replica_map.replicas("t")[-1] == victim
        rows = {name: read_table(controller, name, "t",
                                 "SELECT k, v FROM kv ORDER BY k")
                for name in controller.replica_map.replicas("t")}
        assert len(set(map(tuple, rows.values()))) == 1
        assert_no_violations(controller)
        readmitted, = controller.trace.events(kind="machine_readmitted")
        return controller, victim, readmitted.extra["mode"]

    def test_declared_before_first_touch_rejoins_by_full_copy(self, sim):
        controller, victim, mode = self._declare_and_return(
            sim, touch_first=False)
        assert mode == "spare"
        copied, = controller.trace.events(kind="rereplication_done")
        assert copied.machine == victim and copied.extra["mode"] == "database"
        assert not controller.trace.events(kind="machine_catchup_done")

    def test_declared_after_first_touch_catches_up_by_delta(self, sim):
        controller, victim, mode = self._declare_and_return(
            sim, touch_first=True)
        assert mode == "catchup"
        caught_up, = controller.trace.events(kind="machine_catchup_done")
        assert caught_up.machine == victim and caught_up.extra["replayed"] == 1
        assert not controller.trace.events(kind="rereplication_done")


def _fingerprint(controller):
    """Everything externally observable about one finished run. When a
    tenant's engine DDL ran is not: ``db_materialised`` events are left
    out, and with them the tracer's sequence numbers."""
    metrics = controller.metrics
    return {
        "trace": [(e.t, e.kind, e.db, e.txn, e.machine, e.extra)
                  for e in controller.trace.events()
                  if e.kind != "db_materialised"],
        "committed": {db: c.committed
                      for db, c in metrics.per_db.items()},
        "rejected": {db: c.rejected for db, c in metrics.per_db.items()},
        "latency": {db: h.summary()
                    for db, h in metrics.db_latencies.items()},
    }


def _materialise(controller, db):
    """The eager reference: run ``db``'s engine DDL and allocate its
    commit log, replica-LSN map and (given an SLA) admission bucket now
    instead of on first touch."""
    controller.ensure_materialised(db)
    controller.replication.log(db)
    controller.replication.lsns(db)
    rate = controller.admission.provisioned_rate(db)
    if rate is not None:
        controller.admission.buckets[db] = TokenBucket(
            rate, max(1.0, rate * BURST_S), now=controller.sim.now)


def _replay_scenario(lazy: bool):
    """One deterministic schedule: traffic, an SLA change, a drop, a
    machine failure with recovery, and a late tenant create."""
    sim = Simulator()
    config = ClusterConfig(replication_factor=2, lock_wait_timeout_s=1.0,
                           trace_capacity=65536)
    controller = ClusterController(sim, config)
    eager = (lambda db: None) if lazy else (
        lambda db: _materialise(controller, db))
    controller.add_machines(4)
    recovery = RecoveryManager(controller)
    recovery.start()
    sla = Sla(min_throughput_tps=5.0, max_rejected_fraction=0.1)
    for i in range(4):
        db = f"db{i}"
        controller.create_database(db, KV_DDL, replicas=2,
                                   sla=sla if i % 2 == 0 else None)
        eager(db)
        controller.bulk_load(db, "kv", [(k, 0) for k in range(6)])

    stats = [KvStats() for _ in range(3)]
    for i in range(3):
        workload = KeyValueWorkload(controller, db_name=f"db{i}", keys=6,
                                    seed=40 + i)
        proc = sim.process(workload.client(
            i, transactions=40, think_time_s=0.05, stats=stats[i]))
        proc.defused = True
    # db3 gets a short burst, then is dropped mid-run.
    short_stats = KvStats()
    workload3 = KeyValueWorkload(controller, db_name="db3", keys=6, seed=47)
    proc = sim.process(workload3.client(0, transactions=5,
                                        think_time_s=0.05,
                                        stats=short_stats))
    proc.defused = True

    victim = controller.replica_map.replicas("db1")[1]

    def chaos():
        yield sim.timeout(1.0)
        controller.set_sla("db0", None)          # SLA change mid-run
        eager("db0")
        yield sim.timeout(0.5)
        controller.drop_database("db3")          # drop a warm tenant
        yield sim.timeout(0.5)
        controller.fail_machine(victim)          # lose a replica
        yield sim.timeout(1.0)
        controller.create_database("late", KV_DDL, replicas=2)
        eager("late")

    chaos_proc = sim.process(chaos(), name="chaos")
    chaos_proc.defused = True
    sim.run(until=12.0)
    return _fingerprint(controller)


class TestReplayIdentity:
    def test_lazy_state_is_trace_identical_to_eager(self):
        """The S6 guard: laziness must never change behaviour, only
        when per-tenant structures get allocated."""
        lazy = _replay_scenario(lazy=True)
        eager = _replay_scenario(lazy=False)
        assert lazy["committed"] == eager["committed"]
        assert lazy["rejected"] == eager["rejected"]
        assert lazy["latency"] == eager["latency"]
        assert len(lazy["trace"]) == len(eager["trace"])
        for a, b in zip(lazy["trace"], eager["trace"]):
            assert a == b


class TestRouterHygiene:
    def test_txn_choice_drains_after_abort_soak(self, sim):
        """OPTION_2 per-txn replica choices must not outlive their
        transactions, even when most of them abort on lock timeouts."""
        controller = make_kv_cluster(
            sim, machines=3, read_option=ReadOption.OPTION_2,
            lock_wait_timeout_s=0.1)
        stats = [KvStats() for _ in range(6)]
        for i in range(6):
            # Everyone hammers the same single key: plenty of lock-wait
            # timeouts and write-write aborts.
            workload = KeyValueWorkload(controller, db_name="kv", keys=1,
                                        seed=70 + i)
            proc = sim.process(workload.client(
                i, transactions=25, think_time_s=0.0, stats=stats[i]))
            proc.defused = True
        sim.run()
        assert sum(s.aborted for s in stats) > 0  # the soak did abort
        assert controller.router._txn_choice == {}
        assert controller.replication._open_writers == {}

    def test_close_with_dead_primary_releases_router_state(self, sim):
        """The dead-primary close path must still run ``_finish``."""
        controller = make_kv_cluster(sim, machines=3,
                                     read_option=ReadOption.OPTION_2)
        primary = controller.replica_map.replicas("kv")[0]

        def client():
            conn = controller.connect("kv")
            yield conn.execute("UPDATE kv SET v = 9 WHERE k = 0")
            controller.fail_machine(primary)
            conn.close()

        proc = sim.process(client())
        sim.run()
        assert proc.ok
        assert controller.router._txn_choice == {}
        assert controller.replication._open_writers == {}
