"""Integration tests for overload protection: per-tenant admission at
the statement entry point, hot-replica read shedding, the overload
monitor's invariant rules, and the stampede soak's isolation outcome."""

import pytest

from repro.analysis.invariants import check_trace
from repro.analysis.trace import TraceEvent
from repro.cluster import ClusterConfig, ClusterController, WritePolicy
from repro.cluster.controller import TransactionAborted
from repro.errors import OverloadRejectedError
from repro.harness import soaks
from repro.harness.scenario import run_scenario
from repro.sim import Simulator
from repro.sla.model import Sla
from repro.workloads.microbench import KV_DDL
from tests.conftest import assert_no_violations, make_cluster

KEYS = 20


def make_admitted_cluster(sim, sla=None, machines=3, replicas=2,
                          **config_kwargs) -> ClusterController:
    controller = make_cluster(sim, machines=machines, **config_kwargs)
    controller.create_database("kv", KV_DDL, replicas=replicas, sla=sla)
    controller.bulk_load("kv", "kv", [(k, 0) for k in range(KEYS)])
    return controller


def burst(controller, transactions, key_offset=0):
    """Sim process: fire ``transactions`` update txns back to back;
    returns the list of abort causes (None for commits)."""
    conn = controller.connect("kv")
    outcomes = []
    for i in range(transactions):
        try:
            yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                               ((key_offset + i) % KEYS,))
            yield conn.commit()
        except TransactionAborted as exc:
            outcomes.append(exc.cause)
        else:
            outcomes.append(None)
    conn.close()
    return outcomes


class TestAdmissionEndToEnd:
    def test_burst_over_bucket_is_rejected_retryably(self, sim):
        # Sla floor 1 tps -> rate 1.5, capacity max(1, 3) = 3 tokens.
        controller = make_admitted_cluster(sim, sla=Sla(1.0, 0.05))
        proc = sim.process(burst(controller, 8))
        sim.run()
        outcomes = proc.value
        rejected = [c for c in outcomes
                    if isinstance(c, OverloadRejectedError)]
        assert rejected, "burst should overflow the token bucket"
        assert outcomes.count(None) >= 3, "burst capacity should admit"
        for cause in rejected:
            assert cause.database == "kv"
            assert cause.retryable is True

        counters = controller.metrics.per_db["kv"]
        assert counters.overload_rejected == len(rejected)
        assert counters.rejected == len(rejected)
        summary = controller.metrics.snapshot()["per_db"]["kv"]
        assert summary["overload_rejected"] == len(rejected)
        assert summary["overload_rejected_fraction"] == pytest.approx(
            len(rejected) / len(outcomes))
        assert summary["latency"]["count"] == summary["committed"]

        rejects = controller.trace.events(kind="admission_reject", db="kv")
        assert len(rejects) == len(rejected)
        assert all(e.extra["rate"] == pytest.approx(1.5) for e in rejects)
        assert_no_violations(controller)

    def test_bucket_refills_with_sim_time(self, sim):
        controller = make_admitted_cluster(sim, sla=Sla(1.0, 0.05))

        def paced():
            conn = controller.connect("kv")
            drained = yield from burst(controller, 6)
            yield sim.timeout(4.0)   # 1.5 tps * 4 s > one token
            try:
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = 0")
                yield conn.commit()
            except TransactionAborted as exc:
                drained.append(exc.cause)
            else:
                drained.append(None)
            conn.close()
            return drained

        proc = sim.process(paced())
        sim.run()
        assert proc.value[-1] is None, "refilled bucket should admit again"

    def test_no_sla_tenant_never_rejected(self, sim):
        controller = make_admitted_cluster(sim, sla=None)
        proc = sim.process(burst(controller, 20))
        sim.run()
        assert all(c is None for c in proc.value)
        assert controller.metrics.per_db["kv"].overload_rejected == 0

    def test_drop_database_forgets_bucket(self, sim):
        controller = make_admitted_cluster(sim, sla=Sla(1.0, 0.05))
        controller.drop_database("kv")
        assert "kv" not in controller.admission.buckets
        assert "kv" not in controller.slas

    def test_clearing_the_sla_frees_the_bucket(self, sim):
        controller = make_admitted_cluster(sim, sla=Sla(1.0, 0.05))
        first = sim.process(burst(controller, 8))
        sim.run()
        assert any(isinstance(c, OverloadRejectedError) for c in first.value)
        assert "kv" in controller.admission.buckets
        controller.set_sla("kv", None)
        assert "kv" not in controller.admission.buckets
        assert controller.admission.provisioned_rate("kv") is None
        second = sim.process(burst(controller, 20))
        sim.run()
        assert all(c is None for c in second.value)
        assert "kv" not in controller.admission.buckets


class TestReadShedding:
    def _run_readers(self, sim, controller, clients=4, reads=25):
        def reader(offset):
            conn = controller.connect("kv")
            committed = 0
            for i in range(reads):
                try:
                    yield conn.execute("SELECT v FROM kv WHERE k = ?",
                                       ((offset + i) % KEYS,))
                    yield conn.commit()
                except TransactionAborted:
                    pass
                else:
                    committed += 1
            conn.close()
            return committed

        procs = [sim.process(reader(c * 7)) for c in range(clients)]
        sim.run()
        return [p.value for p in procs]

    def test_overloaded_replica_sheds_reads(self, sim):
        config_kwargs = {"write_policy": WritePolicy.CONSERVATIVE}
        controller = make_admitted_cluster(sim, **config_kwargs)
        controller.config.shed_inflight_watermark = 1
        committed = self._run_readers(sim, controller)
        assert sum(committed) > 0
        sheds = controller.trace.events(kind="shed_read", db="kv")
        assert sheds, "watermark 1 under concurrent readers must shed"
        for event in sheds:
            assert event.machine in controller.replica_map.replicas("kv")
        assert_no_violations(controller)

    def test_all_replicas_over_watermark_still_serves(self, sim):
        # The fairness regression: a single replica that is always over
        # the watermark must still serve every read (least-loaded
        # fallback), not starve the tenant.
        controller = make_admitted_cluster(sim, replicas=1, machines=1)
        controller.config.shed_inflight_watermark = 1
        committed = self._run_readers(sim, controller, clients=3, reads=10)
        assert all(c == 10 for c in committed), \
            "shedding must never become unavailability"
        assert_no_violations(controller)

    def test_aggressive_policy_never_sheds(self, sim):
        # Theorem 1's serializability argument pins option-1 reads to
        # the designated replica under the aggressive policy.
        controller = make_admitted_cluster(
            sim, write_policy=WritePolicy.AGGRESSIVE)
        controller.config.shed_inflight_watermark = 1
        self._run_readers(sim, controller)
        assert controller.trace.events(kind="shed_read") == []


def sla_window(seq, db, finished, rejected, bound=0.05, within=True):
    return TraceEvent(seq=seq, t=float(seq), kind="sla_window", db=db,
                      extra={"finished": finished, "rejected": rejected,
                             "fraction": rejected / finished,
                             "bound": bound, "within_rate": within,
                             "offered_tps": float(finished), "rate": 6.0})


class TestOverloadInvariantRules:
    def test_in_rate_breach_window_is_flagged(self):
        events = [sla_window(0, "kv1", finished=100, rejected=10,
                             within=True)]
        violations = check_trace(events)
        assert [v.rule for v in violations] == \
            ["neighbour-sla-holds-under-stampede"]

    def test_over_rate_breach_window_is_admissions_job(self):
        events = [sla_window(0, "kv0", finished=100, rejected=90,
                             within=False)]
        assert check_trace(events) == []

    def test_cumulative_over_bound_is_flagged(self):
        # Each window individually tolerated (rejected <= bound*n + 1),
        # but the run total breaks the bound: the cumulative rule.
        events = [sla_window(i, "kv2", finished=20, rejected=2)
                  for i in range(3)]
        violations = check_trace(events)
        assert [v.rule for v in violations] == \
            ["rejections-within-sla-bound"]

    def test_within_bound_run_is_clean(self):
        events = [sla_window(i, "kv2", finished=50, rejected=1)
                  for i in range(4)]
        assert check_trace(events) == []


class TestStampedeSoak:
    def test_admission_on_throttles_and_isolates(self):
        result = run_scenario(soaks.stampede(
            hot_sla=True, duration_s=16.0, ramp_at_s=6.0, hot_clients=30,
            seed=5))
        report = soaks.stampede_report(result)
        monitor = result.parts["overload_monitor"]
        rate = report.hot_provisioned_tps
        assert rate == pytest.approx(6.0)
        assert report.hot_goodput_tps <= rate * 1.3 + 0.5
        assert report.neighbour_max_rejected_fraction <= 0.05
        assert all(not b.within_rate for b in monitor.breaches), \
            "every breach window must belong to an over-rate tenant"
        assert monitor.windows > 0
        assert_no_violations(result.controller)

    def test_admission_off_replays_unthrottled(self):
        """The contrast arm: the hot tenant declares no SLA, holds no
        bucket and is never rejected; its neighbours still hold theirs."""
        result = run_scenario(soaks.stampede(
            hot_sla=False, duration_s=16.0, ramp_at_s=6.0, hot_clients=30,
            seed=5))
        assert soaks.stampede_report(result).hot_provisioned_tps is None
        assert soaks.HOT_DB not in result.controller.admission.buckets
        assert set(result.controller.admission.buckets) == {
            f"kv{i}" for i in range(1, 6)}
        assert result.metrics.per_db["kv0"].overload_rejected == 0
        assert_no_violations(result.controller)


class TestReplayIdentity:
    """Admission is lazy sim-time arithmetic: same seed, same schedule,
    bit-identical trace and metrics."""

    def _run(self):
        sim = Simulator()
        config = ClusterConfig(lock_wait_timeout_s=2.0)
        controller = ClusterController(sim, config)
        controller.add_machines(3)
        controller.create_database("kv", KV_DDL, replicas=2,
                                   sla=Sla(2.0, 0.05))
        controller.bulk_load("kv", "kv", [(k, 0) for k in range(KEYS)])
        from repro.workloads.microbench import KeyValueWorkload, KvStats
        workload = KeyValueWorkload(controller, keys=KEYS, seed=11)
        stats = [KvStats() for _ in range(3)]
        for cid in range(3):
            proc = sim.process(workload.client(
                cid, transactions=40, think_time_s=0.05, stats=stats[cid]))
            proc.defused = True
        sim.run()
        events = [(e.t, e.kind, e.db, e.txn, e.machine,
                   tuple(sorted(e.extra.items())))
                  for e in controller.trace.events()]
        counters = {db: (c.committed, c.deadlocks, c.rejected, c.rollbacks)
                    for db, c in controller.metrics.per_db.items()}
        return events, counters, [s.committed for s in stats]

    def test_run_is_deterministic(self):
        assert self._run() == self._run()
