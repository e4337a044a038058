"""Cross-colo disaster recovery: fenced failover, WAN shipping, RPO/RTO.

Covers the detection-driven failover path end to end (heartbeats →
suspect → declare → fence → promote → re-protect → failback), the
sequence-numbered resumable replication log over the WAN fabric, and
the DR invariant rules (no-dual-primary-colo, prefix-of-commit-order,
lag-eventually-drains).
"""

import pytest

from repro.analysis.invariants import InvariantChecker, check_trace
from repro.analysis.trace import TraceEvent
from repro.cluster.network import NetworkConfig
from repro.errors import ColoFencedError, NoReplicaError
from repro.harness.runner import run_dr_soak
from repro.platform import DataPlatform, DatabaseSpec
from repro.sla import Sla

DDL = ["CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"]


def make_platform(colos=2, machines=8, wan=None, **system_kwargs):
    platform = DataPlatform(wan=wan, **system_kwargs)
    for i in range(colos):
        platform.add_colo(f"colo{i}", free_machines=machines,
                          location=float(i * 10))
    return platform


def spec(name, dr=True):
    # A floor above what any test here offers: admission throttles none
    # of their back-to-back commits.
    return DatabaseSpec(name=name, ddl=list(DDL), sla=Sla(100.0, 0.001),
                        expected_size_mb=5.0, replicas=2,
                        disaster_recovery=dr)


def wan_config(seed=3, drop=0.0, latency=0.005, jitter=0.0):
    return NetworkConfig(enabled=True, latency_s=latency, jitter_s=jitter,
                         drop_probability=drop, seed=seed)


def commit_n(platform, db, n, key=1):
    """Run ``n`` sequential single-row update commits through the facade."""
    def client():
        for _ in range(n):
            conn = platform.connect(db)
            yield conn.execute(f"UPDATE t SET v = v + 1 WHERE k = {key}")
            yield conn.commit()
            conn.close()
    proc = platform.sim.process(client())
    proc.defused = True
    return proc


def standby_value(platform, db, key=1):
    """Read ``t.v`` directly off the standby colo's first replica."""
    _, standby = platform.system.placements[db]
    cluster = platform.system.colos[standby].cluster_of(db)
    machine = cluster.machines[cluster.replica_map.replicas(db)[0]]
    txn = machine.engine.begin()
    value = machine.engine.execute_sync(
        txn, db, f"SELECT v FROM t WHERE k = {key}").scalar()
    machine.engine.commit(txn)
    return value


class TestFencing:
    def test_fenced_colo_rejects_connections(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        primary, _ = platform.system.placements["app"]
        platform.system.colos[primary].fence()
        with pytest.raises(ColoFencedError):
            platform.system.colos[primary].connect("app")

    def test_fenced_primary_stops_shipping(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(3)])
        primary, _ = platform.system.placements["app"]
        link = platform.system.links["app"]
        platform.system.colos[primary].fence()
        # Commits cannot happen on a fenced colo (primaries crashed), but
        # even a straggler hook invocation must not enqueue.
        platform.system._on_commit(link, "app", [("UPDATE ...", ())])
        assert link.shipped == 0

    def test_declare_fences_and_promotes_under_new_epoch(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(3)])
        commit_n(platform, "app", 2)
        platform.sim.run()
        primary, standby = platform.system.placements["app"]
        affected = platform.system.declare_colo_dead(primary, reason="test")
        assert affected == ["app"]
        assert platform.system.epoch == 1
        assert platform.system.colos[primary].fenced
        new_primary, _ = platform.system.placements["app"]
        assert new_primary == standby
        # Declared again: idempotent, no second epoch bump.
        assert platform.system.declare_colo_dead(primary) == []
        assert platform.system.epoch == 1

    def test_route_skips_fenced_and_dead_colos(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        primary, standby = platform.system.placements["app"]
        platform.system.colos[primary].crash()
        assert platform.system.route("app").name == standby
        platform.system.colos[standby].fence()
        with pytest.raises(NoReplicaError):
            platform.system.route("app")


class TestWanShipping:
    def test_shipping_over_fabric_reaches_standby(self):
        platform = make_platform(wan=wan_config())
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(3)])
        commit_n(platform, "app", 4)
        platform.sim.run()
        assert platform.system.replication_lag("app") == 0
        assert standby_value(platform, "app") == 4
        link = platform.system.links["app"]
        assert link.applied_seq == 4 and link.acked_seq == 4
        assert not link.log  # acked entries are released

    def test_cut_link_resumes_catchup_after_heal(self):
        platform = make_platform(wan=wan_config())
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(3)])
        primary, standby = platform.system.placements["app"]
        platform.system.wan.cut(primary, standby)
        commit_n(platform, "app", 5)
        platform.sim.run(until=20.0)
        assert platform.system.replication_lag("app") == 5
        platform.system.wan.heal(primary, standby)
        platform.sim.run(until=60.0)
        assert platform.system.replication_lag("app") == 0
        # At-most-once: each commit applied exactly once despite the
        # retransmissions the cut forced.
        assert standby_value(platform, "app") == 5

    def test_standby_replay_spends_no_tokens(self):
        """The SLA follows the serving copy: replaying the shipped log
        on the standby is platform traffic, so a tenant that commits
        inside its rate through a WAN outage drains the backlog as soon
        as the link heals. Charged to the tenant's bucket, the backlog
        would drain at the 0.5 tps the tenant leaves unused."""
        platform = make_platform(wan=wan_config())
        tight = Sla(1.0, 0.001)  # admitted at 1.5 tps, 3 tokens of burst
        platform.create_database(DatabaseSpec(
            name="app", ddl=list(DDL), sla=tight, expected_size_mb=5.0,
            replicas=2))
        platform.bulk_load("app", "t", [(k, 0) for k in range(3)])
        primary, standby = platform.system.placements["app"]
        standby_cluster = platform.system.colos[standby].cluster_of("app")
        assert "app" not in standby_cluster.slas
        platform.system.wan.cut(primary, standby)

        def paced():
            for _ in range(30):  # one commit a second, inside the rate
                conn = platform.connect("app")
                yield conn.execute("UPDATE t SET v = v + 1 WHERE k = 1")
                yield conn.commit()
                conn.close()
                yield platform.sim.timeout(1.0)

        proc = platform.sim.process(paced())
        proc.defused = True
        platform.sim.run(until=19.5)
        assert platform.system.replication_lag("app") == 20
        platform.system.wan.heal(primary, standby)
        platform.sim.run(until=22.5)
        assert platform.system.replication_lag("app") == 0
        assert standby_value(platform, "app") == 23
        assert standby_cluster.metrics.per_db["app"].overload_rejected == 0
        assert "app" not in standby_cluster.admission.buckets
        # Promoted, the copy serves the tenant and enforces its SLA.
        platform.system.fail_colo(primary)
        assert standby_cluster.slas["app"] == tight
        assert standby_cluster.admission.provisioned_rate("app") == \
            pytest.approx(1.5)

    def test_lossy_wan_applies_each_entry_once(self):
        platform = make_platform(wan=wan_config(drop=0.3, jitter=0.002))
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(3)])
        commit_n(platform, "app", 8)
        platform.sim.run(until=120.0)
        assert platform.system.replication_lag("app") == 0
        assert standby_value(platform, "app") == 8
        violations = check_trace(platform.system.trace.events(),
                                 expect_lag_drained=True)
        assert violations == []

    def test_lag_drains_under_load_legacy_path(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(5)])
        for key in range(3):
            commit_n(platform, "app", 6, key=key)
        platform.sim.run()
        assert platform.system.replication_lag("app") == 0
        link = platform.system.links["app"]
        assert link.shipped == 18 and link.applied == 18

    def test_dead_standby_is_lag_until_declared(self):
        # The default WAN (no config: lossless at wan_latency_s) ships
        # like any other: an entry the standby cannot apply stays in the
        # log and is retransmitted — lag, reported as lag.
        platform = make_platform(heartbeat_interval_s=0.5,
                                 suspect_after_misses=2,
                                 declare_after_misses=5)
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(3)])
        primary, standby = platform.system.placements["app"]
        # The standby colo silently dies: nothing can be applied.
        platform.system.crash_colo(standby)
        commit_n(platform, "app", 3)
        platform.sim.run(until=5.0)
        link = platform.system.links["app"]
        assert (link.shipped, link.applied) == (3, 0)
        assert platform.system.replication_lag("app") == 3
        assert sorted(link.log) == [1, 2, 3]
        assert platform.system.metrics.dr.applied == 0
        # Only the detector's verdict ends it: the colo is declared, the
        # link torn down with its lag on record, and the database marked
        # unprotected — still nothing counted as applied.
        platform.system.start_failure_detector()
        platform.sim.run(until=15.0)
        assert standby in platform.system.declared_dead
        assert "app" not in platform.system.links
        assert not link.applier.is_alive
        assert platform.system.placements["app"] == (primary, None)
        torn = platform.system.trace.events(kind="dr_link_torn")
        assert [e.extra["lag"] for e in torn] == [3]
        assert link.applied == 0


class TestDetectionDrivenFailover:
    def run_failover(self, drop=0.0):
        platform = make_platform(
            colos=3, wan=wan_config(drop=drop, jitter=0.001),
            heartbeat_interval_s=0.5, suspect_after_misses=2,
            declare_after_misses=5)
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(3)])
        commit_n(platform, "app", 3)
        platform.sim.run(until=5.0)
        platform.system.start_failure_detector()
        primary, standby = platform.system.placements["app"]
        platform.system.crash_colo(primary)
        platform.sim.run(until=60.0)
        return platform, primary, standby

    def test_detector_declares_fences_promotes(self):
        platform, primary, standby = self.run_failover()
        system = platform.system
        assert primary in system.declared_dead
        assert system.colos[primary].fenced
        new_primary, new_standby = system.placements["app"]
        assert new_primary == standby
        # Re-protection landed a fresh standby on the surviving colo.
        assert new_standby is not None and new_standby != primary
        assert system.colos[new_standby].hosts("app")
        kinds = [e.kind for e in system.trace.events()]
        for kind in ("colo_suspected", "colo_declared", "colo_fenced",
                     "dr_promote", "dr_reprotect_start",
                     "dr_reprotect_done"):
            assert kind in kinds

    def test_rpo_rto_finite_and_recorded(self):
        platform, _, _ = self.run_failover()
        # Clients reconnect through the system controller: the promoted
        # primary serves, stopping the RTO clock. (The detector keeps
        # heartbeating, so the run must be time-bounded.)
        proc = commit_n(platform, "app", 1)
        platform.sim.run(until=70.0)
        assert proc.ok
        summary = platform.system.metrics.snapshot()["dr"]
        assert len(summary["promotions"]) == 1
        promo = summary["promotions"][0]
        assert promo["rpo_commits"] >= 0
        assert promo["rto_s"] is not None and promo["rto_s"] > 0
        assert summary["rpo_commits"]["app"] == promo["rpo_commits"]

    def test_failover_trace_passes_dr_invariants(self):
        platform, _, _ = self.run_failover(drop=0.05)
        checker = InvariantChecker(expect_lag_drained=True,
                                   dropped=platform.system.trace.dropped)
        assert checker.check(platform.system.trace.events()) == []

    def test_new_standby_catches_up_after_reprotect(self):
        platform, _, _ = self.run_failover()
        proc = commit_n(platform, "app", 4)
        platform.sim.run(until=120.0)
        assert proc.ok
        assert platform.system.replication_lag("app") == 0
        # Snapshot + catch-up: the fresh standby holds the full history
        # the new primary has (3 pre-failover commits minus RPO, plus 4).
        rpo = platform.system.metrics.snapshot()["dr"]["promotions"][0]["rpo_commits"]
        assert standby_value(platform, "app") == 3 - rpo + 4


class TestReprotectAndFailback:
    def test_failback_onto_repaired_colo(self):
        platform = make_platform(colos=2, wan=wan_config())
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(3)])
        commit_n(platform, "app", 2)
        platform.sim.run()
        primary, standby = platform.system.placements["app"]
        platform.system.fail_colo(primary)
        platform.sim.run(until=30.0)
        # Only one surviving colo: re-protection parks with no target.
        assert platform.system.placements["app"] == (standby, None)
        platform.system.repair_colo(primary)
        platform.sim.run(until=120.0)
        assert platform.system.placements["app"] == (standby, primary)
        assert platform.system.metrics.snapshot()["dr"]["failbacks"] == 1
        kinds = [e.kind for e in platform.system.trace.events()]
        assert "dr_failback" in kinds
        # The repaired colo rejoined blank and re-learned the data via
        # snapshot copy; shipping works again.
        proc = commit_n(platform, "app", 2)
        platform.sim.run(until=200.0)
        assert proc.ok
        assert platform.system.replication_lag("app") == 0
        assert standby_value(platform, "app") == 4

    def test_reprotect_copy_survives_wan_outage(self):
        platform = make_platform(colos=3, wan=wan_config(),
                                 reprotect_retry_s=2.0)
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(k, 0) for k in range(3)])
        primary, standby = platform.system.placements["app"]
        survivors = [c for c in platform.system.colos
                     if c not in (primary, standby)]
        target = survivors[0]
        platform.system.fail_colo(primary)
        # Cut the snapshot path: the first re-protect attempt fails and
        # must retry after the heal instead of giving up.
        platform.system.wan.cut(standby, target)
        platform.sim.run(until=10.0)
        assert platform.system.placements["app"] == (standby, None)
        platform.system.wan.heal(standby, target)
        platform.sim.run(until=120.0)
        assert platform.system.placements["app"] == (standby, target)

    def test_deregister_tears_link_and_drops_everywhere(self):
        platform = make_platform()
        platform.create_database(spec("app"))
        platform.bulk_load("app", "t", [(1, 0)])
        link = platform.system.links["app"]
        applier = link.applier
        colos = [platform.system.colos[name]
                 for name in platform.system.placements["app"] if name]
        platform.drop_database("app")
        platform.sim.run()
        assert "app" not in platform.system.links
        assert link.torn and not applier.is_alive
        assert "app" not in platform.system.placements
        for colo in colos:
            assert not colo.hosts("app")
        with pytest.raises(NoReplicaError):
            platform.connect("app")

    def test_fail_colo_tears_links_and_cancels_appliers(self):
        # Satellite: links whose primary or standby colo died must be
        # torn down, not leaked with appliers spinning forever.
        platform = make_platform(colos=3)
        platform.create_database(spec("a"))
        platform.create_database(spec("b"))
        system = platform.system
        victims = set()
        for db in ("a", "b"):
            primary, standby = system.placements[db]
            victims.add(primary)
        appliers = {db: system.links[db].applier for db in ("a", "b")}
        for name in victims:
            system.fail_colo(name)
        platform.sim.run()
        for db in ("a", "b"):
            primary, standby = system.placements.get(db, (None, None))
            link = system.links.get(db)
            if link is not None:       # re-established by re-protection
                assert not link.torn
                assert (link.primary, link.standby) == (primary, standby)
            old = appliers[db]
            if system.links.get(db) is None or \
                    system.links[db].applier is not old:
                assert not old.is_alive


class TestBinAccounting:
    """The colo's placement view is derived from its clusters' replica
    maps: whatever leaves the map leaves the load First-Fit sees."""

    def test_drop_database_releases_bins(self):
        # A dropped database's load is given back to every machine.
        platform = make_platform(colos=1)
        platform.create_database(spec("app", dr=False))
        colo = platform.system.colos["colo0"]
        cluster = colo.cluster_of("app")
        assert [b for b in colo.bins(cluster) if b.used.cpu > 0]
        platform.drop_database("app")
        assert not colo.hosts("app")
        for machine_bin in colo.bins(cluster):
            assert machine_bin.used == type(machine_bin.used)()

    def test_machine_declaration_releases_bin(self):
        # A declared machine's load leaves with it.
        platform = make_platform(colos=1)
        platform.create_database(spec("app", dr=False))
        colo = platform.system.colos["colo0"]
        cluster = colo.cluster_of("app")
        loaded = {b.name: b.used for b in colo.bins(cluster)}
        victim = cluster.replica_map.replicas("app")[0]
        assert loaded[victim].cpu > 0
        cluster.declare_dead(victim)
        platform.sim.run(until=5.0)
        after = {b.name: b.used for b in colo.bins(cluster)}
        assert after[victim] == type(after[victim])()
        survivors = cluster.replica_map.replicas("app")
        assert victim not in survivors
        for name in survivors:
            assert after[name] == loaded[name]


class TestDrInvariantRules:
    def _ev(self, seq, kind, db=None, machine=None, **extra):
        return TraceEvent(seq=seq, t=float(seq), kind=kind, db=db,
                          machine=machine, extra=extra)

    def test_promotion_without_fence_is_dual_primary(self):
        events = [
            self._ev(1, "dr_protect", db="app", primary="c0", standby="c1",
                     base_seq=0),
            self._ev(2, "dr_promote", db="app", old="c0", new="c1",
                     epoch=1, rpo_commits=0),
        ]
        violations = check_trace(events)
        assert any(v.rule == "no-dual-primary-colo" for v in violations)

    def test_fenced_promotion_is_clean(self):
        events = [
            self._ev(1, "dr_protect", db="app", primary="c0", standby="c1",
                     base_seq=0),
            self._ev(2, "colo_fenced", machine="c0", epoch=1),
            self._ev(3, "dr_promote", db="app", old="c0", new="c1",
                     epoch=1, rpo_commits=0),
        ]
        assert check_trace(events) == []

    def test_epoch_must_advance(self):
        events = [
            self._ev(1, "colo_fenced", machine="c0", epoch=1),
            self._ev(2, "colo_repaired", machine="c0"),
            self._ev(3, "colo_fenced", machine="c1", epoch=1),
        ]
        violations = check_trace(events)
        assert any("epoch" in v.message for v in violations)

    def test_apply_gap_breaks_prefix_order(self):
        events = [
            self._ev(1, "dr_protect", db="app", primary="c0", standby="c1",
                     base_seq=0),
            self._ev(2, "dr_ship", db="app", rseq=1),
            self._ev(3, "dr_ship", db="app", rseq=2),
            self._ev(4, "dr_apply", db="app", rseq=2),
        ]
        violations = check_trace(events)
        assert any(v.rule == "standby-applies-a-prefix-of-commit-order"
                   for v in violations)

    def test_duplicate_apply_breaks_prefix_order(self):
        events = [
            self._ev(1, "dr_protect", db="app", primary="c0", standby="c1",
                     base_seq=0),
            self._ev(2, "dr_ship", db="app", rseq=1),
            self._ev(3, "dr_apply", db="app", rseq=1),
            self._ev(4, "dr_apply", db="app", rseq=1),
        ]
        violations = check_trace(events)
        assert any(v.rule == "standby-applies-a-prefix-of-commit-order"
                   for v in violations)

    def test_undrained_lag_flagged_only_when_expected(self):
        events = [
            self._ev(1, "dr_protect", db="app", primary="c0", standby="c1",
                     base_seq=0),
            self._ev(2, "dr_ship", db="app", rseq=1),
        ]
        assert check_trace(events) == []
        violations = check_trace(events, expect_lag_drained=True)
        assert any(v.rule == "lag-eventually-drains" for v in violations)

    def test_torn_link_lag_is_rpo_not_violation(self):
        events = [
            self._ev(1, "dr_protect", db="app", primary="c0", standby="c1",
                     base_seq=0),
            self._ev(2, "dr_ship", db="app", rseq=1),
            self._ev(3, "dr_link_torn", db="app", primary="c0",
                     standby="c1", lag=1),
        ]
        assert check_trace(events, expect_lag_drained=True) == []


class TestSeededDrSoak:
    def test_soak_zero_violations_finite_rpo_rto(self):
        result = run_dr_soak(duration_s=24.0, drain_s=20.0, seed=3)
        system = result.system
        assert result.declared == [result.colo_killed]
        assert result.promotions >= 1
        for promo in result.dr["promotions"]:
            assert promo["rpo_commits"] >= 0
            assert promo["rto_s"] is not None
        assert all(lag == 0 for lag in result.replication_lag.values())
        checker = InvariantChecker(expect_lag_drained=True,
                                   dropped=system.trace.dropped)
        assert checker.check(system.trace.events()) == []
