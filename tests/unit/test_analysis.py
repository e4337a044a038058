"""Unit tests for histories, the serialization graph, and metrics."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.analysis import (GlobalHistory, Histogram, MetricsCollector,
                            SerializationGraph, SiteHistory, TimeSeries,
                            check_one_copy_serializable)
from tests.property.test_histogram_property import nearest_rank


class TestPackageImport:
    @pytest.mark.parametrize("module", ["invariants", "trace"])
    def test_python_dash_m_on_a_submodule_raises_no_runtime_warning(
            self, module):
        # runpy warns when importing the package has already loaded the
        # module it is about to execute; CI runs the audits this way.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             f"repro.analysis.{module}", "--help"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestSiteHistory:
    def test_conflict_edges_rw(self):
        site = SiteHistory("m1")
        site.record_read(1, ("db", "t", (1,)))
        site.record_write(2, ("db", "t", (1,)))
        site.record_commit(1)
        site.record_commit(2)
        assert site.conflict_edges() == {(1, 2)}

    def test_no_edge_for_read_read(self):
        site = SiteHistory("m1")
        site.record_read(1, ("db", "t", (1,)))
        site.record_read(2, ("db", "t", (1,)))
        site.record_commit(1)
        site.record_commit(2)
        assert site.conflict_edges() == set()

    def test_no_edge_for_different_objects(self):
        site = SiteHistory("m1")
        site.record_write(1, ("db", "t", (1,)))
        site.record_write(2, ("db", "t", (2,)))
        site.record_commit(1)
        site.record_commit(2)
        assert site.conflict_edges() == set()

    def test_aborted_txn_excluded(self):
        site = SiteHistory("m1")
        site.record_write(1, ("db", "t", (1,)))
        site.record_write(2, ("db", "t", (1,)))
        site.record_abort(1)
        site.record_commit(2)
        assert site.conflict_edges() == set()

    def test_ww_edge_direction(self):
        site = SiteHistory("m1")
        site.record_write(3, ("db", "t", (9,)))
        site.record_write(5, ("db", "t", (9,)))
        site.record_commit(3)
        site.record_commit(5)
        assert site.conflict_edges() == {(3, 5)}


class TestGlobalHistory:
    def test_cross_site_cycle_detected(self):
        history = GlobalHistory()
        m1, m2 = history.site("m1"), history.site("m2")
        # The paper's anomaly history.
        m1.record_read(1, ("db", "kv", ("x",)))
        m1.record_write(1, ("db", "kv", ("y",)))
        m1.record_write(2, ("db", "kv", ("x",)))
        m2.record_read(2, ("db", "kv", ("y",)))
        m2.record_write(2, ("db", "kv", ("x",)))
        m2.record_write(1, ("db", "kv", ("y",)))
        m1.record_commit(1)
        m1.record_commit(2)
        m2.record_commit(1)
        m2.record_commit(2)
        ok, cycle = check_one_copy_serializable(history)
        assert not ok
        assert set(cycle) >= {1, 2}

    def test_commit_on_one_site_counts(self):
        history = GlobalHistory()
        m1 = history.site("m1")
        m1.record_write(1, ("db", "t", (1,)))
        m1.record_commit(1)
        assert history.committed_everywhere() == {1}

    def test_serializable_history(self):
        history = GlobalHistory()
        m1, m2 = history.site("m1"), history.site("m2")
        m1.record_write(1, ("db", "t", (1,)))
        m2.record_write(1, ("db", "t", (1,)))
        m1.record_write(2, ("db", "t", (1,)))
        m2.record_write(2, ("db", "t", (1,)))
        for site in (m1, m2):
            site.record_commit(1)
            site.record_commit(2)
        ok, cycle = check_one_copy_serializable(history)
        assert ok and cycle is None


class TestSerializationGraph:
    def test_acyclic(self):
        graph = SerializationGraph([(1, 2), (2, 3)])
        assert graph.find_cycle() is None

    def test_cycle_found(self):
        graph = SerializationGraph([(1, 2), (2, 3), (3, 1)])
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) >= {1, 2, 3}

    def test_self_edge_ignored(self):
        graph = SerializationGraph([(1, 1)])
        assert graph.find_cycle() is None

    def test_edge_count(self):
        graph = SerializationGraph([(1, 2), (1, 2), (2, 3)])
        assert sum(len(succ) for succ in graph.adj.values()) == 2
        assert graph.adj == {1: {2}, 2: {3}, 3: set()}


class TestTimeSeries:
    def test_bucketing(self):
        series = TimeSeries(window=10.0)
        series.add(1.0)
        series.add(5.0)
        series.add(15.0)
        assert series.series() == [(0.0, 2.0), (10.0, 1.0)]

    def test_gaps_filled(self):
        series = TimeSeries(window=10.0)
        series.add(0.0)
        series.add(35.0)
        values = dict(series.series())
        assert values[10.0] == 0.0 and values[20.0] == 0.0

    def test_rate_series(self):
        series = TimeSeries(window=10.0)
        series.add(1.0)
        series.add(2.0)
        assert series.rate_series()[0] == (0.0, 0.2)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            TimeSeries(0)

    def test_until_extends(self):
        series = TimeSeries(window=10.0)
        series.add(5.0)
        assert len(series.series(until=35.0)) == 4


class TestMetricsCollector:
    def test_counters_and_rates(self):
        metrics = MetricsCollector()
        metrics.record_commit("db1", 1.0, response_time=0.5)
        metrics.record_commit("db1", 2.0, response_time=1.5)
        metrics.record_deadlock("db1", 3.0)
        metrics.record_rejection("db2", 4.0)
        metrics.db("db1").other_aborts += 1
        assert metrics.total_committed() == 2
        assert metrics.total_deadlocks() == 1
        assert metrics.total_rejected() == 1
        assert metrics.throughput(10.0) == pytest.approx(0.2)
        assert metrics.db("db1").response_time_total == pytest.approx(2.0)

    def test_rejected_fraction(self):
        metrics = MetricsCollector()
        for _ in range(9):
            metrics.record_commit("db", 0.0)
        metrics.record_rejection("db", 0.0)
        assert metrics.db("db").rejected_fraction() == pytest.approx(0.1)

    def test_rejected_fraction_empty(self):
        assert MetricsCollector().db("x").rejected_fraction() == 0.0


class TestHistogram:
    """One bounded histogram per phase, tenant and link (DESIGN §4r)."""

    def test_empty_histogram_is_zero(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50.0) == 0.0
        assert hist.summary() == dict.fromkeys(
            ("count", "mean", "p50", "p95", "p99"), 0.0)

    def test_percentiles_nearest_rank(self):
        hist = Histogram()
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            hist.observe(v)
        assert hist.count == 5
        assert hist.mean == pytest.approx(3.0)
        # One sample per bucket: the bucket mean is the sample.
        assert hist.percentile(50.0) == 3.0
        assert hist.percentile(99.0) == 5.0
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(100.0) == 5.0
        with pytest.raises(ValueError):
            hist.percentile(101.0)

    def test_percentiles_within_a_bucket_of_the_exact_ones(self):
        import random
        rng = random.Random(7)
        hist, samples = Histogram(), []
        for _ in range(20_000):
            seconds = rng.expovariate(200.0)
            hist.observe(seconds)
            samples.append(seconds)
        summary = hist.summary()
        assert summary["count"] == len(samples)
        assert summary["mean"] == pytest.approx(sum(samples) / len(samples))
        for name, p in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
            # A bucket is 2**(1/32) wide; smooth data lands well inside.
            assert summary[name] == pytest.approx(nearest_rank(samples, p),
                                                  rel=0.015)

    def test_size_does_not_depend_on_the_sample_count(self):
        hist = Histogram()
        values = (0.0, 1e-12, 0.003, 5.0, 1e6)    # both ends land somewhere
        for repeats in (1, 1000):
            for seconds in values:
                for _ in range(repeats):
                    hist.observe(seconds)
            assert 2 <= len(hist.buckets) <= len(values)
        assert hist.count == 5005
        assert not hasattr(hist, "__dict__")
        # A day-long sample shares the last bucket with 1e6 s.
        hist.observe(86400.0)
        assert max(hist.buckets) == 32 * 38 - 1

    def test_minus_a_copy_is_what_came_after_the_mark(self):
        hist = Histogram()
        for _ in range(10):
            hist.observe(0.002)
        mark = hist.copy()
        hist.observe(0.002)
        hist.observe(0.5)
        assert mark.count == 10                     # a copy, not a view
        after = hist.minus(mark)
        assert after.count == 2
        assert after.mean == pytest.approx(0.251)
        assert after.percentile(99.0) == pytest.approx(0.5)
        assert hist.minus(hist.copy()).summary() == Histogram().summary()


class TestSnapshot:
    def test_a_link_histogram_is_registered_when_the_link_first_sends(self):
        from repro.cluster.network import NetworkConfig, NetworkFabric
        from repro.sim import Simulator
        sim, metrics = Simulator(), MetricsCollector()
        fabric = NetworkFabric(
            sim, NetworkConfig(enabled=True, latency_s=0.0005),
            metrics=metrics)
        for _ in range(5):
            fabric.post("a", "b", lambda delivered: None)
        sim.run()
        assert metrics.snapshot()["links"] == {"a->b": {
            "count": 5.0, "mean": pytest.approx(0.0005),
            "p50": pytest.approx(0.0005), "p95": pytest.approx(0.0005),
            "p99": pytest.approx(0.0005)}}
        assert metrics.network.messages_sent == 5
        assert (metrics.link_latencies["a->b"]
                is fabric.link_stats[("a", "b")].latency)

    def test_one_json_serialisable_dict(self):
        metrics = MetricsCollector()
        metrics.record_commit("db1", 1.0, response_time=0.5)
        metrics.record_overload_rejection("db1", 2.0)
        metrics.db("db2").rollbacks += 1
        metrics.record_phase_latency("prepare", 0.25)
        metrics.record_fanout("prepare", 3)
        metrics.record_fanout("prepare", 1)
        metrics.network.rpc_timeouts += 2
        metrics.dr.shipped += 4
        promotion = metrics.record_dr_promotion(
            "db1", "east", "west", epoch=2, declared_at=9.0, rpo_commits=1)
        metrics.record_dr_rto("db1", 0.75)
        snapshot = json.loads(json.dumps(metrics.snapshot()))
        assert sorted(snapshot) == ["dr", "fanouts", "links", "network",
                                    "per_db", "phases"]
        row = snapshot["per_db"]["db1"]
        assert (row["committed"], row["rejected"], row["overload_rejected"],
                row["total_finished"]) == (1, 1, 1, 2)
        assert row["overload_rejected_fraction"] == 0.5
        assert row["latency"]["p99"] == pytest.approx(0.5)
        # A tenant that never committed still has a latency row.
        assert snapshot["per_db"]["db2"]["latency"]["count"] == 0
        assert snapshot["phases"]["prepare"]["count"] == 1
        assert snapshot["fanouts"]["prepare"] == {
            "count": 2, "total_width": 4, "max_width": 3, "mean_width": 2.0}
        assert snapshot["network"]["rpc_timeouts"] == 2
        assert snapshot["network"]["delivered"] == 0
        assert snapshot["dr"]["shipped"] == 4
        assert snapshot["dr"]["promotions"] == [{
            "db": "db1", "old_primary": "east", "new_primary": "west",
            "epoch": 2, "declared_at": 9.0, "rpo_commits": 1,
            "rto_s": 0.75}]
        assert snapshot["dr"]["rto_s"] == {"db1": 0.75}
        assert promotion.rto_s == 0.75
