"""Unit tests for histories, the serialization graph, and metrics."""

import os
import subprocess
import sys

import pytest

import repro
from repro.analysis import (GlobalHistory, MetricsCollector,
                            SerializationGraph, SiteHistory, TimeSeries,
                            check_one_copy_serializable)


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
        assert graph.is_acyclic()
        assert graph.topological_order() == [1, 2, 3]

    def test_cycle_found(self):
        graph = SerializationGraph([(1, 2), (2, 3), (3, 1)])
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) >= {1, 2, 3}

    def test_self_edge_ignored(self):
        graph = SerializationGraph([(1, 1)])
        assert graph.is_acyclic()

    def test_topological_order_rejects_cycle(self):
        graph = SerializationGraph([(1, 2), (2, 1)])
        with pytest.raises(ValueError):
            graph.topological_order()

    def test_edge_count(self):
        graph = SerializationGraph([(1, 2), (1, 2), (2, 3)])
        assert graph.edge_count == 2


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
        metrics.record_other_abort("db1")
        assert metrics.total_committed() == 2
        assert metrics.total_deadlocks() == 1
        assert metrics.total_rejected() == 1
        assert metrics.throughput(10.0) == pytest.approx(0.2)
        assert metrics.db("db1").mean_response_time == pytest.approx(1.0)

    def test_rejected_fraction(self):
        metrics = MetricsCollector()
        for _ in range(9):
            metrics.record_commit("db", 0.0)
        metrics.record_rejection("db", 0.0)
        assert metrics.db("db").rejected_fraction() == pytest.approx(0.1)

    def test_rejected_fraction_empty(self):
        assert MetricsCollector().db("x").rejected_fraction() == 0.0


class TestLinkLatency:
    """Per-link latency keeps no samples (DESIGN §4q)."""

    def test_same_summary_keys_as_the_exact_histogram(self):
        from repro.analysis.trace import LatencyHistogram
        metrics = MetricsCollector()
        for _ in range(5):
            metrics.record_link_latency("a", "b", 0.0005)
        link = metrics.network_summary()["links"]["a->b"]
        assert set(link) == set(LatencyHistogram().summary())
        # One bucket holds everything: the mean, which is exact.
        assert link == {"count": 5.0, "mean": pytest.approx(0.0005),
                        "p50": pytest.approx(0.0005),
                        "p95": pytest.approx(0.0005),
                        "p99": pytest.approx(0.0005)}

    def test_percentiles_within_a_bucket_of_the_exact_ones(self):
        import random
        from repro.analysis.metrics import LinkLatency
        from repro.analysis.trace import LatencyHistogram
        rng = random.Random(7)
        link, exact = LinkLatency(), LatencyHistogram()
        for _ in range(20_000):
            seconds = rng.expovariate(200.0)
            link.observe(seconds)
            exact.observe(seconds)
        ours, theirs = link.summary(), exact.summary()
        assert ours["count"] == theirs["count"]
        assert ours["mean"] == pytest.approx(theirs["mean"])
        for p in ("p50", "p95", "p99"):
            assert ours[p] == pytest.approx(theirs[p], rel=0.05)

    def test_size_does_not_depend_on_the_sample_count(self):
        from repro.analysis.metrics import LinkLatency
        link = LinkLatency()
        size = len(link.buckets)
        for seconds in (0.0, 1e-12, 0.003, 5.0, 1e6):   # both ends clamp
            for _ in range(1000):
                link.observe(seconds)
        assert len(link.buckets) == size
        assert link.summary()["count"] == 5000
        assert not hasattr(link, "__dict__")
        assert LinkLatency().summary()["p99"] == 0.0
