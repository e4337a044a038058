"""Unit tests for runtime SLA compliance: the per-database counters an
SLA is read against, and the availability inputs estimated from them."""

import pytest

from repro.analysis.metrics import MetricsCollector
from repro.analysis.trace import Tracer
from repro.cluster.recovery import RecoveryRecord
from repro.sla.model import Sla, rejected_fraction_bound
from repro.sla.monitor import OverloadMonitor, observed_availability_inputs


def metrics_with(db: str, committed: int, rejected: int) -> MetricsCollector:
    metrics = MetricsCollector()
    trace = Tracer(metrics=metrics)
    for _ in range(committed):
        metrics.record_commit(db, 0.0)
    for _ in range(rejected):
        trace.emit("abort", db=db, reason="ProactiveRejectionError")
    return metrics


def compliance(metrics, db, sla, window_s):
    """(throughput floor met, rejection ceiling met) over ``window_s``:
    what ``metrics.per_db[db]`` says against ``sla``."""
    counters = metrics.per_db.get(db)
    committed = counters.committed if counters else 0
    fraction = counters.rejected_fraction() if counters else 0.0
    return (committed / window_s >= sla.min_throughput_tps,
            fraction <= sla.max_rejected_fraction)


class TestSlaMonitor:
    def test_compliant_database(self):
        metrics = metrics_with("db", committed=100, rejected=0)
        assert metrics.per_db["db"].committed / 10.0 == 10.0
        assert compliance(metrics, "db", Sla(1.0, 0.01), 10.0) == (True, True)

    def test_throughput_violation(self):
        metrics = metrics_with("db", committed=100, rejected=0)
        throughput_ok, _ = compliance(metrics, "db", Sla(50.0, 0.01), 10.0)
        assert not throughput_ok

    def test_availability_violation(self):
        metrics = metrics_with("db", committed=90, rejected=10)
        assert metrics.per_db["db"].rejected_fraction() == pytest.approx(0.1)
        assert compliance(metrics, "db", Sla(1.0, 0.001), 10.0) == \
            (True, False)

    def test_violations_filter(self):
        slas = {"good": Sla(1.0, 0.5), "bad": Sla(1000.0, 0.5)}
        metrics = metrics_with("good", 100, 0)
        for _ in range(10):
            metrics.record_commit("bad", 0.0)
        bad_only = [db for db, sla in sorted(slas.items())
                    if not all(compliance(metrics, db, sla, 10.0))]
        assert bad_only == ["bad"]

    def test_missing_metrics_means_zero(self):
        metrics = MetricsCollector()
        assert metrics.per_db.get("silent") is None
        throughput_ok, _ = compliance(metrics, "silent", Sla(1.0, 0.01), 10.0)
        assert not throughput_ok

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            OverloadMonitor(controller=None, window_s=0)


class TestObservedAvailability:
    def test_inputs_from_recovery_records(self):
        records = [
            RecoveryRecord("db", "m1", "m2", 10.0, 130.0, 1000, True),
            RecoveryRecord("db", "m2", "m3", 200.0, 280.0, 1000, True),
            RecoveryRecord("other", "m1", "m2", 0.0, 5.0, 10, True),
            RecoveryRecord("db", "m1", "m2", 0.0, 99.0, 10, False),
        ]
        inputs = observed_availability_inputs(
            "db", records, failures_observed=2, window_s=3600.0,
            write_mix=0.2, period_s=30 * 24 * 3600.0)
        assert inputs.recovery_time_s == pytest.approx((120.0 + 80.0) / 2)
        assert inputs.machine_failure_rate == pytest.approx(2 * 720.0)
        bound = rejected_fraction_bound(inputs, 30 * 24 * 3600.0)
        assert bound > 0

    def test_no_records_zero_recovery_time(self):
        inputs = observed_availability_inputs(
            "db", [], failures_observed=0, window_s=100.0,
            write_mix=0.5, period_s=1000.0)
        assert inputs.recovery_time_s == 0.0
        assert inputs.machine_failure_rate == 0.0
