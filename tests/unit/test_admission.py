"""Unit tests for the overload-protection layer: token buckets,
admission provisioning, load-aware shedding, and the error contract."""

import pytest

from repro.cluster.admission import (DEFAULT_RATE_TPS, AdmissionConfig,
                                     AdmissionController, TokenBucket,
                                     least_loaded, shed_choice)
from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Machine
from repro.errors import OverloadRejectedError, ProactiveRejectionError
from repro.sim import Simulator
from repro.sla.model import Sla


# -- token bucket -------------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=2.0, capacity=4.0)
        grants = [bucket.try_acquire(0.0) for _ in range(5)]
        assert grants == [True, True, True, True, False]

    def test_lazy_refill_at_rate(self):
        bucket = TokenBucket(rate=2.0, capacity=4.0)
        for _ in range(4):
            assert bucket.try_acquire(0.0)
        assert bucket.tokens_at(0.0) == 0.0
        assert bucket.tokens_at(1.0) == pytest.approx(2.0)
        assert bucket.tokens_at(1.5) == pytest.approx(3.0)

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(rate=2.0, capacity=4.0)
        assert bucket.try_acquire(0.0)
        assert bucket.tokens_at(100.0) == pytest.approx(4.0)

    def test_time_never_runs_backwards(self):
        # A consult at an earlier timestamp must not mint tokens.
        bucket = TokenBucket(rate=1.0, capacity=2.0, now=10.0)
        assert bucket.try_acquire(10.0)
        assert bucket.try_acquire(10.0)
        assert not bucket.try_acquire(5.0)
        assert bucket.tokens_at(10.0) == 0.0

    def test_partial_tokens_accumulate(self):
        bucket = TokenBucket(rate=0.5, capacity=1.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(1.0)   # only 0.5 tokens yet
        assert bucket.try_acquire(2.0)       # a full token at 1/rate

    def test_deterministic_replay(self):
        # Same consult schedule -> same grants; no RNG, no wall clock.
        schedule = [0.0, 0.1, 0.4, 0.4, 1.3, 2.0, 2.0, 2.1, 7.5]

        def run():
            bucket = TokenBucket(rate=1.5, capacity=3.0)
            return [bucket.try_acquire(t) for t in schedule]

        assert run() == run()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.0)


# -- admission controller ----------------------------------------------------


class TestAdmissionController:
    def make(self, now=None):
        clock_now = now if now is not None else [0.0]
        return AdmissionController(clock=lambda: clock_now[0]), clock_now

    def test_provisions_from_sla_with_headroom(self):
        admission, _ = self.make()
        admission.provision("db", Sla(4.0, 0.05))
        assert admission.provisioned_rate("db") == pytest.approx(6.0)
        bucket = admission.buckets["db"]
        assert bucket.capacity == pytest.approx(12.0)  # 2 s of burst

    def test_no_sla_gets_default_rate(self):
        admission, _ = self.make()
        admission.provision("db", None)
        assert admission.provisioned_rate("db") == DEFAULT_RATE_TPS

    def test_unknown_db_auto_provisioned_not_rejected(self):
        admission, _ = self.make()
        assert admission.admit("never-seen")
        assert "never-seen" in admission.buckets

    def test_admit_spends_and_refills_on_sim_clock(self):
        admission, clock_now = self.make()
        admission.provision("db", Sla(1.0, 0.05))   # rate 1.5, capacity 3
        grants = [admission.admit("db") for _ in range(4)]
        assert grants == [True, True, True, False]
        clock_now[0] = 1.0                          # +1.5 tokens
        assert admission.admit("db")

    def test_forget_drops_bucket(self):
        admission, _ = self.make()
        admission.provision("db", Sla(4.0, 0.05))
        admission.forget("db")
        assert "db" not in admission.buckets
        assert admission.provisioned_rate("db") == DEFAULT_RATE_TPS


# -- read shedding -----------------------------------------------------------


class TestShedding:
    LOADS = {"a": 9, "b": 3, "c": 5}

    def test_least_loaded_picks_minimum(self):
        assert least_loaded(["a", "b", "c"], self.LOADS) == "b"

    def test_least_loaded_first_on_ties(self):
        assert least_loaded(["a", "b", "c"], {"a": 2, "b": 2, "c": 2}) == "a"

    def test_least_loaded_requires_replicas(self):
        with pytest.raises(ValueError):
            least_loaded([], {})

    def test_under_watermark_keeps_preferred(self):
        assert shed_choice("c", ["a", "b", "c"], self.LOADS, 8) == \
            ("c", False)

    def test_over_watermark_spills_to_least_loaded(self):
        assert shed_choice("a", ["a", "b", "c"], self.LOADS, 8) == \
            ("b", True)

    def test_zero_watermark_disables_shedding(self):
        assert shed_choice("a", ["a", "b", "c"], self.LOADS, 0) == \
            ("a", False)

    def test_all_over_watermark_still_serves(self):
        # The fairness regression: when every replica is over the
        # watermark, the least-loaded one serves — shedding must never
        # become unavailability.
        loads = {"a": 9, "b": 12, "c": 15}
        choice, shed = shed_choice("a", ["a", "b", "c"], loads, 8)
        assert choice == "a"
        assert shed is False      # preferred already is least-loaded
        choice, shed = shed_choice("c", ["a", "b", "c"], loads, 8)
        assert (choice, shed) == ("a", True)


# -- machine load signals ----------------------------------------------------


class TestMachineLoadSignals:
    def test_fresh_machine_is_idle(self):
        machine = Machine(Simulator(), "m1", ClusterConfig().machine)
        assert machine.inflight == 0
        assert machine.queue_depth == 0
        assert not machine.overloaded(8)

    def test_zero_watermark_never_overloaded(self):
        machine = Machine(Simulator(), "m1", ClusterConfig().machine)
        assert not machine.overloaded(0)


# -- error contract ----------------------------------------------------------


class TestErrorContract:
    def test_overload_rejection_is_retryable_and_tagged(self):
        exc = OverloadRejectedError("over rate", database="kv")
        assert exc.database == "kv"
        assert exc.retryable is True
        assert isinstance(exc, ProactiveRejectionError)

    def test_proactive_rejection_defaults(self):
        exc = ProactiveRejectionError("copy window")
        assert exc.database is None
        assert exc.retryable is False

    def test_proactive_rejection_carries_fields(self):
        exc = ProactiveRejectionError("copy window", database="tpcw1",
                                      retryable=True)
        assert exc.database == "tpcw1"
        assert exc.retryable is True


# -- config flag -------------------------------------------------------------


def test_admission_control_defaults_off():
    config = ClusterConfig()
    assert config.admission_control is False
    assert isinstance(config.admission, AdmissionConfig)
