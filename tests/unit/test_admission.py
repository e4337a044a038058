"""Unit tests for the overload-protection layer: token buckets,
admission provisioning, load-aware shedding, and the error contract."""

import pytest

from repro.cluster import ClusterController, ReadOption, WritePolicy
from repro.cluster.admission import AdmissionController, TokenBucket
from repro.cluster.config import ClusterConfig
from repro.cluster.machine import Machine
from repro.errors import OverloadRejectedError, ProactiveRejectionError
from repro.sim import Simulator
from repro.sla.model import Sla
from repro.workloads.microbench import KV_DDL


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
    def make(self):
        clock_now, slas = [0.0], {}
        admission = AdmissionController(lambda: clock_now[0], slas.get)
        return admission, clock_now, slas

    def test_provisions_from_sla_with_headroom(self):
        admission, _, slas = self.make()
        slas["db"] = Sla(4.0, 0.05)
        assert admission.provisioned_rate("db") == pytest.approx(6.0)
        assert admission.admit("db")
        bucket = admission.buckets["db"]
        assert bucket.capacity == pytest.approx(12.0)  # 2 s of burst

    def test_no_sla_holds_no_bucket_and_is_never_rejected(self):
        # 10x the 1000 tps every SLA-less tenant used to be held to: no
        # rate, no bucket, every transaction admitted.
        admission, clock_now, slas = self.make()
        slas["zero-floor"] = Sla(0.0, 0.05)
        for tick in range(2000):  # 2 sim-s in 1 ms steps
            clock_now[0] = tick / 1000.0
            for _ in range(10):
                assert admission.admit("free")
                assert admission.admit("zero-floor")
        assert admission.buckets == {}
        assert admission.provisioned_rate("free") is None
        assert admission.provisioned_rate("zero-floor") is None

    def test_unknown_db_auto_provisioned_not_rejected(self):
        admission, _, _ = self.make()
        assert admission.admit("never-seen")
        assert "never-seen" not in admission.buckets

    def test_admit_spends_and_refills_on_sim_clock(self):
        admission, clock_now, slas = self.make()
        slas["db"] = Sla(1.0, 0.05)                 # rate 1.5, capacity 3
        grants = [admission.admit("db") for _ in range(4)]
        assert grants == [True, True, True, False]
        clock_now[0] = 1.0                          # +1.5 tokens
        assert admission.admit("db")

    def test_forget_drops_bucket(self):
        admission, _, slas = self.make()
        slas["db"] = Sla(4.0, 0.05)
        admission.admit("db")
        admission.forget("db")
        assert "db" not in admission.buckets
        # The rate is the SLA's, bucket or not.
        assert admission.provisioned_rate("db") == pytest.approx(6.0)


# -- read shedding -----------------------------------------------------------


def reference_choice(preferred, replicas, loads, watermark):
    """The choice ``shed_choice`` made for one read before the shed
    check moved into ``TxnCoordinator._execute_read``: keep ``preferred``
    while it is under ``watermark`` (0: always), else the least-loaded
    replica, the first on ties."""
    if watermark <= 0 or loads[preferred] < watermark:
        return preferred
    return min(replicas, key=lambda name: loads[name])


@pytest.fixture
def read_under_load(monkeypatch):
    """``read(preferred, loads, watermark, policy)``: one read of a
    database replicated on machines ``a``, ``b``, ``c`` (in that order)
    whose read option picks ``preferred``, with each machine's in-flight
    count scripted by ``loads``; returns the machine that served it and
    the ``shed_read`` events."""
    scripted = {}
    monkeypatch.setattr(Machine, "inflight",
                        property(lambda m: scripted.get(m.name, 0)))

    def read(preferred, loads, watermark,
             policy=WritePolicy.CONSERVATIVE):
        sim = Simulator()
        controller = ClusterController(sim, ClusterConfig(
            read_option=ReadOption.OPTION_3, write_policy=policy,
            shed_inflight_watermark=watermark))
        for name in "abc":
            controller.add_machine(name)
        controller.create_database("kv", KV_DDL, machines=["a", "b", "c"])
        controller.bulk_load("kv", "kv", [(0, 0)])
        controller.router._rr = "abc".index(preferred)  # the option's pick
        scripted.update(loads)
        conn = controller.connect("kv")
        conn.execute("SELECT v FROM kv WHERE k = 0")
        sim.run()
        scripted.clear()
        (served,) = conn.txn.touched
        return served, controller.trace.events(kind="shed_read")

    return read


class TestShedding:
    LOADS = {"a": 9, "b": 3, "c": 5}
    #: In-flight counts of ``a``, ``b``, ``c``, scripted: one hot, ties,
    #: every replica over the watermark, all idle.
    LOAD_TABLE = [(9, 3, 5), (2, 2, 2), (9, 12, 15), (15, 12, 9),
                  (8, 8, 8), (8, 7, 7), (0, 0, 0), (1, 0, 30)]

    def test_least_loaded_picks_minimum(self, read_under_load):
        assert read_under_load("a", self.LOADS, 8)[0] == "b"

    def test_least_loaded_first_on_ties(self, read_under_load):
        assert read_under_load("c", {"a": 2, "b": 2, "c": 2}, 2)[0] == "a"

    def test_least_loaded_requires_replicas(self, sim):
        # No live replica to shed to or from: the read is refused.
        controller = ClusterController(sim, ClusterConfig(
            shed_inflight_watermark=1))
        controller.add_machines(2)
        controller.create_database("kv", KV_DDL)
        controller.bulk_load("kv", "kv", [(0, 0)])
        for machine in controller.machines.values():
            machine.fail()
        conn = controller.connect("kv")
        proc = conn.execute("SELECT v FROM kv WHERE k = 0")
        proc.defused = True
        sim.run()
        assert not proc.ok
        assert "no live replica" in str(proc.value)

    def test_under_watermark_keeps_preferred(self, read_under_load):
        served, sheds = read_under_load("c", self.LOADS, 8)
        assert (served, sheds) == ("c", [])

    def test_over_watermark_spills_to_least_loaded(self, read_under_load):
        served, sheds = read_under_load("a", self.LOADS, 8)
        assert served == "b"
        assert [(e.machine, e.extra["load"]) for e in sheds] == [("b", 3)]

    def test_zero_watermark_disables_shedding(self, read_under_load):
        assert read_under_load("a", self.LOADS, 0) == ("a", [])

    def test_all_over_watermark_still_serves(self, read_under_load):
        # The fairness regression: when every replica is over the
        # watermark, the least-loaded one serves — shedding must never
        # become unavailability.
        loads = {"a": 9, "b": 12, "c": 15}
        assert read_under_load("a", loads, 8) == ("a", [])
        served, sheds = read_under_load("c", loads, 8)
        assert served == "a" and len(sheds) == 1

    @pytest.mark.parametrize("policy", list(WritePolicy))
    def test_shed_check_makes_the_reference_choices(self, read_under_load,
                                                    policy):
        """Over the whole table, every preferred replica and watermark,
        the shed check serves from the replica the routing helpers chose
        (the aggressive policy never sheds: Theorem 1)."""
        for counts in self.LOAD_TABLE:
            loads = dict(zip("abc", counts))
            for watermark in (0, 1, 8, 10):
                for preferred in "abc":
                    expected = preferred
                    if policy is WritePolicy.CONSERVATIVE:
                        expected = reference_choice(preferred, "abc", loads,
                                                    watermark)
                    served, sheds = read_under_load(preferred, loads,
                                                    watermark, policy)
                    assert served == expected, (counts, watermark, preferred)
                    assert len(sheds) == (expected != preferred)


# -- machine load signals ----------------------------------------------------


class TestMachineLoadSignals:
    def test_fresh_machine_is_idle(self):
        machine = Machine(Simulator(), "m1", ClusterConfig().machine)
        assert machine.inflight == 0
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
