"""Unit tests for the simulated network fabric.

Covers FIFO delivery, random loss, cuts/heals/splits, determinism of
the seeded randomness, retry backoff bounds, and the partition-checked
bulk-transfer stream used by recovery copies.
"""

import pytest

from repro.cluster.network import (CONTROLLER, NetworkConfig,
                                   NetworkFabric, NetworkPartitionedError)
from repro.sim import Simulator


def make_fabric(sim, **kwargs):
    kwargs.setdefault("enabled", True)
    return NetworkFabric(sim, NetworkConfig(**kwargs))


def deliver(sim, fabric, src, dst, log, tag):
    """Spawn a process sending one message; append (tag, t, ok) on arrival."""

    def proc():
        ok = yield from fabric.deliver(src, dst)
        log.append((tag, sim.now, ok))

    return sim.process(proc())


class TestDelivery:
    def test_reliable_link_delivers_after_latency(self):
        sim = Simulator()
        fabric = make_fabric(sim, latency_s=0.01)
        log = []
        deliver(sim, fabric, CONTROLLER, "m1", log, 0)
        sim.run()
        assert log == [(0, pytest.approx(0.01), True)]

    def test_fifo_messages_never_overtake(self):
        # Jitter larger than the mean could reorder arrivals; the FIFO
        # clamp must keep same-link deliveries in send order.
        sim = Simulator()
        fabric = make_fabric(sim, latency_s=0.01, jitter_s=0.009, seed=7)
        log = []
        for i in range(50):
            deliver(sim, fabric, CONTROLLER, "m1", log, i)
        sim.run()
        assert [tag for tag, _, _ in log] == list(range(50))
        times = [t for _, t, _ in log]
        assert times == sorted(times)

    def test_drop_probability_loses_messages(self):
        sim = Simulator()
        fabric = make_fabric(sim, drop_probability=1.0)
        log = []
        deliver(sim, fabric, CONTROLLER, "m1", log, 0)
        sim.run()
        assert log[0][2] is False
        assert fabric.link_stats[(CONTROLLER, "m1")].dropped == 1

    def test_lost_message_still_consumes_latency(self):
        sim = Simulator()
        fabric = make_fabric(sim, latency_s=0.02, drop_probability=1.0)
        log = []
        deliver(sim, fabric, CONTROLLER, "m1", log, 0)
        sim.run()
        assert log == [(0, pytest.approx(0.02), False)]


class TestPartitions:
    def test_cut_blocks_and_heal_restores(self):
        sim = Simulator()
        fabric = make_fabric(sim)
        fabric.cut(CONTROLLER, "m1")
        log = []
        deliver(sim, fabric, CONTROLLER, "m1", log, "cut")
        sim.run()
        assert log[0][2] is False
        assert fabric.link_stats[(CONTROLLER, "m1")].cut_dropped == 1
        fabric.heal(CONTROLLER, "m1")
        deliver(sim, fabric, CONTROLLER, "m1", log, "healed")
        sim.run()
        assert log[1][2] is True

    def test_cut_is_symmetric_by_default(self):
        sim = Simulator()
        fabric = make_fabric(sim)
        fabric.cut(CONTROLLER, "m1")
        assert not fabric.connected(CONTROLLER, "m1")
        assert not fabric.connected("m1", CONTROLLER)

    def test_asymmetric_cut(self):
        sim = Simulator()
        fabric = make_fabric(sim)
        fabric.cut(CONTROLLER, "m1", symmetric=False)
        assert not fabric.connected(CONTROLLER, "m1")
        assert fabric.connected("m1", CONTROLLER)

    def test_split_isolates_groups_not_members(self):
        sim = Simulator()
        fabric = make_fabric(sim)
        fabric.split([[CONTROLLER, "m1"], ["m2", "m3"]])
        assert fabric.connected(CONTROLLER, "m1")
        assert fabric.connected("m2", "m3")
        for a in (CONTROLLER, "m1"):
            for b in ("m2", "m3"):
                assert not fabric.connected(a, b)
                assert not fabric.connected(b, a)

    def test_heal_all_clears_every_cut(self):
        sim = Simulator()
        fabric = make_fabric(sim)
        fabric.split([[CONTROLLER], ["m1", "m2"]])
        fabric.cut("m3", CONTROLLER)
        assert fabric.cut_links()
        fabric.heal_all()
        assert fabric.cut_links() == []


class TestDeterminism:
    def test_same_seed_same_outcomes(self):
        runs = []
        for _ in range(2):
            sim = Simulator()
            fabric = make_fabric(sim, latency_s=0.01, jitter_s=0.008,
                                 drop_probability=0.3, seed=42)
            log = []
            for i in range(40):
                deliver(sim, fabric, CONTROLLER, f"m{i % 3}", log, i)
            sim.run()
            runs.append(log)
        assert runs[0] == runs[1]

    def test_backoff_within_bounds_and_grows(self):
        sim = Simulator()
        fabric = make_fabric(sim, rpc_backoff_base_s=0.05,
                             rpc_backoff_max_s=1.0, seed=5)
        delays = [fabric.backoff_delay(attempt) for attempt in range(1, 8)]
        assert all(0 < d <= 1.0 for d in delays)
        # The deterministic cap doubles until it hits the maximum.
        caps = [min(1.0, 0.05 * 2 ** (a - 1)) for a in range(1, 8)]
        assert all(d <= cap for d, cap in zip(delays, caps))
        # A sender that never gives up stays at the maximum (2 ** 5000
        # would not fit a float).
        assert 0.5 <= fabric.backoff_delay(5000) <= 1.0


class TestTransfer:
    def test_transfer_completes_when_connected(self):
        sim = Simulator()
        fabric = make_fabric(sim, latency_s=0.0)
        proc = sim.process(fabric.transfer(CONTROLLER, "m1", 0.5))
        sim.run()
        assert proc.ok

    def test_copy_gate_raises_when_cut(self):
        sim = Simulator()
        fabric = make_fabric(sim)
        fabric.cut(CONTROLLER, "m1")
        with pytest.raises(NetworkPartitionedError):
            fabric.copy_gate(CONTROLLER, "m1")

    def test_transfer_fails_when_cut_midflight(self):
        sim = Simulator()
        fabric = make_fabric(sim, latency_s=0.0)
        proc = sim.process(fabric.transfer(CONTROLLER, "m1", 1.0))
        proc.defused = True

        def cutter():
            yield sim.timeout(0.5)
            fabric.cut(CONTROLLER, "m1")

        sim.process(cutter())
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, NetworkPartitionedError)
