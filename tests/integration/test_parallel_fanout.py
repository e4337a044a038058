"""Parallel 2PC fan-out: correctness and latency of the commit path.

Three angles on the scatter/gather coordinator:

* the full Table 1 serializability matrix still holds when every
  broadcast is issued concurrently over the fabric;
* presumed-abort is decided from the *complete* set of branch
  outcomes — a PREPARE timeout on one participant aborts the
  transaction even though a later-ordered participant answered first;
* the latency shape is right: with one-way fabric latency L and
  replication factor R, a phase costs one round trip (~2L), not the
  R * 2L a coordinator contacting one replica at a time would pay.
"""

import pytest

from repro.analysis import check_one_copy_serializable
from repro.cluster import (ClusterConfig, ClusterController, ReadOption,
                           WritePolicy)
from repro.cluster.controller import TransactionAborted
from repro.cluster.network import CONTROLLER, NetworkConfig
from repro.harness import experiments, run_scenario
from repro.sim import Simulator
from tests.conftest import assert_no_violations, read_table
from tests.integration.test_serializability_matrix import (
    ANOMALOUS_COMBOS, SERIALIZABLE_COMBOS, stress)


def build_fabric(option, policy, machines=2, keys=2, latency_s=0.001):
    sim = Simulator()
    config = ClusterConfig(
        read_option=option, write_policy=policy, record_history=True,
        lock_wait_timeout_s=1.0,
        network=NetworkConfig(enabled=True, latency_s=latency_s, seed=7))
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    controller.create_database(
        "app", ["CREATE TABLE kv (k VARCHAR(8) PRIMARY KEY, v INTEGER)"],
        replicas=2)
    controller.bulk_load("app", "kv",
                         [(f"k{i}", 0) for i in range(keys)])
    return sim, controller


class TestMatrixUnderParallelFanout:
    """Table 1 holds with concurrent broadcasts over the fabric.

    The randomized stress workload (rather than the two-transaction
    adversarial pair) keeps every combination non-vacuous: under
    fabric latency the adversarial pair deadlocks outright for the
    option-2/3 conservative cells.
    """

    @pytest.mark.parametrize("option,policy", SERIALIZABLE_COMBOS)
    def test_serializable_combinations(self, option, policy):
        sim, controller = build_fabric(option, policy, keys=4)
        stress(sim, controller, seed=2)
        ok, cycle = check_one_copy_serializable(controller.history)
        assert ok, f"unexpected cycle {cycle} for {option}/{policy}"
        assert controller.metrics.total_committed() > 0
        assert controller.metrics.fanouts["prepare"].count >= 1
        assert_no_violations(controller, strict=True)

    @pytest.mark.parametrize("option,policy", ANOMALOUS_COMBOS)
    def test_anomalous_combinations_produce_cycle(self, option, policy):
        sim, controller = build_fabric(option, policy, keys=4)
        stress(sim, controller, seed=2)
        ok, cycle = check_one_copy_serializable(controller.history)
        assert not ok, f"{option}/{policy} should not be serializable"
        assert cycle is not None


class TestPrepareTimeoutAborts:
    def test_any_branch_timeout_aborts_despite_faster_success(self):
        # Cut the first-sorted participant's *reply* link after the
        # write lands: it receives and acks PREPARE locally, but the
        # ack never reaches the coordinator, so its branch times out
        # while the other participant's branch prepares almost
        # immediately. The decision must still be abort — silence from
        # a live replica leaves its branch outcome unknown.
        sim, controller = build_fabric(ReadOption.OPTION_1,
                                       WritePolicy.CONSERVATIVE)
        replicas = sorted(controller.replica_map.replicas("app"))
        slow, fast = replicas[0], replicas[1]

        outcome = {}

        def client():
            conn = controller.connect("app")
            yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                               ("k0",))
            controller.fabric.cut(slow, CONTROLLER, symmetric=False)
            try:
                yield conn.commit()
                outcome["committed"] = True
            except TransactionAborted:
                outcome["aborted"] = True
            conn.close()

        proc = sim.process(client())
        proc.defused = True
        sim.run(until=30.0)

        assert outcome == {"aborted": True}
        # The fast participant prepared first; the slow one never
        # answered — and the complete set of outcomes decided abort.
        prepares = controller.trace.events(kind="prepare")
        assert any(e.machine == fast for e in prepares)
        failed = controller.trace.events(kind="prepare_failed")
        assert any(e.machine == slow for e in failed)
        # No replica kept the write, the prepared branch included: the
        # abort crossed the intact controller->slow direction and
        # rolled the prepared branch back.
        for name in replicas:
            assert read_table(controller, name, "app",
                              "SELECT v FROM kv WHERE k = 'k0'") == [(0,)]
        assert_no_violations(controller)


class TestPhaseLatencyShape:
    """One round trip per phase, not ``replication_factor`` of them."""

    LATENCY = 0.01

    @pytest.mark.parametrize("policy", [WritePolicy.AGGRESSIVE,
                                        WritePolicy.CONSERVATIVE])
    def test_phase_is_one_round_trip(self, policy):
        run = run_scenario(experiments.commit_latency(
            replicas=3, write_policy=policy,
            latency_s=self.LATENCY, transactions_per_client=10))
        result = experiments.commit_latency_report(run)
        assert result.committed > 0
        assert result.round_trip_s == 2 * self.LATENCY
        assert result.serial_phase_s == 3 * result.round_trip_s
        # 2L + engine flush: at least the round trip, and with headroom
        # well under 3L — let alone the serial coordinator's 6L.
        for phase in ("prepare", "commit"):
            assert (result.round_trip_s <= result.p50(phase)
                    < 3 * self.LATENCY), (
                f"{phase} p50 {result.p50(phase)} not ~one round trip")
        assert_no_violations(run.controller)
