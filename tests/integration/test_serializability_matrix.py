"""Table 1 as executable assertions.

Runs the paper's adversarial T1/T2 workload through the cluster under
every (read option, write policy) combination and checks one-copy
serializability with the global serialization graph — plus randomized
stress runs and the release-locks-at-PREPARE ablation.
"""

import pytest

from repro.analysis import check_one_copy_serializable
from repro.cluster import ClusterConfig, ClusterController, ReadOption, WritePolicy
from repro.cluster.controller import TransactionAborted
from repro.engine import engine as engine_module
from repro.sim import Simulator
from repro.sim.rng import SeededRNG
from tests.conftest import assert_no_violations


def build(option, policy, machines=2, keys=2):
    sim = Simulator()
    config = ClusterConfig(read_option=option, write_policy=policy,
                           record_history=True, lock_wait_timeout_s=1.0)
    controller = ClusterController(sim, config)
    controller.add_machines(machines)
    controller.create_database(
        "app", ["CREATE TABLE kv (k VARCHAR(8) PRIMARY KEY, v INTEGER)"],
        replicas=2)
    controller.bulk_load("app", "kv",
                         [(f"k{i}", 0) for i in range(keys)])
    return sim, controller


def adversarial_pair(sim, controller):
    """The paper's example: T1 r(x) w(y); T2 r(y) w(x)."""
    def txn(read_key, write_key):
        conn = controller.connect("app")
        try:
            yield conn.execute("SELECT v FROM kv WHERE k = ?", (read_key,))
            yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                               (write_key,))
            yield conn.commit()
        except TransactionAborted:
            pass

    sim.process(txn("k0", "k1"))
    sim.process(txn("k1", "k0"))
    sim.run()


def stress(sim, controller, clients=6, txns=8, keys=4, seed=0):
    """Randomized read/write transactions over a small key space."""
    def client(cid):
        rng = SeededRNG(seed).fork(f"c{cid}")
        conn = controller.connect("app")
        for _ in range(txns):
            try:
                for _ in range(2):
                    yield conn.execute("SELECT v FROM kv WHERE k = ?",
                                       (f"k{rng.randint(0, keys - 1)}",))
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                   (f"k{rng.randint(0, keys - 1)}",))
                yield conn.commit()
            except TransactionAborted:
                pass
            yield sim.timeout(rng.uniform(0, 0.002))

    for cid in range(clients):
        sim.process(client(cid))
    sim.run()


SERIALIZABLE_COMBOS = [
    (ReadOption.OPTION_1, WritePolicy.CONSERVATIVE),
    (ReadOption.OPTION_1, WritePolicy.AGGRESSIVE),
    (ReadOption.OPTION_2, WritePolicy.CONSERVATIVE),
    (ReadOption.OPTION_3, WritePolicy.CONSERVATIVE),
]

ANOMALOUS_COMBOS = [
    (ReadOption.OPTION_2, WritePolicy.AGGRESSIVE),
    (ReadOption.OPTION_3, WritePolicy.AGGRESSIVE),
]


class TestAdversarialPair:
    @pytest.mark.parametrize("option,policy", SERIALIZABLE_COMBOS)
    def test_serializable_combinations(self, option, policy):
        sim, controller = build(option, policy)
        adversarial_pair(sim, controller)
        ok, cycle = check_one_copy_serializable(controller.history)
        assert ok, f"unexpected cycle {cycle} for {option}/{policy}"
        assert_no_violations(controller, strict=True)

    @pytest.mark.parametrize("option,policy", ANOMALOUS_COMBOS)
    def test_anomalous_combinations_produce_cycle(self, option, policy):
        sim, controller = build(option, policy)
        adversarial_pair(sim, controller)
        ok, cycle = check_one_copy_serializable(controller.history)
        assert not ok, f"{option}/{policy} should not be serializable"
        assert cycle is not None

    @pytest.mark.parametrize("option,policy", ANOMALOUS_COMBOS)
    def test_disabling_prepare_optimization_restores_safety(
            self, option, policy, monkeypatch):
        monkeypatch.setattr(engine_module, "RELEASE_READ_LOCKS_AT_PREPARE",
                            False)
        sim, controller = build(option, policy)
        adversarial_pair(sim, controller)
        ok, _ = check_one_copy_serializable(controller.history)
        assert ok


class TestRandomizedStress:
    @pytest.mark.parametrize("option,policy", SERIALIZABLE_COMBOS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_serializable_under_stress(self, option, policy, seed):
        sim, controller = build(option, policy, keys=4)
        stress(sim, controller, seed=seed)
        ok, cycle = check_one_copy_serializable(controller.history)
        assert ok, f"cycle {cycle} for {option}/{policy} seed {seed}"
        assert_no_violations(controller, strict=True)

    def test_aggressive_option2_stress_eventually_breaks(self):
        # At least one seed must surface the anomaly — the paper's claim
        # is that it *can* happen, not that it always does.
        broken = 0
        for seed in range(8):
            sim, controller = build(ReadOption.OPTION_2,
                                    WritePolicy.AGGRESSIVE, keys=2)
            stress(sim, controller, clients=6, txns=6, keys=2, seed=seed)
            ok, _ = check_one_copy_serializable(controller.history)
            if not ok:
                broken += 1
        assert broken >= 1

    def test_replicas_converge_under_conservative(self):
        sim, controller = build(ReadOption.OPTION_3,
                                WritePolicy.CONSERVATIVE, keys=4)
        stress(sim, controller, seed=9)
        replicas = controller.replica_map.replicas("app")
        states = []
        for name in replicas:
            engine = controller.machines[name].engine
            txn = engine.begin()
            states.append(engine.execute_sync(
                txn, "app", "SELECT k, v FROM kv ORDER BY k").rows)
            engine.commit(txn)
        assert states[0] == states[1]
