"""Host-independent performance gate on the simulation kernel.

Wall-clock cannot be asserted on shared CI runners; exact counts can.
A small production-profile cluster (fabric with jitter, 3-node consensus,
admission, heartbeat detector; one KV database at RF 3) runs the
``kv_prod_write`` transaction shape of ``benchmarks/e2e`` — 2 SELECT +
2 UPDATE + commit through ``Connection`` — from four closed-loop clients,
pumped by a local ``step()`` loop.

* **Bounded schedule.** ``sim.pending`` tracks the work *in flight*: one
  transaction per client with at most three RPCs outstanding, plus the
  background loops. It does not grow with the commit rate or with
  ``rpc_timeout_s``, as it did when every answered RPC left its deadline
  timer on the heap until it expired (about 15 x commit rate x timeout
  entries: 1 580 / 2 860 / 3 501 in the three runs below, now 13 / 22 / 13).
* **Event budget.** Kernel steps per commit over a fixed window of
  transactions: an exact count that repeats per seed (223.19 before timers
  were dropped, 212.6 while a message was a process, 128.6 while a
  broadcast was relay events under an ``AllOf``). Run with ``-s`` to see
  the measured values.
* **Message and command budgets.** Fabric messages and consensus commands
  per commit over the same window, counted where ``benchmarks/e2e`` counts
  them (``metrics.network.messages_sent``, the acting replica's ``chosen``).
"""

import pytest

from repro.analysis.invariants import check_controller
from repro.cluster import ClusterConfig, ClusterController
from repro.cluster import controller as controller_module
from repro.sim import Simulator
from repro.sim.rng import SeededRNG
from repro.sla.model import Sla
from repro.workloads.microbench import KV_DDL

SEED = 7
CLIENTS = 4
REPLICAS = 3
KEYS = 400
SETTLE_S = 1.0          # bootstrap election
WARM_COMMITS = 40
WINDOW_COMMITS = 200
SAMPLE_EVERY = 50

#: Steps per commit measured at PR 24 (seed 7, the window above): 212.605
#: at PR 15; 128.635 at PR 20, less a coordinator process, a ``settled``
#: relay and an ``AnyOf`` per RPC, a process and an inbox wake-up per Paxos
#: message, and the whole ``decision_clear`` round of every commit; now
#: less the relay event per PREPARE / COMMIT branch and their ``AllOf``
#: (a broadcast is the one ``_Gather`` event: 4 -> 1 at RF 3, twice a
#: commit), while a write statement's gather replaces the deferred
#: callback its in-order walk cost whenever a later-issued replica had
#: answered first (1.17 a statement at RF 3): 122.585. Re-measured once
#: the metadata commands left the log: without the setup's ``db_create``
#: proposal the fabric's draws, and so the trajectory, moved.
STEPS_PER_COMMIT = 122.395
#: 28 RPC legs (7 round trips x 2; 3 of them to three replicas) and one
#: Paxos round of 6 (accept / accepted / decide to two followers), plus the
#: window's share of heartbeats and lease renewals: 34.1 measured.
MESSAGES_PER_COMMIT = 35
#: One ``decision`` per commit; clears ride on it. The slack is for a
#: batched ``decision_clear`` when the leader idles.
COMMANDS_PER_COMMIT = 1.05
#: Schedule entries one outstanding RPC may account for: the timer it is
#: currently waiting out (fabric hop, CPU, WAL flush) and either its
#: deadline or a ready entry handing its result to the coordinator.
ENTRIES_PER_RPC = 2


def run_cluster(think_s=0.01):
    """Returns (background pending, peak pending, steps/commit, controller,
    messages/commit, commands/commit)."""
    sim = Simulator()
    config = ClusterConfig(replication_factor=REPLICAS)
    config.network.enabled = True
    config.network.latency_s = 0.0005
    config.network.jitter_s = 0.0001
    config.network.seed = config.consensus.seed = SEED
    config.consensus.replicas = 3
    controller = ClusterController(sim, config)
    controller.add_machines(4)
    controller.create_database(
        "kv", KV_DDL, replicas=REPLICAS,
        sla=Sla(min_throughput_tps=2000.0, max_rejected_fraction=0.05))
    controller.bulk_load("kv", "kv", [(k, 0) for k in range(KEYS)])
    controller.start_failure_detector()
    commits = 0

    def client(cid):
        nonlocal commits
        rng = SeededRNG(SEED).fork(f"client-{cid}")
        yield sim.timeout(SETTLE_S + rng.uniform(0.0, think_s))
        conn = controller.connect("kv")

        def key():      # clients never share a row: no lock waits
            return rng.randint(0, KEYS // CLIENTS - 1) * CLIENTS + cid

        while True:
            for _ in range(2):
                yield conn.execute("SELECT v FROM kv WHERE k = ?", (key(),))
            for _ in range(2):
                yield conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                                   (key(),))
            yield conn.commit()
            commits += 1
            yield sim.timeout(rng.expovariate(1.0 / think_s))

    sim.run(until=SETTLE_S * 0.99)
    background = sim.pending
    for cid in range(CLIENTS):
        sim.process(client(cid))
    while commits < WARM_COMMITS:
        sim.step()
    steps, peak, next_sample = 0, 0, commits
    network, log = controller.metrics.network, controller.consensus
    messages, commands = network.messages_sent, len(log.acting_node.chosen)
    while commits < WARM_COMMITS + WINDOW_COMMITS:
        sim.step()
        steps += 1
        if commits >= next_sample:
            peak = max(peak, sim.pending)
            next_sample += SAMPLE_EVERY
    messages = network.messages_sent - messages
    commands = len(log.acting_node.chosen) - commands
    return (background, peak, steps / WINDOW_COMMITS, controller,
            messages / WINDOW_COMMITS, commands / WINDOW_COMMITS)


@pytest.fixture(scope="module")
def baseline():
    return run_cluster()


def test_schedule_is_bounded_by_work_in_flight(baseline, monkeypatch):
    runs = {
        "baseline": baseline,
        "think time / 10": run_cluster(think_s=0.001),
    }
    monkeypatch.setattr(controller_module, "RPC_TIMEOUT_S", 5.0)
    runs["RPC_TIMEOUT_S x 10"] = run_cluster()
    for label, (background, peak, *_) in runs.items():
        bound = background + CLIENTS * REPLICAS * ENTRIES_PER_RPC
        print(f"\n{label}: peak sim.pending {peak} "
              f"(background {background}, bound {bound})")
        assert 0 < peak <= bound, label


def test_steps_per_commit_within_budget(baseline):
    steps_per_commit = baseline[2]
    print(f"\nsteps per commit {steps_per_commit:.3f} "
          f"(budget {STEPS_PER_COMMIT} + 2 %)")
    assert steps_per_commit <= STEPS_PER_COMMIT * 1.02
    assert run_cluster()[2] == steps_per_commit     # repeats exactly


def test_messages_and_commands_per_commit_within_budget(baseline):
    messages, commands = baseline[4:]
    print(f"\nmessages per commit {messages:.3f} (ceiling "
          f"{MESSAGES_PER_COMMIT}), commands per commit {commands:.3f} "
          f"(ceiling {COMMANDS_PER_COMMIT})")
    assert 0 < messages <= MESSAGES_PER_COMMIT
    assert 1.0 <= commands <= COMMANDS_PER_COMMIT


def test_trace_passes_the_invariant_audit(baseline):
    violations = check_controller(baseline[3])
    assert not violations, "\n".join(str(v) for v in violations)
