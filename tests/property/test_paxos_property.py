"""Property test: multi-Paxos safety under seeded message chaos.

Satellite 3. A chaos transport drops, duplicates, and reorders every
consensus message with seeded randomness while a driver keeps proposing
commands and the leader is crashed and repaired mid-run. Whatever the
schedule, the group must preserve:

* **single/multi-decree safety** — no two replicas ever choose
  different commands for the same log index;
* **log agreement** — once the chaos stops, every replica converges to
  the same applied prefix and the same replayed state;
* **determinism** — the same seed reproduces the identical outcome,
  message drops and all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.consensus import (ConsensusConfig, PaxosGroup,
                                     command_digest)
from repro.errors import NotLeaderError
from repro.sim import Simulator
from repro.sim.rng import SeededRNG


class ChaosTransport:
    """Seeded drop / duplication / random-delay (reordering) transport.

    Unlike the fabric there is no FIFO clamp: two messages on the same
    link can overtake each other, which is exactly the reordering the
    Paxos safety argument must survive.
    """

    def __init__(self, sim, seed, drop_p=0.1, dup_p=0.1, max_delay_s=0.05):
        self.sim = sim
        self.rng = SeededRNG(seed).fork("chaos-transport")
        self.drop_p = drop_p
        self.dup_p = dup_p
        self.max_delay_s = max_delay_s

    def send(self, group, src, dst, msg):
        if self.rng.uniform(0.0, 1.0) < self.drop_p:
            return
        copies = 2 if self.rng.uniform(0.0, 1.0) < self.dup_p else 1
        for _ in range(copies):
            delay = self.rng.uniform(0.0005, self.max_delay_s)
            proc = self.sim.process(self._deliver(group, dst, dict(msg),
                                                  delay))
            proc.defused = True

    def _deliver(self, group, dst, msg, delay):
        yield self.sim.timeout(delay)
        group.enqueue(dst, msg)


def run_chaos(seed, drop_p, n_nodes, commands=10, crash_leader=True):
    """One seeded chaos run; returns a canonical outcome fingerprint."""
    sim = Simulator()
    transport = ChaosTransport(sim, seed=seed, drop_p=drop_p,
                               dup_p=min(0.2, drop_p + 0.05))
    names = [f"ctl{i}" for i in range(n_nodes)]
    group = PaxosGroup(sim, names, config=ConsensusConfig(seed=seed),
                       transport=transport)
    group.start()

    proposed = []

    def driver():
        i = 0
        while i < commands:
            leader = group.leader()
            if leader is None:
                yield sim.timeout(0.2)
                continue
            cmd = ("decision", {"txn": i, "decision": "commit",
                                "machines": [f"m{i}"]})
            try:
                yield from group.propose(leader, cmd, timeout_s=2.0)
            except NotLeaderError:
                yield sim.timeout(0.2)
                continue
            proposed.append(i)
            i += 1

    def chaos_monkey():
        # Crash whoever leads mid-run, repair them a little later: the
        # proposals must span at least one leader change.
        yield sim.timeout(3.0)
        leader = group.leader()
        if leader is not None:
            group.crash(leader.name)
            yield sim.timeout(2.0)
            group.repair(leader.name)

    drv = sim.process(driver())
    drv.defused = True
    if crash_leader:
        monkey = sim.process(chaos_monkey())
        monkey.defused = True
    sim.run(until=30.0)

    # -- safety while the chaos was live --------------------------------------
    per_index = {}
    for node in group.nodes.values():
        for index, cmd in node.chosen.items():
            digest = command_digest(*cmd)
            prior = per_index.setdefault(index, (digest, node.name))
            assert prior[0] == digest, (
                f"seed={seed}: index {index} chosen as {digest} on "
                f"{node.name} but {prior[0]} on {prior[1]}")

    # -- convergence once the chaos stops -------------------------------------
    transport.drop_p = 0.0
    transport.dup_p = 0.0
    sim.run(until=45.0)
    applied = {node.name: node.applied_to for node in group.nodes.values()}
    assert len(set(applied.values())) == 1, f"seed={seed}: {applied}"
    states = [node.state.decisions for node in group.nodes.values()]
    assert all(s == states[0] for s in states), f"seed={seed}: {states}"
    chosen_logs = [node.chosen for node in group.nodes.values()]
    assert all(log == chosen_logs[0] for log in chosen_logs)
    # Every driver-confirmed command is in the converged log.
    landed = {cmd[1]["txn"] for cmd in chosen_logs[0].values()
              if cmd[0] == "decision"}
    assert set(proposed) <= landed

    fingerprint = tuple(
        (index, command_digest(*chosen_logs[0][index]))
        for index in sorted(chosen_logs[0]))
    return (fingerprint, group.last_leader, max(applied.values()))


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       drop_p=st.sampled_from([0.0, 0.05, 0.15, 0.3]),
       n_nodes=st.sampled_from([3, 5]))
def test_multi_decree_safety_under_message_chaos(seed, drop_p, n_nodes):
    run_chaos(seed, drop_p, n_nodes)


@settings(deadline=None, max_examples=5)
@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_same_seed_reproduces_identical_outcome(seed):
    first = run_chaos(seed, drop_p=0.2, n_nodes=3)
    second = run_chaos(seed, drop_p=0.2, n_nodes=3)
    assert first == second


def test_single_decree_uniqueness_under_heavy_loss():
    """One command, brutal loss: it may take many retransmits, but the
    chosen value for index 1 is unique on every replica that has it."""
    for seed in range(5):
        run_chaos(seed, drop_p=0.4, n_nodes=3, commands=1,
                  crash_leader=False)
