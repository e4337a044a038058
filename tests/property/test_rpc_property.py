"""Property test: the RPC state machine against the generator RPC it replaced.

``repro.cluster.controller._Rpc`` is a callback state machine over
``fabric.post``; ``tests/oracles/generator_rpc.py`` is the generator RPC
(one coordinator process, a ``settled`` relay, an ``AnyOf`` and a deadline
per attempt) the controller ran before. Hypothesis scripts a scenario — a
lone call through ``RpcLayer.send`` (what a read statement waits on) or a
fan-out of one to three branches, each started by the same ``send`` (as
``_Gather`` starts them), per-branch body durations on both sides of the deadline
(some bodies raise), 0–4 retries, a drop probability, and cuts / heals /
``fail`` / ``fence`` at scripted instants — and runs it in two same-seed
sims. Both must give every branch the same outcome (value, or exception
type and message: the timeout message carries the attempt count), the same
settle instant, the same fabric counters (messages sent / dropped / cut,
timeouts, retransmissions), at most one execution per message id, and a
schedule that is empty again once everything settled.

Fan-outs replace the fabric's random stream by a constant and drop
nothing at random: when two branches of one fan-out reach ``started +
timeout`` in the same instant, the generator RPC resumed through an
``AnyOf`` hop and the state machine does not, so the two draw their backoff
jitter in a different order. That is a tie-break, not behaviour; lone
calls keep the seeded stream, random drops included.

The state machine's requests also carry the closed-transaction watermark
(DESIGN §4q), which the generator RPC never had: each call's transaction
is open, as the coordinator holds it, until the call settles, and closes
then — so the later requests of its siblings tell the machines to forget
it. That must change nothing the differential compares.

``test_mutants_are_caught`` breaks the state machine three ways and
requires the differential to notice each.
"""

from functools import partial

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterController
from repro.cluster import controller as controller_module
from repro.cluster.controller import (OK, REFUSED, SILENT, _Gather, _Rpc,
                                      _TxnState)
from repro.cluster.network import CONTROLLER
from repro.errors import DeadlockError
from repro.sim import Simulator
from repro.workloads.microbench import KV_DDL
from tests.oracles.generator_rpc import GeneratorRpc

MACHINES = 3
LATENCY_S = 0.003
#: Body durations: instant, well inside either deadline, between the two,
#: and beyond both (the last also outlives a retransmission or two).
DURATIONS = [0.0, 0.013, 0.11, 0.31, 0.77, 1.9]
TIMEOUTS = [0.2, 0.5]

#: Scripted instants sit on an odd grid so none coincides with an arrival,
#: a completion or a deadline (all sums of round numbers).
instants = st.integers(min_value=0, max_value=400).map(
    lambda k: 0.00041 + k * 0.0173)
actions = st.one_of(
    st.tuples(instants, st.sampled_from(["cut", "heal"]),
              st.integers(0, MACHINES - 1),
              st.sampled_from(["request", "reply", "both"])),
    st.tuples(instants, st.sampled_from(["fail", "fence"]),
              st.integers(0, MACHINES - 1), st.just("")),
)
branches = st.tuples(st.sampled_from(DURATIONS), st.booleans())
scenarios = st.fixed_dictionaries({
    "seed": st.integers(0, 50),
    "lone": st.booleans(),
    "drop_p": st.sampled_from([0.0, 0.0, 0.2, 0.5]),
    "timeout": st.sampled_from(TIMEOUTS),
    "retries": st.integers(0, 4),
    "branches": st.lists(branches, min_size=1, max_size=MACHINES),
    "script": st.lists(actions, max_size=5),
})


class _ConstantStream:
    def random(self):
        return 0.5


def run_scenario(scenario, new, rpc_class=_Rpc):
    """Run ``scenario`` on one implementation; returns what is compared."""
    saved = controller_module._Rpc, controller_module.RPC_TIMEOUT_S
    controller_module._Rpc = rpc_class
    controller_module.RPC_TIMEOUT_S = scenario["timeout"]
    try:
        return _run_scenario(scenario, new)
    finally:
        controller_module._Rpc, controller_module.RPC_TIMEOUT_S = saved


def _run_scenario(scenario, new):
    lone = scenario["lone"] or len(scenario["branches"]) == 1
    sim = Simulator()
    config = ClusterConfig()
    net = config.network
    net.enabled = True
    net.latency_s = LATENCY_S
    net.seed = scenario["seed"]
    net.drop_probability = scenario["drop_p"] if lone else 0.0
    controller = ClusterController(sim, config)
    machines = controller.add_machines(MACHINES)
    fabric = controller.fabric
    if not lone:
        fabric.rng = _ConstantStream()
    rpc = controller.txns.rpc
    reference = GeneratorRpc(rpc)
    # Transactions 1-99 came and went; 100.. are the calls below.
    rpc.low = rpc.next_txn_id = 100
    executions = {}
    settled = {}

    def make_body(index, machine):
        duration, raises = scenario["branches"][index]
        executions[index] = executions.get(index, 0) + 1
        if duration:
            yield sim.timeout(duration)
        if raises:
            raise DeadlockError(f"branch {index}")
        return f"value {index} from {machine.name}"

    def script():
        for at, kind, target, leg in sorted(scenario["script"]):
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            machine = machines[target]
            if kind in ("cut", "heal"):
                change = getattr(fabric, kind)
                if leg in ("request", "both"):
                    change(CONTROLLER, machine.name, symmetric=False)
                if leg in ("reply", "both"):
                    change(machine.name, CONTROLLER, symmetric=False)
            else:
                getattr(machine, kind)()

    scripted = sim.process(script())

    def observe(index, event):
        def on_settled(ev):
            value = ev.value
            settled[index] = (
                sim.now, ev.ok,
                value if ev.ok else (type(value).__name__, str(value)),
                # Settle order, and the live schedule entries at that
                # point besides the script's own sleep.
                len(settled), sim.pending - scripted.is_alive)
            rpc.release(100 + index)
        event.defused = True
        event.add_callback(on_settled)

    count = 1 if lone else len(scenario["branches"])
    for index in range(count):
        machine = machines[index]
        body = partial(make_body, index)
        call = dict(txn_id=rpc.begin(), label=f"op{index}",
                    retries=scenario["retries"])
        if not new:
            observe(index, sim.process(reference._rpc(
                machine, partial(body, machine), **call)))
        else:
            observe(index, controller.txns.rpc.send(
                machine, body, call["txn_id"], call["label"],
                retries=call["retries"]))
    sim.run()
    assert all(n <= 1 for n in executions.values()), executions
    assert rpc.open == {} and rpc.low == 100 + count
    for machine in machines:
        # What a machine still remembers, it was never told to forget.
        assert all(txn_id >= machine.closed_below
                   for txn_id in machine._rpc_cache)
    network = controller.metrics.network
    return {
        "settled": settled,
        "executions": executions,
        "counters": (network.messages_sent, network.messages_dropped,
                     network.messages_cut, network.rpc_timeouts,
                     network.rpc_retries),
        "links": {link: (s.sent, s.dropped, s.cut_dropped)
                  for link, s in fabric.link_stats.items()},
    }


def assert_same(scenario, rpc_class=_Rpc):
    expected = run_scenario(scenario, new=False)
    actual = run_scenario(scenario, new=True, rpc_class=rpc_class)
    assert len(actual["settled"]) == len(expected["settled"]) > 0
    for index, theirs in expected["settled"].items():
        ours = actual["settled"][index]
        # Outcome and settle instant; the schedule is compared below.
        assert ours[:3] == theirs[:3], (index, ours, theirs)
    assert actual["executions"] == expected["executions"]
    assert actual["counters"] == expected["counters"]
    assert actual["links"] == expected["links"]
    if not any(value[0] == "RPCTimeoutError"
               for _, ok, value, _, _ in actual["settled"].values() if not ok):
        # Every machine answered, so every machine process is done: when
        # the last call settles, the schedule is back at its background
        # level — no deadline was left on the heap.
        last = max(actual["settled"].values(), key=lambda s: s[3])
        assert last[4] == 0, last


@settings(max_examples=300, deadline=None)
@given(scenarios)
def test_matches_the_generator_rpc(scenario):
    assert_same(scenario)


def test_fan_out_through_the_controller_gathers_the_same_outcomes(
        monkeypatch):
    """``_Gather`` end to end over the fabric: one branch answers, one is
    cut off and times out, one raises — the classified outcomes say so,
    each stamped when it settled."""
    sim = Simulator()
    config = ClusterConfig(replication_factor=MACHINES)
    config.network.enabled = True
    monkeypatch.setattr(controller_module, "RPC_TIMEOUT_S", 0.2)
    controller = ClusterController(sim, config)
    names = [m.name for m in controller.add_machines(MACHINES)]
    controller.create_database("kv", KV_DDL, machines=names)
    controller.fabric.cut(CONTROLLER, names[1])

    def make_body(machine):
        yield sim.timeout(0.01)
        if machine.name == names[2]:
            raise DeadlockError("refused")
        return machine.name

    gather = _Gather(controller.txns, _TxnState(1, "kv", 0.0), names,
                     make_body, "prepare", retries=1)
    sim.run()
    ok, refused, silent = gather.value      # in settle order
    assert ok == (names[0], OK, names[0])
    assert refused[:2] == (names[2], REFUSED)
    assert isinstance(refused[2], DeadlockError)
    assert silent[:2] == (names[1], SILENT)
    assert "after 2 attempts" in str(silent[2])
    answered = pytest.approx(0.01 + 2 * 0.0001)
    traced = [(e.kind, e.machine, e.t) for e in controller.trace.events()
              if e.kind.startswith("prepare")]
    assert traced[:2] == [("prepare", names[0], answered),
                          ("prepare_failed", names[2], answered)]
    assert traced[2][:2] == ("prepare_failed", names[1]) and traced[2][2] > 0.4
    assert controller.metrics.fanouts["prepare"].count == 1
    assert controller.metrics.phase_latencies["branch:prepare"].count == 3
    assert sim.pending == 0


class _FirstAnswerWins(_Rpc):
    """Mutant base: settling twice is ignored instead of tripping the
    kernel, so each mutant below is caught by what the differential
    compares, not by a ``SimulationError``."""

    def succeed(self, value=None):
        return self if self.triggered else super().succeed(value)

    def fail(self, exception):
        return self if self.triggered else super().fail(exception)


class DeadlineLeftArmed(_FirstAnswerWins):
    """Does not cancel the deadline when the machine answers in time."""

    def _on_done(self, proc):
        if self.deadline is not None:
            self.deadline = None
            self._reply()


class LateCompletionAccepted(_FirstAnswerWins):
    """Takes the completion of an attempt that already timed out."""

    def _on_done(self, proc):
        if self.deadline is not None:
            self.deadline.cancel()
            self.deadline = None
        self._reply()


class FencedMachineReplies(_FirstAnswerWins):
    """Lets a machine that was fenced while executing post its reply."""

    def _reply(self):
        self.ctl.fabric.post(self.machine.name, CONTROLLER, self._on_reply)


def diverges(rpc_class, scenario):
    try:
        assert_same(scenario, rpc_class)
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("broken", [DeadlineLeftArmed, LateCompletionAccepted,
                                    FencedMachineReplies])
def test_mutants_are_caught(broken):
    scenario = find(scenarios, lambda s: diverges(broken, s),
                    settings=settings(max_examples=3000, deadline=None,
                                      derandomize=True, database=None))
    assert not diverges(_Rpc, scenario)
