"""Property test: any list of faults is safe to apply.

Whatever Hypothesis builds — any kinds, times in any order, overlapping
cuts and splits, out-of-range ranks, names nobody has — the applier on a
five-machine, fabric-on cluster with a Paxos group never raises, never
leaves fewer live machines than its floor, never fails the last live
replica of a database and never takes the group below its majority.
At every step the fabric's cut links are exactly those of the applied
cuts and splits whose heal has not been applied yet, so no link stays
cut after the last heal covering it. The same schedule run twice gives
the same trace, byte for byte.
"""

import hashlib
import io
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import production_profile
from repro.cluster.network import CONTROLLER
from repro.harness.faults import (CLOSES, EFFECTS, MIN_LIVE_MACHINES, Fault,
                                  apply)
from repro.sim import Simulator
from tests.conftest import make_kv_cluster

MACHINES = 5
NAMES = [f"cluster-m{i}" for i in range(1, MACHINES + 1)]
ENDPOINTS = st.sampled_from([CONTROLLER, "cluster-ctl0", "cluster-ctl1",
                             "nobody", *NAMES])
LAST_AT, UNTIL = 4.0, 6.0

ranks = st.integers(min_value=-8, max_value=8)
links = st.tuples(ENDPOINTS, ENDPOINTS, st.booleans())
groups = st.lists(st.lists(ENDPOINTS, max_size=3).map(tuple), min_size=2,
                  max_size=3).map(tuple)
machine = st.one_of(ranks, st.sampled_from(NAMES + ["nobody"]))
ctl = st.one_of(ranks, st.sampled_from(["leader", "cluster-ctl0",
                                        "cluster-ctl1", "nobody"]))
TARGETS = {"fail": machine, "crash": machine, "repair": machine,
           "cut": links, "split": groups, "heal": st.one_of(links, groups),
           "kill_ctl": ctl, "repair_ctl": ctl,
           "crash_colo": st.just("colo0"), "repair_colo": st.just("colo0")}
assert set(TARGETS) == set(EFFECTS)
times = st.floats(min_value=0.0, max_value=LAST_AT)
wild = st.one_of(st.none(), ranks, ENDPOINTS, links, groups,
                 st.lists(st.integers(), max_size=3))
faults = st.lists(st.one_of(
    st.sampled_from(sorted(TARGETS)).flatmap(
        lambda kind: st.builds(Fault, times, st.just(kind), TARGETS[kind])),
    st.builds(Fault, times,
              st.one_of(st.sampled_from(sorted(TARGETS)),
                        st.text(max_size=4)), wild)), max_size=20)


def covered(target):
    """The directed links an applied cut or split target holds cut."""
    if len(target) == 3 and isinstance(target[2], bool):
        a, b, symmetric = target
        return {(a, b), (b, a)} if symmetric else {(a, b)}
    return {link for i, group in enumerate(target)
            for other in target[i + 1:] for a in group for b in other
            for link in ((a, b), (b, a))}


def applied(schedule):
    """Apply ``schedule`` plus one closing heal per cut or split at the
    end, checking the floors and the cut links after every kernel step;
    returns the controller."""
    sim = Simulator()
    controller = make_kv_cluster(sim, machines=MACHINES,
                                 profile=production_profile(3))
    group = controller.consensus.group
    closers = [Fault(UNTIL - 0.5, CLOSES[f.kind], f.target)
               for f in schedule if f.kind in ("cut", "split")]
    log = apply(controller, schedule + closers)
    while sim.peek() <= UNTIL:
        sim.step()
        assert len(controller.live_machines()) >= MIN_LIVE_MACHINES
        assert controller.live_replicas("kv")
        assert sum(n.alive for n in group.nodes.values()) >= group.majority
        open_cuts = Counter()
        for entry in log:
            if entry.resolved is None:
                continue
            if entry.kind in ("cut", "split"):
                open_cuts[entry.target] += 1
            elif entry.kind == "heal":
                open_cuts[entry.target] -= 1
        expected = set().union(*(covered(target) for target, n
                                 in open_cuts.items() if n > 0))
        assert set(controller.fabric.cut_links()) == expected
    assert controller.fabric.cut_links() == []
    return controller


def trace_md5(controller):
    buffer = io.StringIO()
    controller.trace.dump_jsonl(buffer)
    return hashlib.md5(buffer.getvalue().encode()).hexdigest()


@settings(max_examples=100, deadline=None)
@given(schedule=faults)
def test_any_schedule_is_safe_and_replays(schedule):
    first = applied(schedule)
    assert len(first.trace.events("fault")) == len(schedule) + len(
        [f for f in schedule if f.kind in ("cut", "split")])
    assert trace_md5(first) == trace_md5(applied(schedule))
