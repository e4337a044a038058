"""Property test: the kernel dispatches exactly as a single heap would.

``repro.sim.core`` keeps same-instant events in a FIFO beside the heap and
drops timers nobody waits on; ``tests/oracles/heap_kernel.py`` is the
kernel it replaced — one heap keyed ``(time, eid)``, every event pushed and
dispatched. Hypothesis generates small programs over the public kernel API
only (processes, timeouts with zero / duplicate / sub-ulp delays,
``any_of`` / ``all_of`` over fresh timers, shared timers, plain events and
processes, events succeeded and failed from other processes, interrupts of
blocked and of not-yet-started processes, waiting again on a timer after
its race, unhandled failures, timers with a plain callback that are
cancelled — as are shared timers others sleep on and race losers — and
given a callback again). Each program runs on both kernels and must
produce the same sequence of ``(now, label, outcome)`` observations and the
same exceptions out of ``run()``.

Not compared, on purpose: the number of ``step()`` calls and where a fully
drained ``run()`` leaves the clock — a dropped timer takes no step and
moves no clock, which is the point of dropping it. Every run therefore
ends with ``run(until=HORIZON)``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import core as ready_kernel
from tests.oracles import heap_kernel

#: 1e-20 moves the clock from 0.0 but not from 1.0: both sides of the
#: "too small to advance the clock" corner.
DELAYS = [0, 0, 1e-20, 0.5, 1, 1, 2, 3]
SHARED_DELAYS = [1, 2, 2.5]
N_EVENTS = 3
HORIZON = 64.0

delays = st.sampled_from(DELAYS)
small = st.integers(min_value=0, max_value=3)
members = st.lists(
    st.one_of(st.tuples(st.just("timer"), delays),
              st.tuples(st.just("event"), small),
              st.tuples(st.just("shared"), small),
              st.tuples(st.just("proc"), small)),
    min_size=0, max_size=3)
ops = st.one_of(
    st.tuples(st.just("sleep"), delays),
    st.tuples(st.just("sleep_shared"), small),
    st.tuples(st.just("any"), members),
    st.tuples(st.just("all"), members),
    st.tuples(st.just("rewait"), small),
    st.tuples(st.just("wait"), small),
    st.tuples(st.just("succeed"), small),
    st.tuples(st.just("fail"), small),
    st.tuples(st.just("interrupt"), small),
    st.tuples(st.just("spawn"), delays, st.booleans()),
    st.tuples(st.just("post"), delays),
    st.tuples(st.just("cancel"), small),
    st.tuples(st.just("repost"), small),
    st.tuples(st.just("raise")),
)
programs = st.lists(st.lists(ops, min_size=0, max_size=6),
                    min_size=1, max_size=4)


def run_program(kernel, program):
    """Run ``program`` on ``kernel``; return (observations, raised)."""
    sim = kernel.Simulator()
    seen = []
    events = [sim.event() for _ in range(N_EVENTS)]
    shared = {}
    procs = []
    posted = []     # timers with a plain callback instead of a waiter

    def shared_timer(i):
        i %= len(SHARED_DELAYS)
        if i not in shared:
            shared[i] = sim.timeout(SHARED_DELAYS[i], f"shared{i}")
        return shared[i]

    def child(label, delay):
        try:
            yield sim.timeout(delay, f"{label}.nap")
        except kernel.Interrupt as exc:
            seen.append((sim.now, label, f"interrupted:{exc.cause}"))
        return label

    def body(pid, script):
        mine = []       # timers this process made for its last condition
        for n, op in enumerate(script):
            label = f"p{pid}.{n}:{op[0]}"
            try:
                if op[0] == "sleep":
                    got = yield sim.timeout(op[1], label)
                elif op[0] == "sleep_shared":
                    got = yield shared_timer(op[1])
                elif op[0] in ("any", "all"):
                    mine, chosen = [], []
                    for kind, arg in op[1]:
                        if kind == "timer":
                            mine.append(sim.timeout(arg, f"{label}.t{len(mine)}"))
                            chosen.append(mine[-1])
                        elif kind == "event":
                            chosen.append(events[arg % N_EVENTS])
                        elif kind == "shared":
                            chosen.append(shared_timer(arg))
                        else:
                            chosen.append(procs[arg % len(procs)])
                    cond = sim.any_of if op[0] == "any" else sim.all_of
                    got = yield cond(chosen)
                    got = sorted(map(str, got.values()))
                elif op[0] == "rewait":
                    if not mine:
                        continue
                    got = yield mine[op[1] % len(mine)]
                elif op[0] == "wait":
                    got = yield events[op[1] % N_EVENTS]
                elif op[0] in ("succeed", "fail"):
                    event = events[op[1] % N_EVENTS]
                    if event.triggered:
                        continue
                    if op[0] == "succeed":
                        event.succeed(label)
                    else:
                        event.fail(ValueError(label))
                    got = None
                elif op[0] == "interrupt":
                    procs[op[1] % len(procs)].interrupt(label)
                    got = None
                elif op[0] == "spawn":
                    spawned = sim.process(child(label, op[1]))
                    if op[2]:
                        spawned.interrupt("before-start")
                    got = yield spawned
                elif op[0] == "post":
                    posted.append(sim.timeout(op[1], label))
                    posted[-1].add_callback(lambda ev, label=label: seen.append(
                        (sim.now, f"{label}.fired", ev.value)))
                    got = None
                elif op[0] == "cancel":
                    pool = posted + mine + [shared[i] for i in sorted(shared)]
                    if not pool:
                        continue
                    pool[op[1] % len(pool)].cancel()
                    got = None
                elif op[0] == "repost":
                    if not posted:
                        continue
                    posted[op[1] % len(posted)].add_callback(
                        lambda ev, label=label: seen.append(
                            (sim.now, f"{label}.again", ev.value)))
                    got = None
                else:
                    raise KeyError(label)
            except (kernel.Interrupt, ValueError) as exc:
                got = f"{type(exc).__name__}:{exc.args[0]}"
            seen.append((sim.now, label, got))
        return f"p{pid}"

    for pid, script in enumerate(program):
        procs.append(sim.process(body(pid, script)))
    raised = []
    while len(raised) <= len(program) + N_EVENTS:
        try:
            sim.run(until=HORIZON)
            break
        except (KeyError, ValueError) as exc:
            raised.append((sim.now, type(exc).__name__, exc.args[0]))
    seen.append((sim.now, "end", [p.triggered and p.ok for p in procs]))
    return seen, raised


#: Heap entry due now vs ready entry: p0's second nap (t=1, pushed at t=0.5)
#: is still in the heap when p1 wakes at t=1 and succeeds event 0, so p0
#: observes before p2, whom that event wakes; p0's 1e-20 nap, which cannot
#: move the clock off 1.0, then queues behind p1's zero nap.
HEAP_BEFORE_READY = [
    [("sleep", 0.5), ("sleep", 0.5), ("sleep", 1e-20)],
    [("sleep", 1), ("succeed", 0), ("sleep", 0)],
    [("wait", 0)],
]

#: A losing timer with a second waiter: shared timer 1 (t=2) loses p0's
#: race to a 0.5 s timer, but p1's condition and p2 itself wait on it too,
#: so it must stay on the schedule; p0 then waits on its own loser again.
LOSER_WITH_SECOND_WAITER = [
    [("any", [("timer", 0.5), ("shared", 1), ("timer", 3)]), ("rewait", 1)],
    [("all", [("shared", 1), ("timer", 1)])],
    [("sleep", 1), ("sleep_shared", 1)],
]

#: An interrupt strands the victim's timer; the shared timer it slept on is
#: then waited on by somebody else.
INTERRUPTED_SLEEPER = [
    [("sleep_shared", 2), ("sleep", 1)],
    [("sleep", 1), ("interrupt", 0), ("sleep", 1), ("sleep_shared", 2)],
    [("spawn", 2, True), ("raise",)],
]

#: Coming back at its own instant, ahead of its position: shared timer 1
#: (t=2) is dropped and swept at t=0.5 (four losers against six entries).
#: p0 wakes at t=2 on a timer scheduled *before* it and waits on it: not
#: yet due, so p1 — whose nap sits between the two — observes first.
BACK_BEFORE_ITS_TURN = [
    [("sleep", 2), ("sleep_shared", 1)],
    [("sleep", 2)],
    [("any", [("timer", 0.5), ("shared", 1), ("timer", 3)])],
    [("any", [("timer", 0.5), ("timer", 3), ("timer", 3)])],
]

#: Coming back at its own instant, behind its position: same sweep, but p1
#: waits on shared timer 1 from a *ready* event at t=2, when every heap
#: entry due at t=2 is done. It finds the timer processed and is resumed by
#: a deferred callback queued ahead of p2's (event 1 is long processed).
BACK_AFTER_ITS_TURN = [
    [("sleep", 2), ("succeed", 0)],
    [("wait", 0), ("sleep_shared", 1)],
    [("wait", 0), ("wait", 1)],
    [("succeed", 1), ("any", [("timer", 0.5), ("shared", 1), ("timer", 3)])],
    [("any", [("timer", 0.5), ("timer", 3), ("timer", 3)])],
]


#: The RPC deadline: a posted timer is cancelled before it is due, after it
#: fired (nothing to do), twice, and then given a callback again — which
#: brings it back at its own position, between p1's two naps. p1 cancels a
#: shared timer p2 sleeps on: p2 never wakes, on either kernel; interrupting
#: it later must not drop that timer a second time.
CANCELLED_DEADLINE = [
    [("post", 2), ("post", 0.5), ("sleep", 1), ("cancel", 0), ("cancel", 1),
     ("cancel", 0), ("repost", 0), ("post", 0), ("cancel", 2)],
    [("sleep", 1), ("cancel", 3), ("sleep", 1), ("sleep", 1e-20),
     ("interrupt", 2)],
    [("sleep_shared", 1)],
]


#: A timer cancelled while a condition still lists it (found by an unseeded
#: tier-1 run during PR 21): p0 cancels shared timer 0 (t=1) at t=0, p1's
#: ``any`` wakes on shared timer 1 at t=2 and must not report timer 0 — it
#: was dropped, it never fired for anybody.
CANCELLED_WHILE_RACED = [
    [("sleep", 0), ("cancel", 0)],
    [("any", [("shared", 0), ("shared", 1)])],
]


@settings(max_examples=200, deadline=None)
@given(program=programs, eager_compaction=st.booleans())
@example(program=CANCELLED_WHILE_RACED, eager_compaction=False)
@example(program=CANCELLED_DEADLINE, eager_compaction=False)
@example(program=CANCELLED_DEADLINE, eager_compaction=True)
@example(program=HEAP_BEFORE_READY, eager_compaction=False)
@example(program=LOSER_WITH_SECOND_WAITER, eager_compaction=False)
@example(program=LOSER_WITH_SECOND_WAITER, eager_compaction=True)
@example(program=INTERRUPTED_SLEEPER, eager_compaction=True)
@example(program=BACK_BEFORE_ITS_TURN, eager_compaction=True)
@example(program=BACK_AFTER_ITS_TURN, eager_compaction=True)
def test_same_observations_as_the_single_heap(program, eager_compaction):
    expected = run_program(heap_kernel, program)
    floor = ready_kernel._COMPACT_FLOOR
    if eager_compaction:
        # Sweep dropped entries as early as the rule allows, so small
        # programs also cover timers that come back after eviction.
        ready_kernel._COMPACT_FLOOR = 0
    try:
        actual = run_program(ready_kernel, program)
    finally:
        ready_kernel._COMPACT_FLOOR = floor
    assert actual == expected
