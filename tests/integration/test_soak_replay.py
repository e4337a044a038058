"""Replay identity: same seed, same trace — byte for byte.

Every CI soak at its CI size (the stampede at the tier-1 size) must dump
exactly the trace recorded below. The seven fault-injecting soaks were
recorded when faults became a schedule drawn up front and applied by one
process (DESIGN §4t): the draws moved, and every entry traces one
``fault`` event. ``manytenants`` injects nothing and predates that.
Each one repeats across processes and under any ``PYTHONHASHSEED``.

A soak also replays from its schedule alone: feeding ``run.schedule``
back as the scenario's ``faults`` gives the same trace — the replay
command of a failing seed.

A PR that changes simulated behaviour on purpose updates the constants
and says so in CHANGES.md; one that claims "no behaviour change" must
leave them alone. To refresh: run this file, copy the ``got`` hashes out
of the assertion messages.

Each cluster soak also ends with every per-transaction table under its
bound (``check_bounds``, DESIGN §4q).
"""

import dataclasses
import hashlib
import io
import json

import pytest

from repro.analysis.invariants import check_bounds
from repro.harness import soaks
from repro.harness.faults import load
from repro.harness.runner import run_dr_soak, run_many_tenants
from repro.harness.scenario import run_scenario


def trace_md5(tracer) -> str:
    buffer = io.StringIO()
    tracer.dump_jsonl(buffer)
    return hashlib.md5(buffer.getvalue().encode()).hexdigest()


def cluster_trace(scenario):
    return bounded(run_scenario(scenario).controller)


def bounded(controller):
    violations = check_bounds(controller)
    assert not violations, "\n".join(str(v) for v in violations)
    return controller.trace


# The arguments are what the ci.yml command lines resolve to.
SOAKS = {
    # faults --duration 10
    "faults": (
        lambda: cluster_trace(soaks.faults(
            duration_s=20.0, drain_s=10.0, mtbf_s=8.0, seed=3)),
        "cc389571b87f5fcb36f1bbfa0c1cc872"),
    # partitions --duration 10 --seed 3
    "partitions": (
        lambda: cluster_trace(soaks.partitions(
            duration_s=20.0, drain_s=30.0, partition_mtbf_s=8.0, seed=3)),
        "525e379b0c0360a5838d231cf6ab0360"),
    # controllers --duration 10 --seed 3
    "controllers-consensus": (
        lambda: cluster_trace(soaks.controllers(
            consensus=True, duration_s=20.0, drain_s=15.0,
            ctl_kill_mtbf_s=8.0, seed=3)),
        "ec016db3b22f5572cc31ee1fcc87c71e"),
    "controllers-pair": (
        lambda: cluster_trace(soaks.controllers(
            consensus=False, duration_s=20.0, drain_s=15.0,
            ctl_kill_mtbf_s=8.0, seed=3)),
        "7a136ed4c7e455a103dcab717f0fa41e"),
    # stampede --duration 4 --seed 3 --stampede-mtbf 16
    "stampede-admission-on": (
        lambda: cluster_trace(soaks.stampede(
            admission=True, duration_s=12.0, ramp_at_s=4.0, drain_s=4.0,
            mtbf_s=16.0, seed=3)),
        "802dbe9d770fb9ea5b556e201f6aabb7"),
    "stampede-admission-off": (
        lambda: cluster_trace(soaks.stampede(
            admission=False, duration_s=12.0, ramp_at_s=4.0, drain_s=4.0,
            mtbf_s=16.0, seed=3)),
        "f6fb205beb385e9504913893036f3b81"),
    # disaster --duration 15 --seed 3
    "disaster": (
        lambda: run_dr_soak(duration_s=30.0, drain_s=20.0,
                            wan_partition_mtbf_s=8.0, seed=3).system.trace,
        "e35029f3757412e4f024b27cce9461da"),
    # manytenants --tenants 2000 --duration 6
    "manytenants": (
        lambda: bounded(run_many_tenants(n_databases=2000, duration_s=12.0,
                                         flash_at_s=6.0, seed=3).controller),
        "e54611c80420baa0d169ee2dfc364a4d"),
}


@pytest.mark.parametrize("name", list(SOAKS))
def test_soak_trace_is_the_recorded_one(name):
    run, recorded = SOAKS[name]
    got = trace_md5(run())
    assert got == recorded, f"{name}: got {got}, recorded {recorded}"


def test_same_seed_same_trace_within_one_process():
    run, _recorded = SOAKS["partitions"]
    first, second = io.StringIO(), io.StringIO()
    run().dump_jsonl(first)
    run().dump_jsonl(second)
    assert first.getvalue() == second.getvalue()


@pytest.mark.parametrize("name", ["partitions", "controllers-consensus"])
def test_a_soak_replays_from_its_schedule_alone(name):
    scenario = {
        "partitions": soaks.partitions(duration_s=20.0, drain_s=30.0,
                                       partition_mtbf_s=8.0, seed=3),
        "controllers-consensus": soaks.controllers(
            consensus=True, duration_s=20.0, drain_s=15.0,
            ctl_kill_mtbf_s=8.0, seed=3)}[name]
    run = run_scenario(scenario)
    # What a failing seed prints: the schedule as JSON.
    recorded = load(json.loads(json.dumps(run.schedule)))
    assert recorded == run.schedule
    replay = run_scenario(dataclasses.replace(
        scenario, faults=lambda run: recorded))
    assert trace_md5(replay.controller.trace) == SOAKS[name][1]
