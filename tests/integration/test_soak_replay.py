"""Replay identity: same seed, same trace — byte for byte.

Every CI soak at its CI size (the stampede at the tier-1 size) must dump
exactly the trace recorded below. The six cluster soaks were recorded
when every controller became one Paxos group (DESIGN §4u): each trace
opens with the controller's election, decisions carry their replica and
term, and ``partitions`` / ``controllers`` run on the production group
of three. Five of them were refreshed when every database became cold
at creation (DESIGN §4v): each now carries one ``db_materialised`` event
per database at its first touch, and is otherwise the same trace.
``disaster`` is the system tier's trace and was recorded when
faults became a schedule drawn up front (DESIGN §4t). The stampede's
contrast arm was refreshed when admission became one path (DESIGN §4w):
its hot tenant declares no SLA, and reads shed there as everywhere.
``faults`` and both stampede arms were refreshed when ``fail`` became a
crash declared at once (DESIGN §4z): each ``machine_failed`` event is
now ``machine_crashed``, ``machine_declared`` and ``machine_fenced`` at
the same instant, and every other event is the same. ``disaster`` and
``manytenants`` were refreshed when they became declarations over the
one loop (DESIGN §4n): the DR clients are the loop's
reconnecting key-value clients, and the tenant-scale soak's tenants are
``kv<i>``, its hot ones created and loaded before the cold ones are
staged. All seven were refreshed when the metrics became readers of
the trace (DESIGN §4r): ``committed`` carries its ``latency`` (and a
2PC commit its ``commit_latency``), ``decision_logged`` its
``prepare_latency``, ``ctl_leader_elected`` the ``previous`` leader and
``dr_promote`` its ``declared_at``; with those extras stripped, each
trace hashes to the constant recorded before. Each one repeats across
processes and under any ``PYTHONHASHSEED``.

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
        "5516821d314d474d4a977b8f9fac15d2"),
    # partitions --duration 10 --seed 3
    "partitions": (
        lambda: cluster_trace(soaks.partitions(
            duration_s=20.0, drain_s=30.0, partition_mtbf_s=8.0, seed=3)),
        "ef1e0814502330d26fec778d8864334c"),
    # controllers --duration 10 --seed 3
    "controllers-consensus": (
        lambda: cluster_trace(soaks.controllers(
            duration_s=20.0, drain_s=15.0, ctl_kill_mtbf_s=8.0, seed=3)),
        "b33a8f59f2e84d846af93ca3ff99ab15"),
    # stampede --duration 4 --seed 3 --stampede-mtbf 16: the hot tenant
    # with its SLA (throttled), then without one (admission never
    # throttles it: the contrast arm)
    "stampede-admission-on": (
        lambda: cluster_trace(soaks.stampede(
            hot_sla=True, duration_s=12.0, ramp_at_s=4.0, drain_s=4.0,
            mtbf_s=16.0, seed=3)),
        "16e4e88c29356800a9e6786e78214aa4"),
    "stampede-admission-off": (
        lambda: cluster_trace(soaks.stampede(
            hot_sla=False, duration_s=12.0, ramp_at_s=4.0, drain_s=4.0,
            mtbf_s=16.0, seed=3)),
        "86803a98e4ef0825fcc4a951712fd32a"),
    # disaster --duration 15 --seed 3
    "disaster": (
        lambda: run_scenario(soaks.disaster(
            duration_s=30.0, drain_s=20.0, wan_partition_mtbf_s=8.0,
            seed=3)).controller.trace,
        "9c25096500348dacf225af40321b1f66"),
    # manytenants --tenants 2000 --duration 6
    "manytenants": (
        lambda: cluster_trace(soaks.many_tenants(
            n_databases=2000, duration_s=12.0, flash_at_s=6.0, seed=3)),
        "5d712ed3787207e0e14be6fbc291b704"),
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
            duration_s=20.0, drain_s=15.0, ctl_kill_mtbf_s=8.0,
            seed=3)}[name]
    run = run_scenario(scenario)
    # What a failing seed prints: the schedule as JSON.
    recorded = load(json.loads(json.dumps(run.schedule)))
    assert recorded == run.schedule
    replay = run_scenario(dataclasses.replace(
        scenario, faults=lambda run: recorded))
    assert trace_md5(replay.controller.trace) == SOAKS[name][1]
