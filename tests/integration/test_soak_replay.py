"""Replay identity: same seed, same trace — byte for byte.

Every CI soak at its CI size (the stampede at the tier-1 size) must dump
exactly the trace recorded below. The seven cluster hashes were recorded
at PR 24, which stamps ``write_acked`` / ``write_failed`` / ``prepare`` /
``prepare_failed`` at the branch's own settle instant and reports
outcomes in settle order (DESIGN §4s); ``disaster`` — the system tier's
trace — at the commit before the soaks became declarations (PR 19's
parent). Each one repeats across processes and under any
``PYTHONHASHSEED``.

A PR that changes simulated behaviour on purpose updates the constants
and says so in CHANGES.md; one that claims "no behaviour change" must
leave them alone. To refresh: run this file, copy the ``got`` hashes out
of the assertion messages.

Each cluster soak also ends with every per-transaction table under its
bound (``check_bounds``, DESIGN §4q).
"""

import hashlib
import io

import pytest

from repro.analysis.invariants import check_bounds
from repro.harness import soaks
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
        "e6300bb0c75a9bdeda68919a786c5ad2"),
    # partitions --duration 10 --seed 3
    "partitions": (
        lambda: cluster_trace(soaks.partitions(
            duration_s=20.0, drain_s=30.0, partition_mtbf_s=8.0, seed=3)),
        "672c850e472106987ed28f3e319e41f2"),
    # controllers --duration 10 --seed 3
    "controllers-consensus": (
        lambda: cluster_trace(soaks.controllers(
            consensus=True, duration_s=20.0, drain_s=15.0,
            ctl_kill_mtbf_s=8.0, seed=3)),
        "5a662fea67411da881d9c75f07aaae74"),
    "controllers-pair": (
        lambda: cluster_trace(soaks.controllers(
            consensus=False, duration_s=20.0, drain_s=15.0,
            ctl_kill_mtbf_s=8.0, seed=3)),
        "d41af1884d05c8dbe417324e9482ff8b"),
    # stampede --duration 4 --seed 3 --stampede-mtbf 16
    "stampede-admission-on": (
        lambda: cluster_trace(soaks.stampede(
            admission=True, duration_s=12.0, ramp_at_s=4.0, drain_s=4.0,
            mtbf_s=16.0, seed=3)),
        "fe582cb57ff6394c4ac062977cfa8973"),
    "stampede-admission-off": (
        lambda: cluster_trace(soaks.stampede(
            admission=False, duration_s=12.0, ramp_at_s=4.0, drain_s=4.0,
            mtbf_s=16.0, seed=3)),
        "af29ca3d1b0a7eb22e02086629ac0f9c"),
    # disaster --duration 15 --seed 3
    "disaster": (
        lambda: run_dr_soak(duration_s=30.0, drain_s=20.0,
                            wan_partition_mtbf_s=8.0, seed=3).system.trace,
        "4c2ab28ac42e9c4ea083e0c1ae1203d7"),
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
