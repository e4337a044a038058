"""Property test: log-structured delta re-replication preserves every
2PC / replication / recovery invariant under randomized soaks.

Whatever failure schedule the seed draws, the delta pipeline —
snapshot at a pinned LSN, live log replay, drain-only rejection, rejoin
catch-up of falsely-declared machines — must leave a trace that audits
clean, including ``rereplication-restores-factor``. The partition soak
additionally exercises the fence → heal → readmit path where a machine
with intact data catches up from the retained log.

The last test adds a "checkpoint at a random point" op and runs the soak
twice, with and without WAL truncation: a rejoin that builds its skip
set from the retained suffix must make the run it would have made from
the full log — the same trace, event for event.
"""

import dataclasses
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import (check_bounds, check_controller,
                                       suspicion_horizon_s)
from repro.engine.wal import WriteAheadLog
from repro.harness import soaks
from repro.harness.scenario import run_scenario


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fault_soak_with_delta_audits_clean(seed):
    result = run_scenario(soaks.faults(
        duration_s=15.0, drain_s=25.0, seed=seed, copy="delta"))
    assert result.committed > 0
    violations = check_controller(result.controller,
                                  expect_recovery_complete=True)
    assert not violations, "\n".join(str(v) for v in violations)
    # Every completed re-replication in this configuration ran the
    # delta pipeline, not the full-copy reference.
    assert all(r.mode == "delta" for r in result.recoveries)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
# Seed 319: the failure detector declared a machine dead while its
# PREPARE was in flight, and the controller counted the late vote from
# the now-fenced replica (fenced-replica-never-serves).
@example(seed=319)
# Seed 715: the lossy fabric dropped two heartbeats of a live machine,
# it was suspected at t = 44.50 and the finale crashed the primary at
# 45.0 — the detector stops with its primary, so no probe was left to
# clear the suspicion, and the audit called it dangling.
@example(seed=715)
def test_partition_soak_with_delta_audits_clean(seed):
    result = run_scenario(soaks.partitions(
        duration_s=15.0, drain_s=30.0, seed=seed, copy="delta"))
    assert result.committed > 0
    violations = check_controller(result.controller,
                                  expect_recovery_complete=True)
    assert not violations, "\n".join(str(v) for v in violations)
    # The drain healed every partition: no suspicion dangles but one the
    # detector had no time left to resolve before the finale stopped it.
    stopped_at = result.marks["primary_crashed_at"]
    horizon_s = suspicion_horizon_s(result.controller.config)
    assert all(stopped_at - since < horizon_s
               for since in result.controller.detector.suspected.values())


def _checkpoint_everywhere(run):
    """Every serving machine hears the watermark now — and checkpoints,
    whether or not one of its own requests was about to tell it."""
    for machine in run.controller.machines.values():
        if machine.alive and not machine.fenced:
            machine.close_below(run.controller.txns.rpc.low)
    run.marks["checkpointed"] = True


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       at_s=st.floats(min_value=1.0, max_value=14.0))
@example(seed=3, at_s=7.5)
# Seed 4969: a read in flight to a machine that was declared and wiped
# came back as SchemaError, killed its client with the transaction open,
# and the watermark stopped for the rest of the run.
@example(seed=4969, at_s=13.58)
def test_partition_soak_is_the_same_run_from_the_retained_suffix(seed, at_s):
    scenario = soaks.partitions(duration_s=15.0, drain_s=30.0, seed=seed,
                                copy="delta")
    scenario = dataclasses.replace(
        scenario, staged=[*scenario.staged, (at_s, _checkpoint_everywhere)])
    result = run_scenario(scenario)
    with mock.patch.object(WriteAheadLog, "checkpoint",
                           lambda self, upto_lsn: 0):
        reference = run_scenario(scenario)
    assert result.marks["checkpointed"] and result.committed > 0

    def events(run):
        return [e.to_dict() for e in run.controller.trace.events()]

    assert events(result) == events(reference)
    truncated = [m.engine.wal.stats.truncated
                 for m in result.controller.machines.values()]
    assert max(truncated) > 0
    assert all(m.engine.wal.stats.truncated == 0
               for m in reference.controller.machines.values())
    assert check_bounds(result.controller) == []
