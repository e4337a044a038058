"""Property test: log-structured delta re-replication preserves every
2PC / replication / recovery invariant under randomized soaks.

Whatever failure schedule the injector draws, the delta pipeline —
snapshot at a pinned LSN, live log replay, drain-only rejection, rejoin
catch-up of falsely-declared machines — must leave a trace that audits
clean, including ``rereplication-restores-factor``. The partition soak
additionally exercises the fence → heal → readmit path where a machine
with intact data catches up from the retained log.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import check_controller
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
def test_partition_soak_with_delta_audits_clean(seed):
    result = run_scenario(soaks.partitions(
        duration_s=15.0, drain_s=30.0, seed=seed, copy="delta"))
    assert result.committed > 0
    violations = check_controller(result.controller,
                                  expect_recovery_complete=True)
    assert not violations, "\n".join(str(v) for v in violations)
    # The drain healed every partition; no suspicion dangles.
    assert not result.controller.detector.suspected
