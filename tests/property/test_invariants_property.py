"""Property test: the 2PC invariant checker passes on randomized
fault-injection runs.

Whatever failure schedule the seed draws and whichever transactions
it cuts down mid-flight, the trace the cluster emits must satisfy every
2PC/replication invariant — under both write policies."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import check_controller
from repro.cluster import WritePolicy
from repro.harness import soaks
from repro.harness.scenario import Kv, run_scenario


def run_soak(seed, write_policy, mtbf_s):
    # The fault soak, sized down to one small tenant on five machines.
    scenario = dataclasses.replace(
        soaks.faults(seed=seed, mtbf_s=mtbf_s, duration_s=15.0,
                     drain_s=25.0),
        machines=5, databases=1, tenant=Kv(keys=15), clients_per_db=3)
    scenario.config.write_policy = write_policy
    run = run_scenario(scenario)
    return run.controller, run.stats


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       policy=st.sampled_from([WritePolicy.CONSERVATIVE,
                               WritePolicy.AGGRESSIVE]),
       mtbf_s=st.sampled_from([4.0, 8.0]))
def test_random_fault_soak_audits_clean(seed, policy, mtbf_s):
    controller, stats = run_soak(seed, policy, mtbf_s)
    assert sum(s.committed for s in stats) > 0
    violations = check_controller(controller,
                                  expect_recovery_complete=True)
    assert not violations, "\n".join(str(v) for v in violations)
