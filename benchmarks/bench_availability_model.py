"""Validation — the Section 4.1 availability model against measurement.

The paper bounds the fraction of proactively rejected transactions by::

    (failure_rate + reallocation_rate) * (recovery_time / T) * write_mix

This benchmark runs a sustained-failure soak (Poisson machine failures,
database-granularity recovery so the rejection window is the whole copy)
and compares the measured rejected fraction against the formula's
prediction built from the same run's observed failure count and copy
durations. A reproduction of the *model*, not just the mechanism.
"""

import dataclasses

import pytest

from repro.harness import format_table, soaks
from repro.harness.faults import injected
from repro.harness.scenario import Kv, run_scenario
from repro.sla.model import rejected_fraction_bound
from repro.sla.monitor import observed_availability_inputs

DURATION_S = 300.0
MTBF_S = 40.0
DB = "kv0"


def run_soak():
    # The fault soak with database-level copies (the rejection window is
    # the whole copy), sized to one tenant under four clients; nothing
    # is measured after the failures stop, so there is no drain.
    scenario = dataclasses.replace(
        soaks.faults(copy="database", duration_s=DURATION_S, drain_s=0.0,
                     mtbf_s=MTBF_S, seed=9),
        databases=1, tenant=Kv(keys=40), clients_per_db=4,
        think_time_s=0.25)
    scenario.config.machine.copy_bytes_factor = 20_000.0  # ~0.8 s copies
    run = run_scenario(scenario)
    assert all(r.mode == "database" for r in run.recoveries)

    counters = run.metrics.db(DB)
    measured_fraction = counters.rejected_fraction()
    failures_hitting_db = sum(
        1 for fault in injected(run.applied, "fail") if DB in fault.result)
    inputs = observed_availability_inputs(
        DB, run.recoveries, failures_observed=failures_hitting_db,
        window_s=DURATION_S, write_mix=1.0, period_s=DURATION_S)
    predicted = rejected_fraction_bound(inputs, DURATION_S)
    return {
        "measured": measured_fraction,
        "predicted": predicted,
        "failures": failures_hitting_db,
        "recovery_time_s": inputs.recovery_time_s,
        "committed": counters.committed,
        "rejected": counters.rejected,
    }


@pytest.mark.benchmark(group="availability-model")
def test_availability_model_validates(benchmark, capsys):
    from common import report
    data = benchmark.pedantic(run_soak, rounds=1, iterations=1)
    text = format_table(
        ["metric", "value"],
        [["failures hitting the database", data["failures"]],
         ["mean recovery (copy) time (s)", data["recovery_time_s"]],
         ["committed transactions", data["committed"]],
         ["rejected transactions", data["rejected"]],
         ["measured rejected fraction", data["measured"]],
         ["Section 4.1 predicted fraction", data["predicted"]]])
    report("availability_model", text, capsys)
    assert data["failures"] >= 1
    assert data["rejected"] >= 1, "db-level copies must reject writes"
    # The model and the measurement agree to well within an order of
    # magnitude (the formula is an expectation, the run is one sample).
    ratio = data["measured"] / data["predicted"]
    assert 0.2 <= ratio <= 5.0, f"model mismatch: ratio {ratio}"
