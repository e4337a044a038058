"""Figure 9 — throughput during recovery.

Expected shape (paper Section 5): "surprisingly... the throughput of the
two approaches is about the same" — database-level and table-level
copying deliver comparable cluster throughput while re-replication runs,
and throughput returns to normal afterwards.
"""

import pytest

from repro.harness import (experiments, format_series, format_table,
                           run_scenario)

from common import report


def run_fig9():
    results = {}
    for copy in ("table", "database"):
        results[copy] = experiments.recovery_report(run_scenario(
            experiments.recovery(
                copy=copy,
                recovery_threads=2,
                duration_s=120.0,
                failure_time_s=20.0,
                copy_bytes_factor=2000.0,
            )))
    table = results["table"]
    database = results["database"]
    headers = ["phase", "table-level tps", "db-level tps"]
    rows = [
        ["before failure", table.throughput_before_tps,
         database.throughput_before_tps],
        ["during recovery", table.throughput_during_tps,
         database.throughput_during_tps],
        ["after recovery", table.throughput_after_tps,
         database.throughput_after_tps],
    ]
    text = format_table(headers, rows)
    text += "\n\n" + format_series(
        "table-level throughput over time (tps)",
        table.throughput_series)
    text += "\n" + format_series(
        "db-level throughput over time (tps)",
        database.throughput_series)
    return text, results


@pytest.mark.benchmark(group="fig9")
def test_fig9_recovery_throughput(benchmark, capsys):
    text, results = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    report("fig9_recovery_throughput", text, capsys)
    table = results["table"]
    database = results["database"]
    # The two curves come from two different strategies.
    for copy, outcome in results.items():
        assert {r.mode for r in outcome.recovery_records} == {copy}
    # The paper's observation: both granularities sustain about the same
    # throughput during recovery (within 25 % of each other).
    during_t = table.throughput_during_tps
    during_d = database.throughput_during_tps
    assert during_t > 0 and during_d > 0
    ratio = during_t / during_d
    assert 0.75 <= ratio <= 1.33, f"during-recovery ratio {ratio}"
    # And the cluster keeps serving: during-throughput stays within a
    # factor of two of steady state.
    assert during_t >= 0.5 * table.throughput_before_tps
    assert during_d >= 0.5 * database.throughput_before_tps
