"""Figure 8 — rejected transactions per database during recovery.

X-axis: number of recovery threads (concurrent database copy processes);
two curves: database-granularity vs table-granularity copying.

Expected shape (paper Section 5): database-level copying rejects
significantly more transactions per database than table-level copying
(the whole database is write-blocked for the copy's duration instead of
one table at a time), and more concurrent recovery threads stretch each
copy (shared disk/network), increasing rejections.
"""

import pytest

from repro.harness import experiments, format_table, run_scenario

from common import report

THREAD_SWEEP = (1, 2, 4)


def run_fig8():
    results = {}
    # The paper's Algorithm 1 at both granularities, asked for by name
    # (the platform's default copy is the delta pipeline, which rejects
    # next to nothing and would make both curves zero).
    for copy in ("table", "database"):
        for threads in THREAD_SWEEP:
            outcome = experiments.recovery_report(run_scenario(
                experiments.recovery(
                    copy=copy,
                    recovery_threads=threads,
                    duration_s=120.0,
                    failure_time_s=20.0,
                    copy_bytes_factor=2000.0,
                )))
            results[(copy, threads)] = outcome
    headers = ["recovery threads", "table-level rej/db", "db-level rej/db"]
    rows = [
        [threads,
         results[("table", threads)].mean_rejections_per_db,
         results[("database", threads)].mean_rejections_per_db]
        for threads in THREAD_SWEEP
    ]
    text = format_table(headers, rows)
    return text, results


@pytest.mark.benchmark(group="fig8")
def test_fig8_recovery_rejections(benchmark, capsys):
    text, results = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    report("fig8_recovery_rejections", text, capsys)
    for threads in THREAD_SWEEP:
        table_rej = results[("table", threads)].mean_rejections_per_db
        db_rej = results[("database", threads)].mean_rejections_per_db
        # Database-level copying rejects (significantly) more.
        assert db_rej > table_rej, (
            f"threads={threads}: db-level {db_rej} <= table-level {table_rej}")
    # Recovery actually completed in every run.
    for outcome in results.values():
        assert outcome.recovery_complete_time is not None
        assert all(r.succeeded for r in outcome.recovery_records)
    for (copy, _threads), outcome in results.items():
        assert {r.mode for r in outcome.recovery_records} == {copy}
