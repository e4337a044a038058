"""Figures 8 and 9 — rejections and throughput during recovery, from one
sweep (:func:`repro.harness.experiments.recovery_figures`): table-level
and database-level copying at 1, 2 and 4 recovery threads.

Figure 8, rejected transactions per database against the number of
recovery threads (concurrent database copy processes). Expected shape
(paper Section 5): database-level copying rejects significantly more
transactions per database than table-level copying (the whole database
is write-blocked for the copy's duration instead of one table at a
time), and more concurrent recovery threads stretch each copy (shared
disk/network), increasing rejections.

Figure 9, throughput during recovery, at 2 threads. Expected shape:
"surprisingly... the throughput of the two approaches is about the
same" — database-level and table-level copying deliver comparable
cluster throughput while re-replication runs, and throughput returns to
normal afterwards.
"""

import pytest

from repro.harness import experiments

from common import report

THREAD_SWEEP = (1, 2, 4)


@pytest.mark.benchmark(group="fig8-9")
def test_fig8_9_recovery(benchmark, capsys):
    fig8, fig9, results = benchmark.pedantic(
        experiments.recovery_figures, rounds=1, iterations=1)
    report("fig8_recovery_rejections", fig8, capsys)
    report("fig9_recovery_throughput", fig9, capsys)

    # Figure 8.
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

    # Figure 9: the two 2-thread points.
    results = {copy: results[(copy, 2)] for copy in ("table", "database")}
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
