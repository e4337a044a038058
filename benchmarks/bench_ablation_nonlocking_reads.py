"""Ablation — strict-2PL locking reads vs MySQL-style consistent reads.

The paper's formal model (Section 3.1) assumes reads take shared locks;
its actual engines (MySQL/InnoDB) serve plain SELECTs as non-locking
consistent reads. This ablation runs the same contended TPC-W ordering
workload both ways and shows what the read-locking choice costs:
locking reads add read/write conflicts (more deadlocks, more lock
waits), consistent reads trade that for read-committed semantics.
"""

import pytest

from repro.cluster import ReadOption, WritePolicy
from repro.harness import experiments, format_table, run_scenario
from repro.workloads.tpcw import TpcwScale

from common import report


def run_ablation():
    results = {}
    for label, nonlocking in (("locking reads (strict 2PL)", False),
                              ("consistent reads (read committed)", True)):
        results[label] = experiments.tpcw_report(run_scenario(experiments.tpcw(
            mix="ordering",
            read_option=ReadOption.OPTION_1,
            write_policy=WritePolicy.CONSERVATIVE,
            machines=4,
            databases=2,
            replicas=2,
            clients_per_db=12,
            duration_s=12.0,
            scale=TpcwScale(items=150, emulated_browsers=12),
            think_time_s=0.005,
            buffer_pool_pages=1024,
            lock_wait_timeout_s=1.0,
            nonlocking_reads=nonlocking,
        )))
    rows = [[label, result.throughput_tps, result.deadlocks]
            for label, result in results.items()]
    text = format_table(
        ["read mode", "throughput (tps)", "deadlocks"], rows)
    return text, results


@pytest.mark.benchmark(group="ablation-nonlocking-reads")
def test_ablation_nonlocking_reads(benchmark, capsys):
    text, results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report("ablation_nonlocking_reads", text, capsys)
    locking = results["locking reads (strict 2PL)"]
    consistent = results["consistent reads (read committed)"]
    # Non-locking reads eliminate read/write deadlocks on this workload.
    assert consistent.deadlocks <= locking.deadlocks
    # And never cost throughput.
    assert consistent.throughput_tps >= locking.throughput_tps * 0.95
