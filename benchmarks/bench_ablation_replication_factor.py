"""Ablation — replication factor 1 vs 2 vs 3.

The paper fixes 2 replicas per database; this ablation shows the cost
curve: each extra replica adds write fan-out and 2PC participants,
trading throughput for failure tolerance.
"""

import pytest

from repro.cluster import ReadOption, WritePolicy
from repro.harness import experiments, format_table, run_scenario
from repro.workloads.tpcw import TpcwScale

from common import report


def run_ablation():
    results = {}
    for replicas in (1, 2, 3):
        results[replicas] = experiments.tpcw_report(run_scenario(experiments.tpcw(
            mix="shopping",
            read_option=ReadOption.OPTION_1,
            write_policy=WritePolicy.CONSERVATIVE,
            machines=6,
            databases=4,
            replicas=replicas,
            clients_per_db=4,
            duration_s=12.0,
            scale=TpcwScale(items=800, emulated_browsers=4),
            think_time_s=0.02,
            buffer_pool_pages=384,
        )))
    rows = [[replicas, result.throughput_tps, result.buffer_hit_rate]
            for replicas, result in results.items()]
    text = format_table(
        ["replicas", "throughput (tps)", "buffer hit rate"], rows)
    return text, results


@pytest.mark.benchmark(group="ablation-replication")
def test_ablation_replication_factor(benchmark, capsys):
    text, results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report("ablation_replication_factor", text, capsys)
    # Throughput declines monotonically-ish with replication degree.
    assert results[1].throughput_tps >= results[2].throughput_tps
    assert results[2].throughput_tps >= results[3].throughput_tps * 0.9
