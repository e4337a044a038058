"""Ablation — aggressive vs conservative write acknowledgement.

Not a paper figure, but the design choice behind Table 1: the aggressive
controller exists because acknowledging after the first replica cuts
client-visible write latency. This ablation quantifies that latency win
under Option 1 (where aggressive is still serializable), justifying why
the paper bothers with the aggressive mode at all.
"""

import pytest

from repro.cluster import ReadOption, WritePolicy
from repro.harness import experiments, format_table, run_scenario
from repro.workloads.tpcw import TpcwScale

from common import report


def run_ablation():
    results = {}
    for policy in (WritePolicy.CONSERVATIVE, WritePolicy.AGGRESSIVE):
        results[policy] = run_scenario(experiments.tpcw(
            mix="ordering",
            read_option=ReadOption.OPTION_1,
            write_policy=policy,
            machines=4,
            databases=4,
            replicas=2,
            clients_per_db=4,
            duration_s=12.0,
            scale=TpcwScale(items=800, emulated_browsers=4),
            think_time_s=0.02,
            buffer_pool_pages=512,
        ))
    rows = []
    for policy, run in results.items():
        result = experiments.tpcw_report(run)
        mean_rt = (sum(c.response_time_total
                       for c in run.metrics.per_db.values())
                   / max(1, result.committed))
        rows.append([policy.value, result.throughput_tps,
                     mean_rt * 1000.0, result.deadlocks])
    text = format_table(
        ["write policy", "throughput (tps)", "mean txn latency (ms)",
         "deadlocks"], rows)
    return text, results


@pytest.mark.benchmark(group="ablation-write-policy")
def test_ablation_write_policy(benchmark, capsys):
    text, results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report("ablation_write_policy", text, capsys)
    conservative = results[WritePolicy.CONSERVATIVE]
    aggressive = results[WritePolicy.AGGRESSIVE]

    def mean_latency(result):
        return (sum(c.response_time_total
                    for c in result.metrics.per_db.values())
                / max(1, result.committed))

    # Aggressive acks on the first replica: latency must not be worse.
    assert mean_latency(aggressive) <= mean_latency(conservative) * 1.05
    assert aggressive.committed > 0 and conservative.committed > 0
