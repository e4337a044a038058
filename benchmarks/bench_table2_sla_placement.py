"""Table 2 — SLA-based placement: First-Fit vs the exhaustive optimum.

Database sizes are drawn from a zipfian over 200-1000 MB and throughputs
from a zipfian over 0.1-10 TPS, with the skew factor swept over 0.4-2.0
(the paper's Table 2 settings).

Expected shape: average size and average throughput fall as skew grows
(mass concentrates at the low end of each range), the number of machines
needed falls with them, and the online First-Fit answer stays within one
machine of the exhaustively computed optimum.
"""

import pytest

from repro.harness import format_table
from repro.sla.model import ResourceVector
from repro.sla.optimal import first_fit_vs_optimal

from common import report

SKEWS = (0.4, 0.8, 1.2, 1.6, 2.0)
# Calibrated so ~20 databases land in the paper's 4-9 machine range:
# memory is the binding dimension (working sets must stay resident),
# as on the paper's 4 GB machines running 2 GB buffer pools.
CAPACITY = ResourceVector(cpu=2.0, memory_mb=1200.0, disk_io_mbps=60.0,
                          disk_mb=20000.0)


def run_table2():
    rows = []
    results = []
    for skew in SKEWS:
        result = first_fit_vs_optimal(
            skew, n_databases=20, seed=3,
            machine_capacity=CAPACITY,
            working_set_fraction=0.55)
        results.append(result)
        rows.append([result.skew, result.avg_size_mb,
                     result.avg_throughput_tps,
                     result.machines_first_fit, result.machines_optimal])
    text = format_table(
        ["Skew Factor", "Average Size (MB)", "Average Throughput (TPS)",
         "# of Machines Used", "Optimal Solution"], rows)
    return text, results


@pytest.mark.benchmark(group="table2")
def test_table2_sla_placement(benchmark, capsys):
    text, results = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    report("table2_sla_placement", text, capsys)
    # Averages shrink as skew grows (paper: 531 MB -> 310 MB, 3.75 -> 0.29).
    assert results[0].avg_size_mb > results[-1].avg_size_mb
    assert results[0].avg_throughput_tps > results[-1].avg_throughput_tps
    # Machine counts fall with skew (paper: 9 -> 4).
    assert results[0].machines_first_fit >= results[-1].machines_first_fit
    assert results[0].machines_first_fit > results[-1].machines_first_fit - 1
    for result in results:
        # First-Fit is never below the optimum and stays within one
        # machine of it (the paper's worst case: 5 vs 4 at skew 1.2).
        assert result.machines_optimal <= result.machines_first_fit
        assert result.machines_first_fit - result.machines_optimal <= 1
