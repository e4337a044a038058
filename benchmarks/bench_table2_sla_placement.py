"""Table 2 — SLA-based placement: First-Fit vs the exhaustive optimum.

Database sizes are drawn from a zipfian over 200-1000 MB and throughputs
from a zipfian over 0.1-10 TPS, with the skew factor swept over 0.4-2.0
(the paper's Table 2 settings; :func:`repro.harness.experiments.table2`).

Expected shape: average size and average throughput fall as skew grows
(mass concentrates at the low end of each range), the number of machines
needed falls with them, and the online First-Fit answer stays within one
machine of the exhaustively computed optimum.
"""

import pytest

from repro.harness import experiments

from common import report


@pytest.mark.benchmark(group="table2")
def test_table2_sla_placement(benchmark, capsys):
    text, results = benchmark.pedantic(experiments.table2, rounds=1,
                                       iterations=1)
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
