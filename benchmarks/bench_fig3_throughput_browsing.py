"""Figure 3 — throughput with synchronous replication, browsing mix
(the sweep of Figure 2, :func:`repro.harness.experiments.throughput_figure`)."""

import pytest

from repro.harness import experiments

from common import peak, report


@pytest.mark.benchmark(group="fig3")
def test_fig3_throughput_browsing(benchmark, capsys):
    text, series = benchmark.pedantic(
        lambda: experiments.throughput_figure("browsing"), rounds=1,
        iterations=1)
    report("fig3_throughput_browsing", text, capsys)
    no_repl = peak(series, "no-replication")
    opt1 = peak(series, "option-1")
    opt2 = peak(series, "option-2")
    opt3 = peak(series, "option-3")
    assert opt1 > opt2
    assert opt1 > opt3
    # Browsing is read-dominated: replication's write cost is small, so
    # Option 1 sits closest to no-replication in this mix.
    assert 0.70 * no_repl <= opt1 <= no_repl
    assert opt3 <= opt2 * 1.10
