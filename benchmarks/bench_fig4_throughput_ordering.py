"""Figure 4 — throughput with synchronous replication, ordering mix
(the sweep of Figure 2, :func:`repro.harness.experiments.throughput_figure`)."""

import pytest

from repro.harness import experiments

from common import peak, report


@pytest.mark.benchmark(group="fig4")
def test_fig4_throughput_ordering(benchmark, capsys):
    text, series = benchmark.pedantic(
        lambda: experiments.throughput_figure("ordering"), rounds=1,
        iterations=1)
    report("fig4_throughput_ordering", text, capsys)
    no_repl = peak(series, "no-replication")
    opt1 = peak(series, "option-1")
    opt2 = peak(series, "option-2")
    opt3 = peak(series, "option-3")
    assert opt1 > opt2
    assert opt1 > opt3
    # Ordering is write-heavy: every write runs on all replicas plus 2PC,
    # so the replication gap is at its widest here.
    assert 0.60 * no_repl <= opt1 <= no_repl
    assert opt3 <= opt2 * 1.10
