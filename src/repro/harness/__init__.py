"""Experiment harness: the one experiment loop, its declarations and
reporting."""

from repro.harness.faults import Fault, apply
from repro.harness.reporting import format_series, format_table
from repro.harness.scenario import Run, Scenario, run_scenario

__all__ = [
    "Fault",
    "Run",
    "Scenario",
    "apply",
    "format_series",
    "format_table",
    "run_scenario",
]
