"""Experiment harness: the soak loop, shared drivers and reporting."""

from repro.harness.faults import Fault, apply
from repro.harness.reporting import format_series, format_table
from repro.harness.runner import (RecoveryExperimentResult, TpcwRunResult,
                                  run_recovery_experiment, run_tpcw_cluster,
                                  run_sla_placement)
from repro.harness.scenario import Run, Scenario, run_scenario

__all__ = [
    "Fault",
    "RecoveryExperimentResult",
    "Run",
    "Scenario",
    "TpcwRunResult",
    "apply",
    "format_series",
    "format_table",
    "run_recovery_experiment",
    "run_scenario",
    "run_sla_placement",
    "run_tpcw_cluster",
]
